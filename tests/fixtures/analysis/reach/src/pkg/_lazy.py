def reexport(namespace, table):
    return None, None, []
