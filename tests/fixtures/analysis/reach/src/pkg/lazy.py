def exported():
    """Reached only through the package's re-export table."""
