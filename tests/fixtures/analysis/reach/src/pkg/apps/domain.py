def make_domain():
    """Reached only through an apps/registry.py entry."""
