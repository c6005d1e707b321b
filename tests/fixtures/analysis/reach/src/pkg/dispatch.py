class Handler:
    """Named only by a string in benchmarks/."""

    def handle(self, kind):
        return getattr(self, "_cmd_" + kind)()

    def _cmd_ping(self):
        """Reached only through the ``_cmd_`` prefix."""
        return "pong"
