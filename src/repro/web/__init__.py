"""Web-application callback support (§4.5, Fig. 4.8)."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "callbacks": (
        "DeferredWebReconciliationHandler", "WebNegotiationBridge", "WebResponse",
        "WebServer",
    ),
})
