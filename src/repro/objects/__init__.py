"""Distributed-object model: entities, containers, naming, interception."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "container": ("Container",),
    "entity": ("Entity", "ObjectAccessTracker", "pop_tracker", "push_tracker"),
    "invocation": (
        "ContainerInvoker", "CostInterceptor", "Interceptor", "InterceptorChain",
        "Invocation", "InvocationService",
    ),
    "naming": ("LocationService", "NamingService"),
    "node": ("Node", "NodeServices"),
    "refs": ("ObjectNotFound", "ObjectRef"),
})
