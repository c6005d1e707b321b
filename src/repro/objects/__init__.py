"""Distributed-object model: entities, containers, location, interception."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "container": ("Container",),
    "entity": ("Entity",),
    "invocation": (
        "ContainerInvoker", "CostInterceptor", "Interceptor", "InterceptorChain",
        "Invocation", "InvocationService",
    ),
    "naming": ("LocationService",),
    "node": ("Node", "NodeServices"),
    "refs": ("ObjectNotFound", "ObjectRef"),
})
