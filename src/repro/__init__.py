"""PySymphony: a Python reproduction of JavaSymphony (CLUSTER 2000).

A locality-oriented distributed/parallel programming system: virtual
distributed architectures with constraint-based allocation, explicit and
automatic object mapping and migration, synchronous / asynchronous /
one-sided method invocation, selective remote classloading, persistent
objects — plus the agent-based runtime (JRS) and a simulated
heterogeneous workstation cluster standing in for the paper's testbed.

Quickstart::

    from repro import (JSRegistration, JSObj, JSCodebase, Cluster,
                       jsclass, vienna_testbed)

    @jsclass
    class Greeter:
        def hello(self, name):
            return f"hello {name}"

    def app():
        reg = JSRegistration()
        cluster = Cluster(3)
        cb = JSCodebase(); cb.add(Greeter); cb.load(cluster)
        obj = JSObj("Greeter", cluster.get_node(0))
        print(obj.sinvoke("hello", ["world"]))
        reg.unregister()

    vienna_testbed().run_app(app)
"""

from repro.agents import ClassRegistry, js_compute, jsclass
from repro.cluster import JSRuntime, TestbedConfig, vienna_testbed, vienna_world
from repro.constraints import JSConstraints
from repro.core import (
    JS,
    HostGroup,
    JSCodebase,
    JSConstants,
    JSObj,
    JSRegistration,
    JSStatic,
    PersistentStore,
)
from repro.errors import JSError
from repro.kernel import VirtualKernel
from repro.obs import Tracer, current_tracer, tracing
from repro.rmi import MultiHandle, ResultHandle, minvoke
from repro.simnet import SimWorld
from repro.sysmon import SysParam
from repro.util.serialization import Payload
from repro.varch import Cluster, Domain, Node, Site

__version__ = "1.0.0"

__all__ = [
    "ClassRegistry",
    "js_compute",
    "jsclass",
    "JSRuntime",
    "TestbedConfig",
    "vienna_testbed",
    "vienna_world",
    "JSConstraints",
    "JS",
    "HostGroup",
    "JSCodebase",
    "JSConstants",
    "JSObj",
    "JSRegistration",
    "JSStatic",
    "PersistentStore",
    "JSError",
    "VirtualKernel",
    "MultiHandle",
    "ResultHandle",
    "minvoke",
    "SimWorld",
    "SysParam",
    "Tracer",
    "current_tracer",
    "tracing",
    "Payload",
    "Cluster",
    "Domain",
    "Node",
    "Site",
    "__version__",
]
