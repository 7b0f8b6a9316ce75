"""A traced run is the untraced run.

The tracer observes the simulated experiment and must never change it:
the same seed with and without a recording ``Tracer`` gives the same
simulated clock and the same message ledger (count, bytes, per kind).
Metrics windows go from each network agent straight to the NAS's SLO
watcher, never onto the wire, so nothing the tracer records is charged
to the simulated network.
"""

from contextlib import nullcontext

import pytest

from repro.apps.matmul import MatmulConfig, run_matmul
from repro.cluster import TestbedConfig, vienna_testbed
from repro.obs import Tracer, tracing
from tests.test_invoke_pipeline import golden_run


def matmul_run(traced, profile, nodes, seed):
    """A nominal n=256 matmul on a fresh testbed; its clock and ledger."""
    config = TestbedConfig(load_profile=profile, seed=seed)
    with tracing(Tracer()) if traced else nullcontext():
        runtime = vienna_testbed(config)
    result = runtime.run_app(lambda: run_matmul(
        MatmulConfig(n=256, nr_nodes=nodes, real_compute=False)))
    stats = runtime.transport.stats
    return {
        "elapsed": result.elapsed,
        "now": runtime.world.kernel.now(),
        "messages": stats.messages,
        "bytes_total": stats.bytes_total,
        "by_kind": dict(stats.by_kind),
    }


@pytest.mark.parametrize("reliable", [False, True],
                         ids=["fire-once", "reliable"])
def test_golden_script_traced_is_untraced(reliable):
    traced, _ = golden_run(True, reliable)
    untraced, _ = golden_run(False, reliable)
    assert traced == untraced


@pytest.mark.parametrize("profile, nodes, seed", [
    ("night", 8, 7),
    ("day", 13, 3),
    ("night", 4, 11),
])
def test_matmul_traced_is_untraced(profile, nodes, seed):
    assert matmul_run(True, profile, nodes, seed) == \
        matmul_run(False, profile, nodes, seed)
