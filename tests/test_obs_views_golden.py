"""Every obs view's output on two fixed CLI runs, pinned.

``repro trace``, ``spans``, ``top``, ``metrics`` and ``incidents`` render
one run each; every stdout and every file they write is pinned by its
sha256 plus a readable head (the first lines, each cut at 60
characters), in the style of ``test_topology_routes.py``.  A refactor of
``repro.obs`` must reproduce every byte, not re-pin.  The runs write
into a temporary working directory under relative names, because the
``wrote N ... to PATH`` lines echo the path.
"""

import contextlib
import hashlib
import io
import os

import pytest

from repro.cli import main

RUNS = {
    "trace": ["trace", "matmul", "--n", "32", "--nodes", "3",
              "--json", "trace.json"],
    "spans": ["spans", "matmul", "--n", "32", "--nodes", "3",
              "--critical-path", "--json", "spans.json"],
    "top": ["top", "matmul", "--n", "32", "--nodes", "3"],
    "metrics": ["metrics", "matmul", "--n", "32", "--nodes", "4",
                "--kill", "greta@0.1", "--incident-dir", "D",
                "--json", "M", "--prom"],
    "incidents": ["incidents", "D"],
}

FILES = ("trace.json", "spans.json", "M", "D/inc-0001-host-failed.json",
         "D/inc-0002-rpc-timeout.json")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> text: each run's stdout (``<verb>.out``) and every file."""
    workdir = tmp_path_factory.mktemp("obs-views")
    cwd = os.getcwd()
    os.chdir(workdir)
    out: dict[str, str] = {}
    try:
        for verb, argv in RUNS.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0
            out[f"{verb}.out"] = stdout.getvalue()
        for name in FILES:
            with open(name, encoding="utf-8") as fh:
                out[name] = fh.read()
    finally:
        os.chdir(cwd)
    return out


def head(text, lines=3):
    return [line[:60] for line in text.splitlines()[:lines]]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


PINS = {
    "D/inc-0001-host-failed.json": (
        [
            "{",
            ' "incident_id": "inc-0001-host-failed",',
            ' "trigger": "host.failed",',
        ],
        "d25dcad1a120ee6a02472bd208a54d947175766f785be5607204c0eeea960eb8",
    ),
    "D/inc-0002-rpc-timeout.json": (
        [
            "{",
            ' "incident_id": "inc-0002-rpc-timeout",',
            ' "trigger": "rpc.timeout",',
        ],
        "4d3212c215c7897fc0eacfdff8bc677cb5801c269a9aa712a6f850408f10cc18",
    ),
    "M": (
        [
            "{",
            ' "merged": {',
            '  "counters": {',
        ],
        "2fa13f2644d03d3f0ac1538e328258039802a563716251727afda67fbbb51195",
    ),
    "incidents.out": (
        [
            "incident inc-0001-host-failed  trigger=host.failed  t=0.100",
            "  context: host=greta  host_failed=True",
            "  failed hosts: greta",
        ],
        "367a2364291802cf0c95d9dbd69c3c176ef924d82c2ef26115d7aaeec3051c8c",
    ),
    "metrics.out": (
        [
            "# TYPE repro_compute_flops_total counter",
            'repro_compute_flops_total{variant="anton"} 4440956',
            'repro_compute_flops_total{variant="bruno"} 4440956',
        ],
        "5ebb622229cbfc5e7d8f97a6041b51736534339b21ab39ab0ff8530cb929164d",
    ),
    "spans.json": (
        [
            "{",
            ' "trace_id": "t1",',
            ' "trace_count": 1,',
        ],
        "1467c2d3ff9f4fd7a4f6fa03e898d73866978997c6e657cece56e36d048c3aa6",
    ),
    "spans.out": (
        [
            "trace t1: 285 spans",
            "  app jsa  t=0.000 +142.192ms [milena]",
            "    classload  t=0.000 +12.861ms [milena]",
        ],
        "cf634941af916d8fd883cf6ce0c5badbd45b300497f6d76d4c601d1b5690b414",
    ),
    "top.out": (
        [
            "js-top  t=0.02s  window 0.02s  13 nodes  11 open spans  121 ",
            "+---------+-------+--------+-----------+--------+--------+--",
            "|    node |  idle | js cpu | js mem MB | rpc tx | rpc rx | i",
        ],
        "73c3d67ccbcf2a96ba6bf7a256ec7abb1ef33da2b019555cb22f3f1d361cc18f",
    ),
    "trace.json": (
        [
            '{"traceEvents": [{"name": "process_name", "ph": "M", "pid": ',
        ],
        "e54c4d3186662cf0d951fbed7ec5634104f768bbb633f7122bea901acef89098",
    ),
    "trace.out": (
        [
            "wrote 394 events to trace.json",
            "trace: 394 events over 142.192ms simulated",
            "RPC traffic by kind",
        ],
        "144587fddd4c0b0ff456046b3bb89e3eb1c5ca863a3b5880eabb256ad615e24b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_is_pinned(outputs, name):
    expected_head, expected_digest = PINS[name]
    text = outputs[name]
    assert head(text) == expected_head
    assert digest(text) == expected_digest
