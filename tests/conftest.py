"""Shared fixtures: registered test classes and testbed factories.

Set ``REPRO_SAN=1`` to run the whole suite under the symsan concurrency
sanitizer: every kernel created during a test binds a shared sanitizer,
and any finding (race, all-blocked hang) fails the run at session end.
``REPRO_SAN_REPORT=<path>`` additionally writes the symsan JSON report
there (CI uploads it as an artifact).
"""

import glob
import os

import pytest

import repro
from repro.agents.objects import js_compute, jsclass
from repro.analysis.runner import analyze_project, load_project
from repro.cluster import TestbedConfig, vienna_testbed
from repro.kernel.virtual import shutdown_all_kernels

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SAN_ENABLED = os.environ.get("REPRO_SAN", "") not in ("", "0")
_SESSION_SANITIZER = None


def pytest_configure(config):
    global _SESSION_SANITIZER
    if _SAN_ENABLED:
        from repro.sanitizer import Sanitizer, set_sanitizer

        # leaks stay off suite-wide: agent mailbox loops legitimately park
        # on channel gets, and tests tear worlds down mid-flight.
        _SESSION_SANITIZER = Sanitizer(leaks=False)
        set_sanitizer(_SESSION_SANITIZER)


def pytest_unconfigure(config):
    if _SESSION_SANITIZER is None:
        return
    from repro.analysis.runner import render_json
    from repro.sanitizer import set_sanitizer

    set_sanitizer(None)
    report = _SESSION_SANITIZER.report()
    report_path = os.environ.get("REPRO_SAN_REPORT")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(render_json(report))
    if report.findings:
        lines = "\n".join(
            f"  {f.path}:{f.line}: {f.rule}: {f.message}"
            for f in report.findings
        )
        raise pytest.UsageError(
            f"symsan found {len(report.findings)} concurrency "
            f"finding(s) during the sanitized run:\n{lines}"
        )


@pytest.fixture(autouse=True)
def _sweep_leaked_kernels():
    """Each finished simulation parks its daemon threads forever; sweep
    them after every test so the suite doesn't accumulate thousands of
    threads."""
    yield
    shutdown_all_kernels()
    if _SESSION_SANITIZER is not None:
        # Tests build independent worlds but reuse deterministic object
        # ids (and the OS recycles thread idents), so access history must
        # not leak from one test into the next.
        _SESSION_SANITIZER.reset_context()


@jsclass
class Counter:
    """Simple stateful test object."""

    def __init__(self, start: int = 0) -> None:
        self.value = int(start)

    def incr(self, by: int = 1) -> int:
        self.value += by
        return self.value

    def get(self) -> int:
        return self.value

    def boom(self) -> None:
        raise ValueError("intentional failure")


@jsclass
class Echo:
    def echo(self, value):
        return value

    def mutate(self, data):
        data["mutated"] = True
        return data


class Odd(Exception):
    """Pickles as ``Odd("1/2")``, which its ``__init__`` refuses: an
    argument that crosses ``send`` but not delivery."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


@jsclass
class Spinner:
    """Object whose method takes modelled compute time."""

    @js_compute(lambda self, flops: float(flops))
    def spin(self, flops: float) -> str:
        return "done"


@jsclass
class Linker:
    """Calls another object through a passed handle (first-order refs)."""

    def __init__(self) -> None:
        self.peer = None

    def set_peer(self, peer_ref) -> None:
        self.peer = peer_ref

    def relay_incr(self) -> int:
        # self.peer is an ObjectRef; a holder can invoke through its own
        # agent only via the app in this design, so Linker just returns
        # the ref for the caller to act on (kept simple deliberately).
        return 1


@pytest.fixture(scope="session")
def runtime_project():
    """The runtime package parsed once, as ``load_project`` returns it,
    for the lint gates of every test module that has one."""
    return load_project([PACKAGE_DIR])


@pytest.fixture(scope="session")
def runtime_report(runtime_project):
    """One all-rules analysis of the runtime package for every test that
    reads it (a full pass takes seconds)."""
    return analyze_project(*runtime_project)


@pytest.fixture(scope="session")
def repo_report():
    """One all-rules analysis of the runtime, the examples and the test
    suite for the repo-wide gates.  Fixture directories are excluded:
    they are the seeded-bug corpus and *must* fire.  Only the report
    outlives the pass; the parsed tree is dropped after it."""
    return analyze_project(*load_project(
        [PACKAGE_DIR, os.path.join(REPO_ROOT, "examples")]
        + sorted(glob.glob(os.path.join(REPO_ROOT, "tests", "*.py")))
    ))


@pytest.fixture()
def dedicated_testbed():
    """Fresh zero-load testbed per test (deterministic)."""
    return vienna_testbed(TestbedConfig(load_profile="dedicated", seed=3))


@pytest.fixture()
def night_testbed():
    return vienna_testbed(TestbedConfig(load_profile="night", seed=3))


def run_app(runtime, fn, **kwargs):
    return runtime.run_app(fn, **kwargs)
