"""Ambient runtime context.

The paper's API creates objects with bare constructors (``new Node()``,
``new JSObj(...)``) that implicitly talk to "the" JRS.  In Python we keep
that ergonomic surface by maintaining a context stack: entering a runtime
(:meth:`repro.cluster.builder.JSRuntime.run_app`) pushes an environment
that bare constructors resolve against.  Everything also accepts explicit
keyword arguments for multi-runtime tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import JSError


@dataclass
class Environment:
    """What the bare-constructor API needs to find implicitly."""

    pool: Any = None          # varch.pool.ResourcePool
    runtime: Any = None       # cluster.builder.JSRuntime
    app: Any = None           # agents.app_oa.AppOA of the current app
    extras: dict = field(default_factory=dict)


class _Stack(threading.local):
    """The calling thread's environment frames, innermost last."""

    def __init__(self) -> None:
        self.frames: list[Environment] = []


_stack = _Stack()


def _frames() -> list[Environment]:
    return _stack.frames


def swap_frames(frames: list[Environment]) -> list[Environment]:
    """Install ``frames`` as the calling thread's stack and return the
    stack it replaces.  The virtual kernel gives a request handler it runs
    on its waiting caller's thread a stack of its own this way."""
    previous = _stack.frames
    _stack.frames = frames
    return previous


def push(env: Environment) -> None:
    _frames().append(env)


def pop() -> Environment:
    frames = _frames()
    if not frames:
        raise JSError("context stack underflow")
    return frames.pop()


def current() -> Environment | None:
    frames = _frames()
    return frames[-1] if frames else None


def require() -> Environment:
    env = current()
    if env is None:
        raise JSError(
            "no PySymphony context: run inside JSRuntime.run_app() or pass "
            "explicit pool=/runtime= arguments"
        )
    return env


def require_pool() -> Any:
    env = require()
    if env.pool is None:
        raise JSError("current context has no resource pool")
    return env.pool


def require_app() -> Any:
    env = require()
    if env.app is None:
        raise JSError(
            "current context has no registered application; create a "
            "JSRegistration first"
        )
    return env.app


class scoped:
    """``with scoped(env): ...`` — push/pop an environment."""

    def __init__(self, env: Environment) -> None:
        self._env = env

    def __enter__(self) -> Environment:
        push(self._env)
        return self._env

    def __exit__(self, *exc_info: Any) -> None:
        pop()
