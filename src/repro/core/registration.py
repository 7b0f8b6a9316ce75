"""``JSRegistration`` (paper Section 4.1) and the per-application pool.

Every JavaSymphony application first registers with the JRS::

    reg = JSRegistration()
    ...
    reg.unregister()

Registration creates the application's AppOA on its home node and swaps
the ambient resource pool for an :class:`AppPool`, which transparently
registers VA watches with the home PubOA whenever the application
allocates architecture components *with constraints* — that is what feeds
the automatic-migration machinery (paper Section 5.2: "The PubOA stores
all virtual architectures generated by any JSA on the local node" and
re-checks their constraints periodically).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro import context
from repro.agents import messages as M
from repro.agents.app_oa import AppOA
from repro.constraints import JSConstraints
from repro.errors import RegistrationError
from repro.transport import Addr


class AppPool:
    """Delegating pool that ties constrained allocations to VA watches."""

    def __init__(self, runtime: Any, app: AppOA) -> None:
        self._runtime = runtime
        self._app = app
        self._base = runtime.pool

    def acquire(
        self,
        count: int = 1,
        constraints: JSConstraints | None = None,
        exclude: Iterable[str] = (),
        name: str | None = None,
    ) -> list[str]:
        hosts = self._base.acquire(
            count, constraints=constraints, exclude=exclude, name=name
        )
        if constraints is not None and len(constraints) > 0:
            self._register_watch(hosts, constraints)
        return hosts

    def acquire_grouped(
        self,
        counts: list[int],
        constraints: JSConstraints | None = None,
        exclude: Iterable[str] = (),
    ) -> list[list[str]]:
        groups = self._base.acquire_grouped(
            counts, constraints=constraints, exclude=exclude
        )
        if constraints is not None and len(constraints) > 0:
            self._register_watch(
                [h for group in groups for h in group], constraints
            )
        return groups

    def acquire_shaped(
        self,
        shape: list[list[int]],
        constraints: JSConstraints | None = None,
    ) -> list[list[list[str]]]:
        sites = self._base.acquire_shaped(shape, constraints=constraints)
        if constraints is not None and len(constraints) > 0:
            self._register_watch(
                [h for site in sites for cl in site for h in cl],
                constraints,
            )
        return sites

    def _register_watch(
        self, hosts: list[str], constraints: JSConstraints
    ) -> None:
        app = self._app
        if app.closed:
            return
        watch_id = self._runtime.ids.next(f"{app.app_id}:watch")
        app.request(Addr(app.home, "oa"), M.REGISTER_VA,
                    (watch_id, list(hosts), constraints, app.addr))
        app.watch_ids.append(watch_id)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)


class JSRegistration:
    def __init__(
        self,
        runtime: Any = None,
        node: str | None = None,
    ) -> None:
        env = context.current()
        if runtime is None:
            if env is None or env.runtime is None:
                raise RegistrationError(
                    "JSRegistration needs a runtime: run inside "
                    "JSRuntime.run_app() or pass runtime= explicitly"
                )
            runtime = env.runtime
        home = node
        if home is None and env is not None:
            home = env.extras.get("home")
        self.runtime = runtime
        self.app: AppOA = runtime.register_app(home)
        self._env = env
        if env is not None:
            if env.app is not None:
                raise RegistrationError(
                    "an application is already registered in this context"
                )
            env.app = self.app
            env.pool = AppPool(runtime, self.app)

    @property
    def app_id(self) -> str:
        return self.app.app_id

    @property
    def home_node(self) -> str:
        return self.app.home

    def unregister(self) -> None:
        """Release all objects and book-keeping (paper Section 4.1)."""
        if self.app.closed:
            raise RegistrationError("already unregistered")
        self.app.unregister()
        if self._env is not None:
            self._env.app = None
            self._env.pool = self.runtime.pool
