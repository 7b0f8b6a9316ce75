"""Standalone racy script for the ``python -m repro san`` CLI test.

Self-contained (no fixture imports — ``runpy`` executes it as
``__main__``): two processes store into one table cell with nothing
ordering the stores, which the ambient sanitizer installed by the CLI
reports as ``san-race``.
"""

from __future__ import annotations

from repro.kernel import VirtualKernel


def main() -> None:
    kernel = VirtualKernel()
    table: dict[str, str] = {}

    def store(tag: str) -> None:
        san = kernel.sanitizer
        for _ in range(5):
            if san.enabled:
                san.access("CliTable", "objects[shared]", scope=kernel)
            table["shared"] = tag
            kernel.sleep(0.1)

    def root() -> None:
        a = kernel.spawn(store, "a", name="writer-a")
        b = kernel.spawn(store, "b", name="writer-b")
        a.join()
        b.join()

    try:
        kernel.run_callable(root)
    finally:
        kernel.shutdown()


if __name__ == "__main__":
    main()
