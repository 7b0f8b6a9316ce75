"""Seeded unordered-writers race (symsan runtime fixture).

``BuggyTable`` mimics ``ObjectHolder``'s instrumented store path: two
processes store into the same table cell and nothing orders the two
stores — no future, channel, semaphore or join between them.  The kernel
runs them one after the other, but on the paper's JVMs they would run
at once, and symsan's happens-before detector reports the pair.
"""

from __future__ import annotations

from repro.kernel import VirtualKernel


class BuggyTable:
    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.objects: dict[str, str] = {}

    def store(self, key: str, value: str) -> None:
        san = self.kernel.sanitizer
        if san.enabled:
            san.access("BuggyTable", f"objects[{key}]", scope=self.kernel)
        self.objects[key] = value


def main() -> None:
    kernel = VirtualKernel()
    table = BuggyTable(kernel)

    def writer(tag: str) -> None:
        for _ in range(5):
            table.store("shared", tag)
            kernel.sleep(0.1)

    def root() -> None:
        a = kernel.spawn(writer, "a", name="writer-a")
        b = kernel.spawn(writer, "b", name="writer-b")
        a.join()
        b.join()

    try:
        kernel.run_callable(root)
    finally:
        kernel.shutdown()


if __name__ == "__main__":  # pragma: no cover
    main()
