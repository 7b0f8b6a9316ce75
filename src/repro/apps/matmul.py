"""Master/slave matrix multiplication — the paper's evaluation program.

This is a faithful transcription of Figure 6: register with JRS, allocate
a cluster, load the codebase onto it, replicate matrix B to every node by
one-sided invocation of ``init``, then hand out row-block tasks of A via
asynchronous invocation of ``multiply``, polling handles and merging
results into C until all tasks are processed.

Two compute modes share the same code path:

* ``real_compute=True`` — small matrices are actually multiplied
  (float32, matching Java's ``float``) and the product is verified;
* ``real_compute=False`` — "nominal" mode for paper-scale problem sizes:
  tasks carry :class:`~repro.util.serialization.Payload` sizes and the
  ``@js_compute`` cost (2·rows·N² flops) drives the virtual clock, so an
  N=2000 run needs no gigaflops of host work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.agents.objects import js_compute, jsclass
from repro.core.codebase import JSCodebase
from repro.core.jsobj import JSObj
from repro.core.registration import JSRegistration
from repro.errors import JSError
from repro.rmi.multi import minvoke
from repro.util.serialization import Payload, unwrap
from repro.varch.cluster import Cluster

#: Java float is 4 bytes; all wire-size accounting uses float32.
FLOAT_BYTES = 4


@dataclass
class TaskData:
    """One task: a block of ``n_rows`` rows of A starting at ``row_start``."""

    row_start: int
    n_rows: int
    n_cols: int
    rows: np.ndarray | None  # None in nominal mode

    @property
    def nbytes(self) -> int:
        return self.n_rows * self.n_cols * FLOAT_BYTES


@dataclass
class ResultData:
    """The corresponding block of C."""

    row_start: int
    n_rows: int
    n_cols: int
    rows: np.ndarray | None


@jsclass
class Matrix:
    """The slave object: holds the replicated B, multiplies row blocks."""

    def __init__(self) -> None:
        self.dim_inner = 0
        self.dim_out = 0
        self.B: np.ndarray | None = None
        self.__js_nbytes__ = 1024  # nominal footprint before init

    @js_compute(lambda self, dim_inner, dim_out, B: dim_inner * dim_out * 0.5)
    def init(self, dim_inner: int, dim_out: int, B: Any) -> None:
        """Install the replicated matrix B (paper: ``oinvoke("init", paramB)``)."""
        self.dim_inner = int(dim_inner)
        self.dim_out = int(dim_out)
        self.B = B
        # Nominal memory footprint: B dominates the object state.
        self.__js_nbytes__ = dim_inner * dim_out * FLOAT_BYTES

    @js_compute(
        lambda self, task: 2.0 * task.n_rows * self.dim_inner * self.dim_out
    )
    def multiply(self, task: TaskData) -> Any:
        """Multiply a block of A rows with B; returns the C block."""
        if self.dim_inner == 0:
            raise JSError("multiply before init: B not replicated yet")
        if task.rows is not None:
            if self.B is None:
                raise JSError("real task but nominal B")
            out = task.rows @ self.B
            return ResultData(task.row_start, task.n_rows, self.dim_out, out)
        result = ResultData(task.row_start, task.n_rows, self.dim_out, None)
        return Payload(
            data=result, nbytes=task.n_rows * self.dim_out * FLOAT_BYTES
        )


@dataclass
class MatmulConfig:
    n: int = 200                      # square problem: A, B, C are n x n
    nr_nodes: int = 4
    rows_per_task: int = 0            # 0 -> ceil(n / (4 * nr_nodes))
    real_compute: bool = True
    poll_interval: float = 0.01       # master's handle-polling period
    seed: int = 7
    constraints: Any = None           # optional JSConstraints for the cluster

    def resolved_rows_per_task(self) -> int:
        """Default granularity: ~250 tasks.  Fine enough that slow nodes
        contribute instead of straggling, coarse enough that per-RMI cost
        stays secondary (it dominates again past ~10 nodes, as the paper
        observed)."""
        if self.rows_per_task > 0:
            return self.rows_per_task
        return max(1, self.n // 250)


@dataclass
class MatmulResult:
    n: int
    nr_nodes: int
    hosts: list[str]
    nr_tasks: int
    elapsed: float                    # virtual seconds, replication included
    correct: bool | None              # None in nominal mode
    tasks_per_host: dict[str, int] = field(default_factory=dict)


def run_matmul(config: MatmulConfig) -> MatmulResult:
    """The Figure 6 master.  Must run inside an application context."""
    from repro import context

    env = context.require()
    kernel = env.runtime.world.kernel

    reg = JSRegistration()
    try:
        cluster = Cluster(config.nr_nodes, constraints=config.constraints)
        codebase = JSCodebase()
        codebase.add(Matrix)
        codebase.load(cluster)

        n = config.n
        if config.real_compute:
            rng = np.random.default_rng(config.seed)
            A = rng.random((n, n), dtype=np.float32)
            B = rng.random((n, n), dtype=np.float32)
            C = np.zeros((n, n), dtype=np.float32)
        else:
            A = B = C = None

        t0 = kernel.now()

        # Replicate B on the entire cluster by one-sided invocation.
        workers: list[JSObj] = []
        hosts: list[str] = []
        for i in range(cluster.nr_nodes()):
            worker = JSObj("Matrix", cluster.get_node(i))
            # Object[] paramB = {dimA2, dimB2, B} — three parameters, with
            # B carrying the (possibly nominal) transfer size.
            param_b = [n, n, Payload(data=B, nbytes=n * n * FLOAT_BYTES)]
            worker.oinvoke("init", param_b)
            workers.append(worker)
            hosts.append(worker.get_node())

        rows_per_task = config.resolved_rows_per_task()
        nr_tasks = -(-n // rows_per_task)  # ceil division, as in Fig. 6

        def make_task(task_idx: int) -> Payload:
            start = task_idx * rows_per_task
            count = min(rows_per_task, n - start)
            rows = A[start:start + count] if A is not None else None
            task = TaskData(start, count, n, rows)
            return Payload(data=task, nbytes=task.nbytes)

        # Fig. 6 WHILE loop: busy nodes poll their handle; free nodes get
        # the next task.
        next_task = 0
        merged = 0
        node_busy = [-1] * len(workers)   # task id or -1, as in the paper
        handles: list[Any] = [None] * len(workers)
        tasks_per_host: dict[str, int] = {h: 0 for h in hosts}

        while merged < nr_tasks:
            progressed = False
            assignments: list[int] = []
            for i, worker in enumerate(workers):
                if node_busy[i] >= 0 and handles[i].is_ready():
                    result = unwrap(handles[i].get_result())
                    if C is not None and result.rows is not None:
                        C[result.row_start:result.row_start
                          + result.n_rows] = result.rows
                    merged += 1
                    node_busy[i] = -1
                    handles[i] = None
                    progressed = True
                if node_busy[i] < 0 and next_task < nr_tasks:
                    assignments.append(i)
                    node_busy[i] = next_task
                    tasks_per_host[hosts[i]] += 1
                    next_task += 1
            if assignments:
                # Hand the round's tasks out as one bulk RMI: workers
                # on the same host share a single INVOKE_BATCH message.
                batch = minvoke([
                    (workers[i], "multiply", [make_task(node_busy[i])])
                    for i in assignments
                ])
                for i, handle in zip(assignments, batch.handles):
                    handles[i] = handle
                progressed = True
            if not progressed:
                kernel.sleep(config.poll_interval)

        elapsed = kernel.now() - t0

        correct: bool | None = None
        if config.real_compute:
            correct = bool(np.allclose(C, A @ B, rtol=1e-3, atol=1e-3))

        return MatmulResult(
            n=n,
            nr_nodes=config.nr_nodes,
            hosts=hosts,
            nr_tasks=nr_tasks,
            elapsed=elapsed,
            correct=correct,
            tasks_per_host=tasks_per_host,
        )
    finally:
        reg.unregister()


def sequential_matmul_time(world, host: str, n: int) -> float:
    """The paper's 1-node baseline: a plain sequential multiplication on
    ``host`` without JavaSymphony (no JRS, no RMI).  Returns virtual
    seconds."""

    def main() -> float:
        t0 = world.kernel.now()
        world.compute(host, 2.0 * n * n * n)
        return world.kernel.now() - t0

    proc = world.kernel.spawn(main, name=f"seq-matmul@{host}")
    world.kernel.run(main=proc)
    return proc.result()


def fig5_elapsed(runtime, n: int, nodes: int) -> float:
    """Virtual seconds of one Figure-5 point on ``runtime``, a fresh
    testbed: the sequential baseline for ``nodes == 1``, the nominal
    Figure 6 master otherwise.  The point owns the testbed: its kernel
    is shut down once the time has been read, so its workers go back to
    the pool for the next point."""
    try:
        if nodes == 1:
            return sequential_matmul_time(runtime.world, "milena", n)
        return runtime.run_app(
            run_matmul, MatmulConfig(n=n, nr_nodes=nodes, real_compute=False)
        ).elapsed
    finally:
        runtime.kernel.shutdown()
