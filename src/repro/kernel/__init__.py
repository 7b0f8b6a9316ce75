"""The execution kernel: cooperative processes in virtual time.

See :mod:`repro.kernel.virtual` for how one baton keeps every run
deterministic.
"""

from repro.kernel.rng import RngStreams
from repro.kernel.virtual import ProcessState, VirtualKernel

__all__ = [
    "ProcessState",
    "RngStreams",
    "VirtualKernel",
]
