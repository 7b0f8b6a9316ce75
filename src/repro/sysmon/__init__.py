"""System-parameter monitoring: the vocabulary, samplers, aggregation and
history that the Network Agent System is built on."""

from repro.sysmon.aggregate import (
    MIXED,
    WeightedSnapshot,
    average_snapshots,
    get_param,
)
from repro.sysmon.history import SampleHistory, TimedSample
from repro.sysmon.params import ParamKind, SysParam
from repro.sysmon.sampler import (
    Snapshot,
    pack_snapshot,
    sample_all,
    sample_dynamic,
    sample_static,
    unpack_snapshot,
)

__all__ = [
    "MIXED",
    "WeightedSnapshot",
    "average_snapshots",
    "get_param",
    "SampleHistory",
    "TimedSample",
    "ParamKind",
    "SysParam",
    "Snapshot",
    "pack_snapshot",
    "sample_all",
    "sample_dynamic",
    "sample_static",
    "unpack_snapshot",
]
