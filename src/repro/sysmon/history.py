"""Bounded sample history.

The paper: "Storage size for these data is kept reasonably small as only
the least recently measured data are kept.  Currently we do not maintain a
history of measurements, although, it would be easy to support it."  We
keep the last :data:`DEPTH` samples — the "easy to support" extension,
implemented.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.sysmon.sampler import Snapshot


@dataclass(frozen=True)
class TimedSample:
    time: float
    params: Snapshot


#: samples each history keeps, newest last
DEPTH = 4


class SampleHistory:
    def __init__(self) -> None:
        self._samples: deque[TimedSample] = deque(maxlen=DEPTH)

    def record(self, time: float, params: Snapshot) -> None:
        if self._samples and time < self._samples[-1].time:
            raise ValueError("samples must be recorded in time order")
        self._samples.append(TimedSample(time, dict(params)))

    @property
    def latest(self) -> TimedSample | None:
        return self._samples[-1] if self._samples else None

    def latest_value(self, param: Any) -> Any:
        sample = self.latest
        if sample is None:
            raise LookupError("no samples recorded yet")
        return sample.params[param]

    def window(self) -> list[TimedSample]:
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)
