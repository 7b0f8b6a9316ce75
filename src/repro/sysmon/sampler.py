"""Sampling the simulated machines into parameter snapshots.

On real Solaris JavaSymphony shelled out to ``vmstat``/``netstat`` & co;
here the "ground truth" is the :class:`repro.simnet.machine.Machine`.
Kernel-activity counters that the simulator does not model from first
principles (context switches, system calls, ...) are synthesized as
plausible deterministic functions of the machine's load — deterministic
in (host, time) so samples do not depend on who asks first.
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.simnet.machine import Machine
from repro.simnet.topology import Topology
from repro.sysmon.params import SysParam

Snapshot = dict[SysParam, Any]

#: member -> name and back, for a snapshot's wire form
_NAMES: dict[SysParam, str] = {param: param._name_ for param in SysParam}
_MEMBERS: dict[str, SysParam] = dict(SysParam.__members__)


def pack_snapshot(snapshot: Snapshot) -> dict[str, Any]:
    """A snapshot's wire form: the same values, keyed by member name.

    A pickled member unpickles through two ``EnumType.__call__``s (its
    own and its ``ParamKind``'s), so a NAS report would pay ~100 of
    them; names unpickle as plain strings."""
    return dict(zip(map(_NAMES.__getitem__, snapshot), snapshot.values()))


def unpack_snapshot(packed: dict[str, Any]) -> Snapshot:
    """The snapshot :func:`pack_snapshot` packed, in the same order."""
    return dict(zip(map(_MEMBERS.__getitem__, packed), packed.values()))


def _noise(host: str, t: float, tag: str, scale: float = 1.0) -> float:
    """Deterministic pseudo-noise in [-scale/2, +scale/2]."""
    seedbits = zlib.crc32(f"{host}:{tag}:{int(t)}".encode())
    return ((seedbits % 10_000) / 10_000.0 - 0.5) * scale


def sample_static(machine: Machine) -> Snapshot:
    spec = machine.spec
    return {
        SysParam.NODE_NAME: spec.name,
        SysParam.IP_ADDRESS: spec.ip_address,
        SysParam.ARCH_TYPE: spec.arch,
        SysParam.MODEL: spec.model,
        SysParam.CPU_TYPE: spec.cpu_type,
        SysParam.CPU_MHZ: spec.cpu_mhz,
        SysParam.NUM_CPUS: float(spec.num_cpus),
        SysParam.PEAK_MFLOPS: spec.mflops,
        SysParam.TOTAL_MEM: spec.total_mem_mb,
        SysParam.TOTAL_SWAP: spec.total_swap_mb,
        SysParam.OS_NAME: spec.os_name,
        SysParam.OS_VERSION: spec.os_version,
        SysParam.JVM_VERSION: spec.jvm_version,
        SysParam.NET_IFACE_MBITS: spec.net_mbits,
    }


def sample_dynamic(
    machine: Machine, t: float, topology: Topology | None = None
) -> Snapshot:
    spec = machine.spec
    host = spec.name
    bg = machine.background_load(t)
    js_share = min(1.0 - bg, 0.95 * machine.active_tasks)
    total_load = min(1.0, bg + js_share)
    idle = (1.0 - total_load) * 100.0
    # Solaris attributed a slice of busy time to system mode; interactive
    # (day) load is more system-heavy than compute load.
    sys_frac = 0.22 if bg > 0.15 else 0.10
    cpu_sys = total_load * 100.0 * sys_frac
    cpu_user = total_load * 100.0 - cpu_sys

    avail_mem = machine.avail_mem_mb(t)
    used_mem = spec.total_mem_mb - avail_mem
    swap_ratio = machine.swap_ratio(t)
    used_swap = swap_ratio * spec.total_swap_mb

    procs = 60 + 90 * bg + _noise(host, t, "procs", 8)
    cswitch = 120 + 5200 * total_load + _noise(host, t, "cs", 250)
    syscalls = 300 + 9000 * total_load + _noise(host, t, "sc", 500)

    if topology is not None:
        segment = topology.segment_of(host)
        latency_ms = segment.latency_s * 1000.0
        share = 1.0 / (1 + segment.active_transfers) if segment.shared else 1.0
        bandwidth = segment.bandwidth_mbits * topology.efficiency * share
    else:
        latency_ms = 0.5
        bandwidth = spec.net_mbits * 0.7

    counters = machine.counters
    return {
        SysParam.CPU_LOAD: total_load * 100.0,
        SysParam.CPU_USER_LOAD: cpu_user,
        SysParam.CPU_SYS_LOAD: cpu_sys,
        SysParam.IDLE: idle,
        SysParam.LOAD_AVG_1: total_load * spec.num_cpus * 1.4,
        SysParam.LOAD_AVG_5: total_load * spec.num_cpus * 1.2,
        SysParam.LOAD_AVG_15: total_load * spec.num_cpus,
        SysParam.RUN_QUEUE_LEN: max(
            0.0, total_load * 3 + _noise(host, t, "rq", 1)
        ),
        SysParam.AVAIL_MEM: avail_mem,
        SysParam.USED_MEM: used_mem,
        SysParam.MEM_RATIO: used_mem / spec.total_mem_mb,
        SysParam.AVAIL_SWAP: spec.total_swap_mb - used_swap,
        SysParam.USED_SWAP: used_swap,
        SysParam.SWAP_SPACE_RATIO: swap_ratio,
        SysParam.NUM_PROCESSES: max(20.0, procs),
        SysParam.NUM_THREADS: max(40.0, procs * 2.6),
        SysParam.NUM_USERS: 1.0 + round(3 * bg),
        SysParam.CONTEXT_SWITCHES: max(0.0, cswitch),
        SysParam.SYSTEM_CALLS: max(0.0, syscalls),
        SysParam.INTERRUPTS: max(0.0, 90 + 800 * total_load
                                 + _noise(host, t, "intr", 60)),
        SysParam.PAGE_FAULTS: max(
            0.0, 600 * max(0.0, swap_ratio - 0.05)
            + 15 * total_load + _noise(host, t, "pf", 4)
        ),
        SysParam.UPTIME: t,
        SysParam.NET_LATENCY: latency_ms,
        SysParam.NET_BANDWIDTH: bandwidth,
        SysParam.NET_PACKETS_IN: counters.messages_received,
        SysParam.NET_PACKETS_OUT: counters.messages_sent,
        SysParam.NET_BYTES_IN: counters.bytes_received,
        SysParam.NET_BYTES_OUT: counters.bytes_sent,
        SysParam.DISK_FREE: 2000.0 - 0.5 * used_swap,
        SysParam.DISK_READS: max(0.0, 5 + 40 * bg + _noise(host, t, "dr", 4)),
        SysParam.DISK_WRITES: max(0.0, 3 + 25 * bg + _noise(host, t, "dw", 3)),
        SysParam.JS_OBJECTS: float(counters.objects_hosted),
        SysParam.JS_ACTIVE_TASKS: float(machine.active_tasks),
        SysParam.JS_CODEBASE_MB: machine.codebase_mem_mb,
    }


def sample_all(
    machine: Machine, t: float, topology: Topology | None = None
) -> Snapshot:
    snap = sample_static(machine)
    snap.update(sample_dynamic(machine, t, topology))
    return snap
