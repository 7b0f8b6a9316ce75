"""The system-parameter vocabulary.

JavaSymphony exposed "close to 40" static and dynamic system parameters,
obtained on real Solaris via ``Runtime.exec`` of system commands.  Static
parameters never change while an application runs (machine name, OS, CPU
type, peak performance, ...); dynamic ones do (CPU load, idle %, memory,
context switches, network latency/bandwidth, ...).

Constraints (:mod:`repro.constraints`) and migration decisions are defined
over this vocabulary; ``JSConstants`` in :mod:`repro.core.constants`
re-exports the names in the paper's spelling.
"""

from __future__ import annotations

import enum


class ParamKind(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


class SysParam(enum.Enum):
    # --- static: identity & configuration -------------------------------
    NODE_NAME = ("node_name", ParamKind.STATIC, str)
    IP_ADDRESS = ("ip_address", ParamKind.STATIC, str)
    ARCH_TYPE = ("arch_type", ParamKind.STATIC, str)
    MODEL = ("model", ParamKind.STATIC, str)
    CPU_TYPE = ("cpu_type", ParamKind.STATIC, str)
    CPU_MHZ = ("cpu_mhz", ParamKind.STATIC, float)
    NUM_CPUS = ("num_cpus", ParamKind.STATIC, float)
    PEAK_MFLOPS = ("peak_mflops", ParamKind.STATIC, float)
    TOTAL_MEM = ("total_mem", ParamKind.STATIC, float)          # MB
    TOTAL_SWAP = ("total_swap", ParamKind.STATIC, float)        # MB
    OS_NAME = ("os_name", ParamKind.STATIC, str)
    OS_VERSION = ("os_version", ParamKind.STATIC, str)
    JVM_VERSION = ("jvm_version", ParamKind.STATIC, str)
    NET_IFACE_MBITS = ("net_iface_mbits", ParamKind.STATIC, float)

    # --- dynamic: CPU ----------------------------------------------------
    CPU_LOAD = ("cpu_load", ParamKind.DYNAMIC, float)           # % [0,100]
    CPU_USER_LOAD = ("cpu_user_load", ParamKind.DYNAMIC, float)  # %
    CPU_SYS_LOAD = ("cpu_sys_load", ParamKind.DYNAMIC, float)    # %
    IDLE = ("idle", ParamKind.DYNAMIC, float)                    # %
    LOAD_AVG_1 = ("load_avg_1", ParamKind.DYNAMIC, float)
    LOAD_AVG_5 = ("load_avg_5", ParamKind.DYNAMIC, float)
    LOAD_AVG_15 = ("load_avg_15", ParamKind.DYNAMIC, float)
    RUN_QUEUE_LEN = ("run_queue_len", ParamKind.DYNAMIC, float)

    # --- dynamic: memory ---------------------------------------------------
    AVAIL_MEM = ("avail_mem", ParamKind.DYNAMIC, float)          # MB
    USED_MEM = ("used_mem", ParamKind.DYNAMIC, float)            # MB
    MEM_RATIO = ("mem_ratio", ParamKind.DYNAMIC, float)          # used/total
    AVAIL_SWAP = ("avail_swap", ParamKind.DYNAMIC, float)        # MB
    USED_SWAP = ("used_swap", ParamKind.DYNAMIC, float)          # MB
    SWAP_SPACE_RATIO = ("swap_space_ratio", ParamKind.DYNAMIC, float)

    # --- dynamic: processes & kernel activity ----------------------------
    NUM_PROCESSES = ("num_processes", ParamKind.DYNAMIC, float)
    NUM_THREADS = ("num_threads", ParamKind.DYNAMIC, float)
    NUM_USERS = ("num_users", ParamKind.DYNAMIC, float)
    CONTEXT_SWITCHES = ("context_switches", ParamKind.DYNAMIC, float)  # /s
    SYSTEM_CALLS = ("system_calls", ParamKind.DYNAMIC, float)          # /s
    INTERRUPTS = ("interrupts", ParamKind.DYNAMIC, float)              # /s
    PAGE_FAULTS = ("page_faults", ParamKind.DYNAMIC, float)            # /s
    UPTIME = ("uptime", ParamKind.DYNAMIC, float)                      # s

    # --- dynamic: network ---------------------------------------------------
    NET_LATENCY = ("net_latency", ParamKind.DYNAMIC, float)      # ms
    NET_BANDWIDTH = ("net_bandwidth", ParamKind.DYNAMIC, float)  # Mbit/s
    NET_PACKETS_IN = ("net_packets_in", ParamKind.DYNAMIC, float)
    NET_PACKETS_OUT = ("net_packets_out", ParamKind.DYNAMIC, float)
    NET_BYTES_IN = ("net_bytes_in", ParamKind.DYNAMIC, float)
    NET_BYTES_OUT = ("net_bytes_out", ParamKind.DYNAMIC, float)

    # --- dynamic: disk -----------------------------------------------------
    DISK_FREE = ("disk_free", ParamKind.DYNAMIC, float)          # MB
    DISK_READS = ("disk_reads", ParamKind.DYNAMIC, float)        # /s
    DISK_WRITES = ("disk_writes", ParamKind.DYNAMIC, float)      # /s

    # --- dynamic: PySymphony's own footprint -------------------------------
    JS_OBJECTS = ("js_objects", ParamKind.DYNAMIC, float)
    JS_ACTIVE_TASKS = ("js_active_tasks", ParamKind.DYNAMIC, float)
    JS_CODEBASE_MB = ("js_codebase_mb", ParamKind.DYNAMIC, float)

    #: Snapshots are dicts keyed by member, built and averaged every
    #: monitoring period: hash by identity, in C, not by
    #: ``Enum.__hash__``'s Python-level ``hash(self._name_)``.  Members
    #: are singletons compared by identity, so no lookup changes.
    #: ``ParamKind`` keeps ``Enum``'s hash, so the value lookup that
    #: unpickling a member does is untouched.
    __hash__ = object.__hash__

    def __init__(self, key: str, kind: ParamKind, value_type: type) -> None:
        self.key = key
        self.kind = kind
        self.value_type = value_type

    @property
    def is_static(self) -> bool:
        return self.kind is ParamKind.STATIC

    @property
    def is_numeric(self) -> bool:
        return self.value_type is float

    @classmethod
    def static_params(cls) -> list["SysParam"]:
        return [p for p in cls if p.is_static]

    @classmethod
    def dynamic_params(cls) -> list["SysParam"]:
        return [p for p in cls if not p.is_static]

    @classmethod
    def by_key(cls, key: str) -> "SysParam":
        for param in cls:
            if param.key == key or param.name == key:
                return param
        raise KeyError(f"unknown system parameter {key!r}")


#: sanity: the paper advertises "close to 40" parameters
assert len(SysParam) >= 40, len(SysParam)
