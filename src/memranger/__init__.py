"""memranger: deterministic simulator for per-driver kernel memory isolation.

Replays driver lifecycle and memory access traces against per-driver
translation contexts, redirects illegal accesses to a decoy frame, grants
owner accesses on shared pages for a single stepped instruction, and checks
the whole attribute state against a brute-force oracle.
"""

from .address_space import (
    FrameStore,
    GPA_LIMIT,
    PAGE_SIZE,
    join_gpa,
    pages_covering,
    split_gpa,
)
from .dispatcher import VcpuState, execute_access, switch_ept
from .ept_model import NONE, RW, RWX, Ept, EptEntry
from .errors import (
    PolicyLivelockError,
    SimulationError,
    TraceParseError,
)
from .kernel_sim import (
    AccessEvent,
    Alloc,
    CostModel,
    CreateProcess,
    DstRef,
    ExitProcess,
    Free,
    LoadDriver,
    RunReport,
    Schedule,
    SimConfig,
    Simulation,
    UnloadDriver,
    gen_benchmark_trace,
    gen_demo1_trace,
    gen_privesc_trace,
    gen_random_trace,
    parse_trace,
    run_trace,
    serialize_trace,
)
from .policy_map import MapState
from .reference_oracle import OracleChecker, rebuild, snapshot_from_map
from .report_cli import main, verify_run

__version__ = "0.1.0"

__all__ = [
    "AccessEvent",
    "Alloc",
    "CostModel",
    "CreateProcess",
    "DstRef",
    "Ept",
    "EptEntry",
    "ExitProcess",
    "FrameStore",
    "Free",
    "GPA_LIMIT",
    "LoadDriver",
    "MapState",
    "NONE",
    "OracleChecker",
    "PAGE_SIZE",
    "PolicyLivelockError",
    "RW",
    "RWX",
    "RunReport",
    "Schedule",
    "SimConfig",
    "Simulation",
    "SimulationError",
    "TraceParseError",
    "UnloadDriver",
    "VcpuState",
    "execute_access",
    "gen_benchmark_trace",
    "gen_demo1_trace",
    "gen_privesc_trace",
    "gen_random_trace",
    "join_gpa",
    "main",
    "pages_covering",
    "parse_trace",
    "rebuild",
    "run_trace",
    "serialize_trace",
    "snapshot_from_map",
    "split_gpa",
    "switch_ept",
    "verify_run",
]
