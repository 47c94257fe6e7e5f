"""repro.fabric: the fault-tolerant distributed campaign fabric.

Socket workers -- remote ``repro worker --listen HOST:PORT`` daemons,
or the loopback workers :func:`local_workers` forks for ``jobs=N`` --
serve registered job kinds (fault-injection campaign chunks, Kripke
verification builds) to a coordinator that leases work adaptively,
steals from stragglers, tracks every worker through a CONNECTING/
HEALTHY/DEGRADED/DEAD health machine, and merges results keyed by unit
index so the report bytes never depend on scheduling, crashes or
retries.
"""

from repro.fabric.coordinator import (
    FabricConfig,
    FabricCoordinator,
    FabricError,
    FabricMismatch,
    ShardFailure,
    parse_workers,
)
from repro.fabric.frames import FrameError, MAX_FRAME, encode_frame, read_frame
from repro.fabric.health import WorkerHealth, WorkerState, state_census
from repro.fabric.jobs import JobKind, get_job, register_job
from repro.fabric.local import local_workers
from repro.fabric.scheduler import WorkStealingScheduler
from repro.fabric.worker import PROTOCOL_VERSION, WorkerServer, serve

__all__ = [
    "FabricConfig",
    "FabricCoordinator",
    "FabricError",
    "FabricMismatch",
    "FrameError",
    "JobKind",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ShardFailure",
    "WorkStealingScheduler",
    "WorkerHealth",
    "WorkerServer",
    "WorkerState",
    "encode_frame",
    "get_job",
    "local_workers",
    "parse_workers",
    "read_frame",
    "register_job",
    "serve",
    "state_census",
]
