"""Migration engine: throttle, slack model, stop-and-copy, live migration,
and the PID-driven dynamic throttle controller."""

from .controller import ControllerConfig, DynamicThrottleController, LatencyController
from .fluid import (
    ChunkMap,
    ChunkState,
    FluidMigration,
    FluidMigrationResult,
    FluidPhase,
    FluidRouter,
    check_fluid_invariants,
)
from .lease import Lease, LeaseManager, LeaseService
from .live import (
    DeltaRound,
    LiveMigration,
    LiveMigrationResult,
    MigrationAborted,
    MigrationPhase,
)
from .on_demand import (
    OnDemandMigration,
    OnDemandMigrationResult,
    PartialReplicaEngine,
)
from .shared_live import SharedMigrationResult, SharedTenantMigration
from .spec import MigrationSpec
from .slack import AdditiveSlackModel, EmpiricalSlackEstimator, RateLatencySample
from .stop_and_copy import (
    DumpReimportMigration,
    StopAndCopyMigration,
    StopAndCopyResult,
)
from .throttle import Throttle, ThrottleStats

__all__ = [
    "AdditiveSlackModel",
    "ChunkMap",
    "ChunkState",
    "ControllerConfig",
    "DeltaRound",
    "DumpReimportMigration",
    "DynamicThrottleController",
    "EmpiricalSlackEstimator",
    "FluidMigration",
    "FluidMigrationResult",
    "FluidPhase",
    "FluidRouter",
    "LatencyController",
    "check_fluid_invariants",
    "Lease",
    "LeaseManager",
    "LeaseService",
    "LiveMigration",
    "LiveMigrationResult",
    "MigrationAborted",
    "MigrationPhase",
    "MigrationSpec",
    "OnDemandMigration",
    "OnDemandMigrationResult",
    "PartialReplicaEngine",
    "RateLatencySample",
    "SharedMigrationResult",
    "SharedTenantMigration",
    "StopAndCopyMigration",
    "StopAndCopyResult",
    "Throttle",
    "ThrottleStats",
]
