"""What migration a node runs: the one argument of ``migrate_tenant``.

Every caller hands a spec to
:meth:`~repro.middleware.node.SlackerNode.migrate_tenant`, so every
method pays the same control-plane costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["MigrationSpec"]

#: Every migration kind; "none" means the experiment migrates nothing.
KINDS = (
    "none",
    "fixed",
    "dynamic",
    "stop-and-copy",
    "dump-reimport",
    "fluid",
    "on-demand",
)


@dataclass(frozen=True)
class MigrationSpec:
    """What migration a node runs and how it is paced ("none": no migration)."""

    #: One of :data:`KINDS`.
    kind: str = "none"
    #: Fixed throttle rate, bytes/second (kind="fixed"; optional for
    #: "stop-and-copy"/"dump-reimport"; for "fluid" instead of a
    #: setpoint; for "on-demand" it meters the background push).
    rate: Optional[float] = None
    #: Latency setpoint of the PID throttle, seconds (kind="dynamic",
    #: or "fluid" instead of a rate).
    setpoint: Optional[float] = None
    #: Override for the 100 %-output rate of the PID throttle.
    max_rate: Optional[float] = None
    #: Number of chunks for kind="fluid" (0 = the fluid module default).
    chunks: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"{self.kind} migration rate must be positive")
        if self.setpoint is not None and self.setpoint <= 0:
            raise ValueError(f"{self.kind} migration setpoint must be positive")
        if self.setpoint is not None and self.kind not in ("dynamic", "fluid"):
            raise ValueError(f"{self.kind} migration takes no setpoint")
        if self.kind == "fixed" and self.rate is None:
            raise ValueError("fixed migration needs a positive rate")
        if self.kind == "dynamic" and self.setpoint is None:
            raise ValueError("dynamic migration needs a positive setpoint")
        if self.kind == "fluid" and (self.rate is None) == (self.setpoint is None):
            raise ValueError("fluid migration needs exactly one of rate or setpoint")
        if self.chunks < 0:
            raise ValueError(f"chunks must be >= 0, got {self.chunks}")

    @classmethod
    def none(cls) -> "MigrationSpec":
        return cls(kind="none")

    @classmethod
    def fixed(cls, rate: float) -> "MigrationSpec":
        return cls(kind="fixed", rate=rate)

    @classmethod
    def dynamic(
        cls, setpoint: float, max_rate: Optional[float] = None
    ) -> "MigrationSpec":
        return cls(kind="dynamic", setpoint=setpoint, max_rate=max_rate)

    @classmethod
    def fluid(
        cls,
        rate: Optional[float] = None,
        chunks: int = 0,
        setpoint: Optional[float] = None,
    ) -> "MigrationSpec":
        return cls(kind="fluid", rate=rate, setpoint=setpoint, chunks=chunks)

    @classmethod
    def on_demand(cls, rate: Optional[float] = None) -> "MigrationSpec":
        return cls(kind="on-demand", rate=rate)
