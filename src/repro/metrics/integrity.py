"""Integrity observability: what the checksum machinery caught and fixed.

The headline invariant of the integrity subsystem — no injected corruption
reaches analysis output silently — is only auditable if every detection
and repair is counted.  :class:`IntegritySummary` is that ledger: replica
corruptions injected vs detected vs repaired, scrub coverage, stale
metadata entries rebuilt, and the overhead of driver restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .reporting import format_kv

__all__ = ["IntegritySummary"]


@dataclass(frozen=True)
class IntegritySummary:
    """Aggregated integrity activity of one run.

    Attributes:
        corruptions_injected: replica corruptions the fault plan applied.
        corruptions_detected: checksum mismatches noticed (read path +
            scrub).  Can exceed injections: a rotten remote replica may be
            detected by a read's failover and again by the scrub that
            finally repairs it.
        corruptions_repaired: replicas restored from a verified-good copy;
            one per injected corruption when the run completes.
        scrubbed_replicas: replicas the scrubber re-checksummed.
        scrub_bytes: bytes the scrubber read while verifying.
        stale_entries: metadata entries the plan diverged from their blocks.
        rebuilt_blocks: entries quarantined and rebuilt by validation.
        driver_restarts: mid-job driver deaths survived (the interrupted
            blocks rerun; completed outputs are kept).
        resume_wasted_seconds: in-flight work lost to those restarts.
    """

    corruptions_injected: int = 0
    corruptions_detected: int = 0
    corruptions_repaired: int = 0
    scrubbed_replicas: int = 0
    scrub_bytes: int = 0
    stale_entries: int = 0
    rebuilt_blocks: int = 0
    driver_restarts: int = 0
    resume_wasted_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "corruptions_injected",
            "corruptions_detected",
            "corruptions_repaired",
            "scrubbed_replicas",
            "scrub_bytes",
            "stale_entries",
            "rebuilt_blocks",
            "driver_restarts",
            "resume_wasted_seconds",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    # -- derived ------------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """Whether the run saw no integrity activity at all."""
        return self == IntegritySummary()

    @property
    def fully_repaired(self) -> bool:
        """Every injected corruption was repaired and all staleness rebuilt."""
        return (
            self.corruptions_repaired >= self.corruptions_injected
            and self.rebuilt_blocks >= self.stale_entries
        )

    # -- rendering ----------------------------------------------------------------

    def format(self) -> str:
        """Human-readable integrity report."""
        return format_kv(
            {
                "corruptions injected": self.corruptions_injected,
                "corruptions detected": self.corruptions_detected,
                "corruptions repaired": self.corruptions_repaired,
                "replicas scrubbed": self.scrubbed_replicas,
                "scrub bytes": self.scrub_bytes,
                "stale metadata entries": self.stale_entries,
                "metadata blocks rebuilt": self.rebuilt_blocks,
                "driver restarts": self.driver_restarts,
                "resume wasted work (s)": self.resume_wasted_seconds,
            },
            title="Integrity summary",
        )
