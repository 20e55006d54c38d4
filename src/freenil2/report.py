"""Structured results for probes, checks, and the verification suite."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a randomized counterexample search."""

    status: str  # "counterexample" | "no_counterexample"
    trials: int
    counterexample: dict | None = None

    def found(self) -> bool:
        return self.status == "counterexample"


@dataclass(frozen=True)
class CheckResult:
    """One named check of the verification suite."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    trials: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "trials": self.trials,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Full outcome of the suite; deterministic for fixed (seed, ranks, trials)."""

    suite_version: str
    rank_min: int
    rank_max: int
    trials: int
    seed: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite_version": self.suite_version,
            "rank_min": self.rank_min,
            "rank_max": self.rank_max,
            "trials": self.trials,
            "seed": self.seed,
            "all_passed": self.all_passed(),
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.name)],
        }
