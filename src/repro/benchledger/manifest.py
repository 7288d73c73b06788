"""Run manifests: the provenance that decides whether two runs compare.

A manifest is the environment-level slice of a benchmark record's
``run`` block (git SHA, hostname, python, platform — already emitted by
:func:`repro.benchio.run_metadata`) plus an optional free-form
``config`` block describing *how* the run was produced (CLI flags,
pytest session, …).  Timestamps are deliberately excluded: two runs a
minute apart on the same checkout and machine are the *same*
experimental setup and must hash identically, which is what makes the
manifest hash usable inside deterministic run ids
(:mod:`repro.benchledger.run_id`).

Comparability is stricter than hash equality is loose: runs *compare*
when host, python, and platform match (wall-clock seconds measured on
different machines or interpreters are not the same experiment), even
if they came from different commits — that cross-commit, same-machine
comparison is exactly what a regression gate wants.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.benchledger.schema import MANIFEST_SPEC
from repro.fieldspec import check_at

#: Manifest fields that must match for wall-clock statistics from two
#: runs to be meaningfully compared.  The git SHA is deliberately *not*
#: here: comparing across commits is the entire point of a trajectory.
COMPARABILITY_FIELDS = ("hostname", "python", "platform")


@dataclass(frozen=True)
class Manifest:
    """Environment + config provenance for one benchmark run."""

    git_sha: str
    hostname: str
    python: str
    platform: str
    config: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_record(
        cls, record: Mapping[str, object],
        config: Mapping[str, object] | None = None,
    ) -> "Manifest":
        """Build from a ``repro/bench-v1`` record's ``run`` block."""
        run = record.get("run")
        check_at("run", MANIFEST_SPEC, run)
        return cls(
            git_sha=str(run["git_sha"]),
            hostname=str(run["hostname"]),
            python=str(run["python"]),
            platform=str(run["platform"]),
            config=dict(config or {}),
        )

    @classmethod
    def from_mapping(cls, payload: Mapping[str, object]) -> "Manifest":
        """Rebuild from a ledger entry's ``manifest`` object."""
        return cls(
            git_sha=str(payload["git_sha"]),
            hostname=str(payload["hostname"]),
            python=str(payload["python"]),
            platform=str(payload["platform"]),
            config=dict(payload.get("config", {})),  # type: ignore[arg-type]
        )

    def to_mapping(self) -> Dict[str, object]:
        return {
            "git_sha": self.git_sha,
            "hostname": self.hostname,
            "python": self.python,
            "platform": self.platform,
            "config": dict(self.config),
        }

    def hash(self) -> str:
        """Hex digest over the canonical-JSON manifest (timestamp-free)."""
        canonical = json.dumps(
            self.to_mapping(), sort_keys=True, separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def comparability(
    base: Manifest, current: Manifest
) -> Tuple[bool, List[str]]:
    """Whether wall-clock stats from two manifests may be compared.

    Returns ``(comparable, mismatches)`` where ``mismatches`` names each
    differing field, e.g. ``["hostname: ci-runner-4 != devbox"]``.
    Dimensionless ratio metrics (speedups, overheads) stay comparable
    across machines regardless — the *gates* make that distinction
    (:mod:`repro.benchledger.gates`), not this function.
    """
    mismatches = [
        f"{name}: {getattr(base, name)} != {getattr(current, name)}"
        for name in COMPARABILITY_FIELDS
        if getattr(base, name) != getattr(current, name)
    ]
    return (not mismatches, mismatches)


__all__ = ["COMPARABILITY_FIELDS", "Manifest", "comparability"]
