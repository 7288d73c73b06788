"""The profiling agent (§4.1) with controllable measurement error.

Tenants submit one representative task per job type; the agent runs a few
mini-batches and reports a speedup vector to the fair-share evaluator.
Real profiling is noisy, so the agent supports a multiplicative error knob
used by the sensitivity experiment (Fig. 10b): each non-reference entry is
scaled by a factor drawn from ``[1 - error_rate, 1 + error_rate]`` (or a
fixed bias when ``deterministic_bias`` is set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.job import Job
from repro.cluster.tenant import Tenant
from repro.exceptions import ValidationError


@dataclass
class ProfilingAgent:
    """Measures (and possibly distorts) tenant speedup profiles."""

    error_rate: float = 0.0
    deterministic_bias: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.error_rate < 0 or self.error_rate >= 1:
            raise ValidationError("error_rate must lie in [0, 1)")
        if self.deterministic_bias is not None and self.deterministic_bias <= -1:
            raise ValidationError("deterministic_bias must be > -1")
        self._rng = np.random.default_rng(self.seed)
        # exact measurements by truth-vector bytes (content, not ``id``)
        self._exact: Dict[bytes, np.ndarray] = {}

    def profile_tenant(
        self,
        tenant: Tenant,
        now: Optional[float] = None,
        active: Optional[List[Job]] = None,
    ) -> Dict[str, np.ndarray]:
        """Measured speedup vector per job type, normalised to slot 0.

        The reference (slowest) GPU type is the normalisation anchor, so
        error applies to the relative entries only — matching how relative
        profiling error manifests in practice.  ``active`` is the tenant's
        ``active_jobs(now)`` when the caller already has it.  Exact
        measurements are read-only and shared; noisy ones are fresh draws.
        """
        exact = self.deterministic_bias is None and self.error_rate == 0
        profiles: Dict[str, np.ndarray] = {}
        for model_name, truth in tenant.true_speedup_profile(now, active).items():
            if exact:
                measured = self._exact.get(truth.tobytes())
                if measured is None:
                    measured = self._exact[truth.tobytes()] = _normalised(truth)
                    measured.setflags(write=False)
                profiles[model_name] = measured
                continue
            measured = truth.copy()
            if self.deterministic_bias is not None:
                factor = 1.0 + self.deterministic_bias
                measured[1:] = measured[1:] * factor
            elif self.error_rate > 0:
                factors = self._rng.uniform(
                    1.0 - self.error_rate, 1.0 + self.error_rate, size=measured.size - 1
                )
                measured[1:] = measured[1:] * factors
            profiles[model_name] = _normalised(measured)
        return profiles


def _normalised(measured: np.ndarray) -> np.ndarray:
    """Renormalise to slot 0 and keep the vector monotone, so downstream
    validation (slowest-type-first ordering) still holds."""
    return np.maximum.accumulate(measured / measured[0])
