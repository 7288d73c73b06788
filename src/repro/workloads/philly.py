"""A Philly-like synthetic trace generator (DESIGN.md §2 substitution).

The paper keeps "cluster contention levels consistent with those observed
in Microsoft's Philly trace" (§6.1.2) for the JCT experiment.  The trace
itself is not redistributable here, so this module generates synthetic
populations with the trace's well-known statistical shape (Jeon et al.,
ATC '19):

* job *durations* are heavy-tailed — lognormal, spanning minutes to days;
* *worker counts* are dominated by 1-GPU jobs, with a minority of 2/4/8-
  worker distributed jobs;
* tenant *arrivals* follow a Poisson process over the experiment window;
* a ``contention`` knob scales offered load relative to cluster capacity
  (1.0 = offered GPU-hours roughly equal capacity over the window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.tenant import Tenant
from repro.exceptions import ValidationError
from repro.workloads.generator import TenantGenerator
from repro.workloads.models import PAPER_GPU_TYPES, all_models

# Philly-shaped worker-count distribution (ATC '19, Fig. 2: the vast
# majority of jobs use a single GPU).
_WORKER_CHOICES = np.array([1, 2, 4, 8])
_WORKER_PROBS = np.array([0.75, 0.13, 0.09, 0.03])


@dataclass
class PhillyTraceConfig:
    """Shape parameters of one synthetic trace."""

    num_tenants: int = 50
    jobs_per_tenant_mean: float = 20.0
    window_seconds: float = 3 * 24 * 3600.0  # the paper's three-day run
    duration_median_seconds: float = 2 * 3600.0
    duration_sigma: float = 1.1  # lognormal sigma (heavy tail)
    contention: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ValidationError("num_tenants must be >= 1")
        if self.jobs_per_tenant_mean <= 0:
            raise ValidationError("jobs_per_tenant_mean must be positive")
        if self.window_seconds <= 0 or self.duration_median_seconds <= 0:
            raise ValidationError("durations must be positive")
        if self.contention <= 0:
            raise ValidationError("contention must be positive")


class PhillyTraceGenerator:
    """Generates tenant populations with Philly-shaped load."""

    def __init__(
        self,
        config: Optional[PhillyTraceConfig] = None,
        gpu_types: Sequence[str] = PAPER_GPU_TYPES,
        cluster_devices: float = 24.0,
    ):
        self.config = config or PhillyTraceConfig()
        self.gpu_types = list(gpu_types)
        self.cluster_devices = float(cluster_devices)
        self.rng = np.random.default_rng(self.config.seed)
        self._tenant_factory = TenantGenerator(
            gpu_types=gpu_types, seed=self.config.seed + 1
        )

    # -- sampling primitives -----------------------------------------------------
    def sample_duration(self) -> float:
        """Lognormal job duration (seconds on the slowest GPU type)."""
        mu = np.log(self.config.duration_median_seconds)
        return float(self.rng.lognormal(mean=mu, sigma=self.config.duration_sigma))

    def sample_workers(self) -> int:
        return int(self.rng.choice(_WORKER_CHOICES, p=_WORKER_PROBS))

    def sample_arrivals(self) -> np.ndarray:
        """Poisson tenant arrival times across the first half of the window.

        Arrivals stop at half the window so late tenants have a chance to
        finish inside it, matching the paper's tenants-exit-on-completion
        setup.
        """
        horizon = self.config.window_seconds / 2.0
        times = np.sort(
            self.rng.uniform(0.0, horizon, size=self.config.num_tenants)
        )
        times[0] = 0.0  # the cluster is never empty at t=0
        return times

    # -- trace assembly -------------------------------------------------------------
    def generate(self) -> List[Tenant]:
        """A full tenant population calibrated to the contention target.

        Offered load = sum of (duration x workers) over all jobs; the
        durations are scaled so offered GPU-seconds equal
        ``contention x capacity x window``.
        """
        config = self.config
        arrivals = self.sample_arrivals()
        models = all_models()

        plans = []  # (tenant index, model, arrival, [(duration, workers)])
        offered = 0.0
        for index in range(config.num_tenants):
            num_jobs = max(1, int(self.rng.poisson(config.jobs_per_tenant_mean)))
            jobs = []
            for _ in range(num_jobs):
                duration = self.sample_duration()
                workers = self.sample_workers()
                jobs.append((duration, workers))
                offered += duration * workers
            plans.append(
                (index, models[index % len(models)], float(arrivals[index]), jobs)
            )

        target = config.contention * self.cluster_devices * config.window_seconds
        scale = target / offered if offered > 0 else 1.0

        tenants: List[Tenant] = []
        for index, model, arrival, jobs in plans:
            tenant = Tenant(name=f"tenant{index + 1}", arrival_time=arrival)
            for duration, workers in jobs:
                tenant.add_job(
                    self._tenant_factory.make_job(
                        tenant.name,
                        model,
                        num_workers=workers,
                        duration_on_slowest=max(60.0, duration * scale),
                        submit_time=arrival,
                    )
                )
            tenants.append(tenant)
        return tenants
