"""Random instance and tenant generators for experiments and tests."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.job import Job, make_job
from repro.cluster.tenant import Tenant
from repro.core.instance import ProblemInstance
from repro.core.speedup import SpeedupMatrix
from repro.exceptions import ValidationError
from repro.workloads.models import (
    MODEL_CATALOG,
    PAPER_GPU_TYPES,
    all_models,
    throughput_vector,
)


def random_speedup_matrix(
    num_users: int,
    num_gpu_types: int,
    rng: np.random.Generator,
    max_step: float = 1.0,
) -> SpeedupMatrix:
    """A random valid speedup matrix (monotone rows, slowest type = 1).

    Each row is a cumulative product of per-type gains drawn from
    ``1 + U(0, max_step)``, mimicking the "almost no speedup to several
    times" spread the paper describes (§1).
    """
    if num_users < 1 or num_gpu_types < 1:
        raise ValidationError("need at least one user and one GPU type")
    gains = 1.0 + rng.uniform(0.0, max_step, size=(num_users, num_gpu_types))
    gains[:, 0] = 1.0
    values = np.cumprod(gains, axis=1)
    return SpeedupMatrix(values, normalise=False, require_monotone=True)


def log_linear_speedup_matrix(
    num_users: int,
    num_gpu_types: int,
    rng: np.random.Generator,
    max_steepness: float = 2.0,
) -> SpeedupMatrix:
    """Speedups of the form ``w_l^j = base_j ** s_l`` (consistent steepness).

    Under this family every pair of users agrees on which of them values a
    faster type *relatively* more (their speedup ratios never cross), the
    structural assumption behind Theorem 5.2's adjacent-allocation result.
    Real model zoos are approximately of this shape: "steepness" is the
    compute-boundedness of the model.
    """
    if num_users < 1 or num_gpu_types < 1:
        raise ValidationError("need at least one user and one GPU type")
    bases = np.cumprod(
        np.concatenate([[1.0], 1.0 + rng.uniform(0.1, 0.6, num_gpu_types - 1)])
    )
    steepness = np.sort(rng.uniform(0.1, max_steepness, num_users))
    values = bases[None, :] ** steepness[:, None]
    return SpeedupMatrix(values, normalise=True, require_monotone=True)


def random_instance(
    num_users: int,
    num_gpu_types: int,
    seed: int = 0,
    devices_per_type: float = 8.0,
    max_step: float = 1.0,
) -> ProblemInstance:
    """A random allocation problem for property audits and fuzz tests."""
    rng = np.random.default_rng(seed)
    matrix = random_speedup_matrix(num_users, num_gpu_types, rng, max_step)
    capacities = np.full(num_gpu_types, float(devices_per_type))
    return ProblemInstance(matrix, capacities)


def zoo_instance(
    model_names: Sequence[str],
    gpu_types: Sequence[str] = PAPER_GPU_TYPES,
    capacities: Optional[Sequence[float]] = None,
) -> ProblemInstance:
    """An instance whose users each train one model from the zoo."""
    rows = [throughput_vector(name, gpu_types) for name in model_names]
    matrix = SpeedupMatrix(
        np.vstack(rows),
        users=[f"{name}-user" for name in model_names],
        gpu_types=list(gpu_types),
        normalise=True,
    )
    if capacities is None:
        capacities = np.full(len(gpu_types), 8.0)
    return ProblemInstance(matrix, capacities)


class TenantGenerator:
    """Builds tenant populations with zoo-model jobs.

    The paper's evaluation uses tenants that each own a batch of jobs of
    the *same* model family (hyper-parameter sweeps, §2.1); job-level
    variation comes from batch size and learning rate, which perturb base
    throughput but not the speedup shape.
    """

    def __init__(
        self,
        gpu_types: Sequence[str] = PAPER_GPU_TYPES,
        seed: int = 0,
        hyperparameter_jitter: float = 0.15,
    ):
        self.gpu_types = list(gpu_types)
        self.rng = np.random.default_rng(seed)
        self.jitter = hyperparameter_jitter
        self._next_job_id = 0
        self._rows: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def _model_rows(self, model_name: str) -> Tuple[np.ndarray, np.ndarray]:
        """The model's throughput and speedup rows: built once, read-only,
        the speedups shared by every job of the model (``Job.speedups``)."""
        rows = self._rows.get(model_name)
        if rows is None:
            throughput = throughput_vector(model_name, self.gpu_types)
            rows = self._rows[model_name] = (throughput, throughput / throughput[0])
            for row in rows:
                row.setflags(write=False)
        return rows

    def _job_throughput(self, model_name: str) -> np.ndarray:
        base, _speedups = self._model_rows(model_name)
        # hyper-parameter perturbation scales absolute speed, not shape
        factor = 1.0 + self.rng.uniform(-self.jitter, self.jitter)
        return base * factor

    def make_job(
        self,
        tenant: str,
        model_name: str,
        num_workers: int = 1,
        duration_on_slowest: float = 3600.0,
        submit_time: float = 0.0,
    ) -> Job:
        """A job sized so one slowest-type worker finishes in ``duration``."""
        throughput = self._job_throughput(model_name)
        total_iterations = float(throughput[0]) * duration_on_slowest
        job = make_job(
            job_id=self._next_job_id,
            tenant=tenant,
            model_name=model_name,
            throughput=throughput,
            num_workers=num_workers,
            total_iterations=total_iterations,
            submit_time=submit_time,
            speedups=self._model_rows(model_name)[1],
        )
        self._next_job_id += 1
        return job

    def make_tenant(
        self,
        name: str,
        model_name: Optional[str] = None,
        num_jobs: int = 4,
        weight: float = 1.0,
        num_workers: int = 1,
        duration_on_slowest: float = 3600.0,
        submit_time: float = 0.0,
    ) -> Tenant:
        """A tenant running ``num_jobs`` hyper-parameter variants."""
        if model_name is None:
            model_name = str(self.rng.choice(all_models()))
        if model_name not in MODEL_CATALOG:
            raise ValidationError(f"unknown model {model_name!r}")
        tenant = Tenant(name=name, weight=weight, arrival_time=submit_time)
        for _ in range(num_jobs):
            tenant.add_job(
                self.make_job(
                    name,
                    model_name,
                    num_workers=num_workers,
                    duration_on_slowest=duration_on_slowest,
                    submit_time=submit_time,
                )
            )
        return tenant

    def make_population(
        self,
        num_tenants: int,
        models: Optional[Sequence[str]] = None,
        jobs_per_tenant: int = 4,
        duration_on_slowest: float = 3600.0,
    ) -> List[Tenant]:
        """``num_tenants`` tenants cycling through the given model list."""
        models = list(models) if models else all_models()
        tenants = []
        for index in range(num_tenants):
            tenants.append(
                self.make_tenant(
                    name=f"tenant{index + 1}",
                    model_name=models[index % len(models)],
                    num_jobs=jobs_per_tenant,
                    duration_on_slowest=duration_on_slowest,
                )
            )
        return tenants
