"""JSON (de)serialisation for instances and allocations.

Lets operators snapshot a scheduling problem (`instance.json`), solve it
offline, and audit the produced allocation later — also what the CLI
(`python -m repro ...`) speaks.

Schema (versioned, stable):

.. code-block:: json

    {
      "schema": "repro/instance-v1",
      "users": ["alice", "bob"],
      "gpu_types": ["rtx3070", "rtx3090"],
      "speedups": [[1.0, 2.0], [1.0, 4.0]],
      "capacities": [8.0, 8.0]
    }

    {
      "schema": "repro/allocation-v1",
      "allocator": "oef-coop",
      "instance": { ... as above ... },
      "matrix": [[...], [...]]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import ProblemInstance
from repro.core.speedup import SpeedupMatrix
from repro.exceptions import ValidationError
from repro.fieldspec import check_at, instance_of, list_of, nullable

INSTANCE_SCHEMA = "repro/instance-v1"
ALLOCATION_SCHEMA = "repro/allocation-v1"
_NAMES = nullable(list_of(instance_of(str, "a string")))

PathLike = Union[str, Path]


# -- instances ---------------------------------------------------------------
def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "schema": INSTANCE_SCHEMA,
        "users": list(instance.speedups.users),
        "gpu_types": list(instance.speedups.gpu_types),
        "speedups": instance.speedups.values.tolist(),
        "capacities": instance.capacities.tolist(),
    }


def instance_from_dict(payload: dict) -> ProblemInstance:
    if payload.get("schema") != INSTANCE_SCHEMA:
        raise ValidationError(
            f"expected schema {INSTANCE_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for field in ("speedups", "capacities"):
        if field not in payload:
            raise ValidationError(f"instance JSON missing field {field!r}")
    for field in ("users", "gpu_types"):
        check_at(field, _NAMES, payload.get(field))
    matrix = SpeedupMatrix(
        payload["speedups"],
        users=payload.get("users"),
        gpu_types=payload.get("gpu_types"),
        normalise=False,
        require_monotone=False,
    )
    return ProblemInstance(matrix, payload["capacities"])


def save_instance(instance: ProblemInstance, path: PathLike) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2))


def load_instance(path: PathLike) -> ProblemInstance:
    return instance_from_dict(json.loads(Path(path).read_text()))


# -- allocations ---------------------------------------------------------------
def allocation_to_dict(allocation: Allocation) -> dict:
    return {
        "schema": ALLOCATION_SCHEMA,
        "allocator": allocation.allocator_name,
        "instance": instance_to_dict(allocation.instance),
        "matrix": allocation.matrix.tolist(),
        "user_throughput": allocation.user_throughput().tolist(),
        "total_efficiency": allocation.total_efficiency(),
    }


def allocation_from_dict(payload: dict) -> Allocation:
    if payload.get("schema") != ALLOCATION_SCHEMA:
        raise ValidationError(
            f"expected schema {ALLOCATION_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    instance = instance_from_dict(payload["instance"])
    return Allocation(
        np.asarray(payload["matrix"], dtype=float),
        instance,
        allocator_name=payload.get("allocator", ""),
    )


def save_allocation(allocation: Allocation, path: PathLike) -> None:
    Path(path).write_text(json.dumps(allocation_to_dict(allocation), indent=2))


def load_allocation(path: PathLike) -> Allocation:
    return allocation_from_dict(json.loads(Path(path).read_text()))
