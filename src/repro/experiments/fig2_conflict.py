"""Fig. 2 / §3.1: conflicts between efficiency and fairness properties.

Reproduces both worked conflict examples:

* Fig. 2 — with W = [[1,2],[1,4]], the EF + optimally-efficient allocation
  gives user-2 a 0.75 share of the fast GPU; after user-1 inflates its
  speedup to <1,3> the allocation shifts to 0.67/0.33, so user-1 gained by
  lying — EF + optimal efficiency cannot be strategy-proof (Theorem 3.2).
* §3.1.1's Eq. (6) — with W = [[1,2],[1,5]], user-1 lying to <1,4> raises
  its own throughput ~17% while total efficiency drops from 5.25.
"""

from __future__ import annotations

from repro.core import ProblemInstance, SpeedupMatrix
from repro.experiments.common import ExperimentResult
from repro.registry import create_scheduler


def _coop(values) -> tuple:
    instance = ProblemInstance(SpeedupMatrix(values), [1.0, 1.0])
    allocation = create_scheduler("oef-coop").allocate(instance)
    return instance, allocation


def run() -> ExperimentResult:
    result = ExperimentResult("Fig. 2 — EF/efficiency vs strategy-proofness")

    # Theorem 3.2 illustration (Fig. 2)
    _, honest = _coop([[1, 2], [1, 4]])
    _, lied = _coop([[1, 3], [1, 4]])
    truth_row = [1.0, 2.0]
    for label, allocation in (("honest", honest), ("user-1 lies to <1,3>", lied)):
        share = allocation.matrix
        true_throughput_u1 = truth_row[0] * share[0, 0] + truth_row[1] * share[0, 1]
        result.rows.append(
            {
                "scenario": label,
                "u1 share gpu2": float(share[0, 1]),
                "u2 share gpu2": float(share[1, 1]),
                "u1 true throughput": true_throughput_u1,
            }
        )
    gain = (
        result.rows[1]["u1 true throughput"] / result.rows[0]["u1 true throughput"] - 1
    )
    result.notes.append(
        f"user-1 gains {gain * 100:.1f}% by lying (paper Fig. 2: 0.25 -> 0.33 "
        "of GPU2), so EF + optimal efficiency is not strategy-proof"
    )

    # Eq. (6) illustration
    _, honest6 = _coop([[1, 2], [1, 5]])
    _, lied6 = _coop([[1, 4], [1, 5]])
    truth6 = [1.0, 2.0]
    honest_u1 = float(truth6[0] * honest6.matrix[0, 0] + truth6[1] * honest6.matrix[0, 1])
    lied_u1 = float(truth6[0] * lied6.matrix[0, 0] + truth6[1] * lied6.matrix[0, 1])
    lied_total = float(
        (lied6.matrix[0] @ [1.0, 2.0]) + (lied6.matrix[1] @ [1.0, 5.0])
    )
    result.rows.append(
        {
            "scenario": "Eq.(6) honest total",
            "u1 share gpu2": float(honest6.matrix[0, 1]),
            "u2 share gpu2": float(honest6.matrix[1, 1]),
            "u1 true throughput": honest_u1,
        }
    )
    result.rows.append(
        {
            "scenario": "Eq.(6) u1 lies to <1,4>",
            "u1 share gpu2": float(lied6.matrix[0, 1]),
            "u2 share gpu2": float(lied6.matrix[1, 1]),
            "u1 true throughput": lied_u1,
        }
    )
    result.notes.append(
        f"Eq.(6): honest total efficiency {honest6.total_efficiency():.3f} "
        f"(paper 5.25); after the lie, u1 gains "
        f"{(lied_u1 / honest_u1 - 1) * 100:.1f}% (paper 16.7%) while true "
        f"total drops to {lied_total:.3f} (paper 4.875)"
    )
    return result
