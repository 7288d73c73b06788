"""Fig. 1: the effect of GPU heterogeneity on DL training (§1, §2.2).

(a) Diverse speedups: VGG gains 1.39x from a 3090 while LSTM gains 2.15x.
(b) Under Max-Min both users get the same share of every GPU; under
    (cooperative) OEF the LSTM user is steered to the fast GPU, raising
    its throughput (paper: 1.57 -> 1.85) at no cost to the VGG user.
"""

from __future__ import annotations

import numpy as np

from repro.core import ProblemInstance, SpeedupMatrix
from repro.experiments.common import ExperimentResult
from repro.registry import create_scheduler
from repro.workloads.models import speedup_vector


def run() -> ExperimentResult:
    gpu_pair = ["rtx3070", "rtx3090"]
    vgg = speedup_vector("vgg16", gpu_pair)
    lstm = speedup_vector("lstm", gpu_pair)

    result = ExperimentResult("Fig. 1 — heterogeneity motivation")
    result.rows.append(
        {"panel": "(a)", "user": "user-1 (VGG)", "3070": 1.0, "3090": float(vgg[1])}
    )
    result.rows.append(
        {"panel": "(a)", "user": "user-2 (LSTM)", "3070": 1.0, "3090": float(lstm[1])}
    )

    matrix = SpeedupMatrix(
        np.vstack([vgg, lstm]), users=["user-1", "user-2"], gpu_types=gpu_pair
    )
    instance = ProblemInstance(matrix, [1.0, 1.0])

    maxmin = create_scheduler("max-min").allocate(instance)
    oef = create_scheduler("oef-coop").allocate(instance)
    for user in range(2):
        result.rows.append(
            {
                "panel": "(b)",
                "user": f"user-{user + 1}",
                "Max-Min": float(maxmin.user_throughput()[user]),
                "OEF": float(oef.user_throughput()[user]),
            }
        )
    gain = oef.total_efficiency() / maxmin.total_efficiency()
    result.notes.append(
        f"cluster efficiency OEF/Max-Min = {gain:.3f} "
        "(paper: Max-Min loses ~10% overall)"
    )
    return result
