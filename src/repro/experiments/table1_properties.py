"""Table 1: fairness properties guaranteed by each scheduler.

Audits Gavel, Gandiva_fair, and both OEF variants on the paper's §2.4
worked example (W = [[1,2],[1,3],[1,4]], one GPU of each type) plus a set
of random instances.  A property is reported as held only if it held on
*every* audited instance.

Expected outcome (paper's Table 1):

    Gavel:        PE x  EF x  SI v  SP x  opt x
    Gandiva_fair: PE v  EF x  SI v  SP x  opt x
    OEF:          PE v  EF v  SI v  SP v  opt v

where OEF's EF/SI/optimal-efficiency come from the cooperative variant
and SP from the non-cooperative one (Theorems 3.2/3.3 prove no mechanism
gets all of them at optimal efficiency simultaneously).

Audits run through :meth:`repro.gateway.Gateway.audit`, so
every honest and perturbed solve is memoized by the gateway pipeline's
cache stage — repeating a property across instances and schedulers
never re-pays for an LP it already solved.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import ProblemInstance, SpeedupMatrix
from repro.experiments.common import ExperimentResult
from repro.gateway import Gateway
from repro.workloads.generator import random_instance


def paper_example_instance() -> ProblemInstance:
    """The §2.4 running example: three users, two GPU types."""
    return ProblemInstance(SpeedupMatrix([[1, 2], [1, 3], [1, 4]]), [1.0, 1.0])


def audit_instances(num_random: int = 2, seed: int = 7) -> List[ProblemInstance]:
    instances = [paper_example_instance()]
    for index in range(num_random):
        instances.append(
            random_instance(
                num_users=4, num_gpu_types=3, seed=seed + index, devices_per_type=4.0
            )
        )
    return instances


def run(num_random: int = 2, sp_trials: int = 2) -> ExperimentResult:
    # pe_within / efficiency_constraint / pe_tolerance come from each
    # scheduler's registered audit defaults (Theorem 5.3: PE within the scheduler's
    # own feasible domain)
    schedulers = ["gavel", "gandiva-fair", "oef-coop", "oef-noncoop"]
    gateway = Gateway()
    instances = audit_instances(num_random=num_random)

    result = ExperimentResult("Table 1 — properties per scheduler")
    combined_by_name: Dict[str, Dict[str, bool]] = {}
    for name in schedulers:
        combined: Dict[str, bool] = {
            "PE": True,
            "EF": True,
            "SI": True,
            "SP": True,
            "optimal efficiency": True,
        }
        for index, instance in enumerate(instances):
            report = gateway.audit(
                instance, name, sp_trials=sp_trials, seed=index
            )
            combined["PE"] &= report.pareto_efficiency.satisfied
            combined["EF"] &= report.envy_freeness.satisfied
            combined["SI"] &= report.sharing_incentive.satisfied
            combined["SP"] &= report.strategy_proofness.satisfied
            combined["optimal efficiency"] &= report.optimal_efficiency.satisfied
        combined_by_name[name] = combined
        row: Dict[str, object] = {"scheduler": name}
        row.update({key: ("yes" if value else "no") for key, value in combined.items()})
        result.rows.append(row)

    # the paper's single "OEF" row: each property in its intended
    # environment (coop: PE/EF/SI/optimal; non-coop: PE/SP/optimal)
    coop = combined_by_name["oef-coop"]
    noncoop = combined_by_name["oef-noncoop"]
    result.rows.append(
        {
            "scheduler": "OEF (per environment)",
            "PE": "yes" if (coop["PE"] and noncoop["PE"]) else "no",
            "EF": "yes" if coop["EF"] else "no",
            "SI": "yes" if coop["SI"] else "no",
            "SP": "yes" if noncoop["SP"] else "no",
            "optimal efficiency": "yes"
            if (coop["optimal efficiency"] and noncoop["optimal efficiency"])
            else "no",
        }
    )
    result.notes.append(
        "OEF's EF/SI come from the cooperative variant and SP from the "
        "non-cooperative one — their intended environments (§3.2); "
        "Theorems 3.2/3.3 prove no mechanism provides all five at once."
    )
    result.notes.append(
        "Gavel is audited in its dense (interior-point-like) default, which "
        "reproduces the paper's Eq. (3) solution and its PE violation; "
        "Gavel(dense=False) returns work-conserving vertices that audit as "
        "PE."
    )
    result.notes.append(
        "PE for OEF is audited within each variant's feasible domain, "
        "matching Theorem 5.3's definition; Gandiva_fair PE is judged with "
        "a 2% residual band (greedy trading)."
    )
    return result
