"""Judge one benchmark document against another with the declared bounds.

A document is what ``run.py`` (all-workload mode) writes: per workload and
metric, the values of its runs.  One row per workload x end-to-end metric:

* ``ok`` — the median is no worse than the base's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — a side's run-to-run spread (quartile distance over the
  median, needs four runs) is wider than the bound, unless every run reads
  better than every base run.

Counts that must repeat exactly between runs of one seed are compared for
equality.  Exit code 1 when a row regressed or a count differs.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from stats import median, spread

#: Per-layer counts that two runs with the same seed must agree on exactly.
EXACT = (
    "client.sent",
    "cluster.simulator.cold_solves",
    "fleet.rebalance.windows",
    "solver.lp_count",
)


def _spread(values: List[float]) -> Optional[float]:
    return spread(values) if len(values) >= 4 else None


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change in the bad direction (negative = improved)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def judge(base: List[float], new: List[float], better: str, bound: float) -> Dict[str, object]:
    base_median, new_median = median(base), median(new)
    spreads = [s for s in (_spread(base), _spread(new)) if s is not None]
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    loss = worse_by(base_median, new_median, better)
    if any(s > bound for s in spreads) and not all_better:
        verdict = "unresolved"
    elif loss > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "base": base_median, "new": new_median, "ratio": new_median / base_median,
        "spread": max(spreads) if spreads else None, "verdict": verdict,
    }


def print_spreads(document: Dict[str, object], declared: Dict[str, object]) -> None:
    """The steadiness check: each metric's spread over the document's runs."""
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    for name, entry in document["workloads"].items():
        for metric, cell in entry["end_to_end"].items():
            value = _spread(cell["values"])
            if value is not None:
                print(
                    f"{name:16s} {metric:16s} median {median(cell['values']):12.4f} "
                    f"{cell['unit']:5s} spread {value:6.3f} bound {bounds[metric]:.2f}"
                    f"{'  WIDE' if value > bounds[metric] and metric != 'setup_s' else ''}",
                    file=sys.stderr,
                )


def main(path_a: str, path_b: str, declared: Dict[str, object]) -> int:
    with open(path_a) as handle:
        base = json.load(handle)
    with open(path_b) as handle:
        new = json.load(handle)
    specs = {m["name"]: m for m in declared["end_to_end"]}
    bad = 0
    print(f"{'workload':16s} {'metric':16s} {'base':>12s} {'new':>12s} {'ratio':>7s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            print(f"{name:16s} missing from {path_b}")
            bad += 1
            continue
        for metric, cell in entry["end_to_end"].items():
            spec = specs[metric]
            row = judge(cell["values"], other["end_to_end"][metric]["values"],
                        spec["better"], spec["bound"])
            wide = "-" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"{name:16s} {metric:16s} {row['base']:12.4f} {row['new']:12.4f} "
                  f"{row['ratio']:7.3f} {wide:>7s} {spec['bound']:6.2f}  {row['verdict']}")
            bad += row["verdict"] == "regressed"
        if base["seeds"] == new["seeds"]:
            for metric in EXACT:
                ours = entry["per_layer"].get(metric, {}).get("values")
                theirs = other["per_layer"].get(metric, {}).get("values")
                if ours != theirs:
                    print(f"{name:16s} {metric:16s} count differs: {ours} != {theirs}")
                    bad += 1
    return 1 if bad else 0
