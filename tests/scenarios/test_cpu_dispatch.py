"""A replay's fingerprint does not depend on numpy's SIMD dispatch.

numpy picks a sort kernel by CPU feature at run time, and its default
(unstable) ``argsort`` may order equal keys differently on each.  The
deviation rounder breaks ties between equal remainders by that order, so
an unstable sort made the replay fingerprint a function of the CPU.  Here
the same replay runs in this interpreter and in a child with every
dispatched feature this CPU has switched off (``NPY_DISABLE_CPU_FEATURES``),
which forces the baseline kernels; the fingerprints must match.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.scenarios import ScenarioRunner, make_scenario

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: 24 tenants × 4 jobs over 64 rounds: ties between equal remainders decide
#: which tenant gets a device in many of its rounds
SHAPE = dict(num_tenants=24, jobs_per_tenant=4, rounds=64)

CHILD = f"""
from repro.scenarios import ScenarioRunner, make_scenario
print(ScenarioRunner(make_scenario("steady", **{SHAPE!r}), "oef-coop").run().fingerprint())
"""


def _dispatched_features():
    """The dispatched (non-baseline) CPU features numpy found on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    present = umath.__cpu_features__
    return [name for name in umath.__cpu_dispatch__ if present.get(name)]


def test_replay_fingerprint_survives_baseline_dispatch():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [path for path in env.get("PYTHONPATH", "").split(os.pathsep) if path]
    )
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(_dispatched_features())
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    here = ScenarioRunner(make_scenario("steady", **SHAPE), "oef-coop").run().fingerprint()
    assert child.stdout.strip() == here
