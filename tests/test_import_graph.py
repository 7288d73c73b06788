"""A fresh process loads numpy and the HiGHS core, not scipy's packages.

``repro.solver.incremental`` loads scipy's vendored HiGHS extension from
its file, so importing every entry point and solving one LP must leave
``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg`` out of
``sys.modules`` (together ≈ 0.6 s of a one-shot run).  The extension is
registered under its dotted name, so scipy imported later, or earlier,
shares the one module object.

The edges are lazy above that: ``import repro`` loads no submodule (its
public names import their home module on first use), and building the
CLI parser loads no numpy; each command imports what it uses on
dispatch.  Each case runs in a new interpreter: this one has scipy
loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

ENTRY_POINTS_AND_ONE_SOLVE = """
import sys
import numpy as np
import repro, repro.cli, repro.server, repro.fleet, repro.scenarios
from repro.solver import StandardForm, solve_form

form = StandardForm(
    c=np.array([-2.0, -1.0]), a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]),
    a_eq=None, b_eq=None, bounds=[(0.0, None)] * 2, maximise=True,
)
assert solve_form(form).objective == 2.0
"""


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [path for path in env.get("PYTHONPATH", "").split(os.pathsep) if path]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_entry_points_and_a_solve_leave_scipys_packages_unloaded():
    loaded = _run(
        ENTRY_POINTS_AND_ONE_SOLVE
        + 'print(sorted({"scipy.optimize", "scipy.sparse", "scipy.linalg"} & set(sys.modules)))'
    )
    assert loaded == "[]"


def test_scipy_optimize_imported_afterwards_shares_the_loaded_core():
    assert _run(
        ENTRY_POINTS_AND_ONE_SOLVE
        + """
import repro.solver.incremental as incremental
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
assert linprog([1.0], bounds=[(1.0, 2.0)], method="highs").x[0] == 1.0
print(_core is incremental._core is sys.modules["scipy.optimize._highspy._core"])
"""
    ) == "True"


def test_a_core_scipy_loaded_first_is_reused():
    assert _run(
        """
from scipy.optimize._highspy import _core
import repro.solver.incremental as incremental
print(_core is incremental._core and incremental.incremental_available())
"""
    ) == "True"


def test_building_the_parser_loads_five_modules_and_no_numpy():
    loaded = _run(
        """
import sys
import repro, repro.cli
repro.cli.build_parser()
print(sorted(m for m in sys.modules if m == "repro" or m.startswith("repro.")))
print("numpy" in sys.modules)
"""
    )
    assert loaded.splitlines() == [
        "['repro', 'repro.cli', 'repro.exceptions', 'repro.parallel', 'repro.registry']",
        "False",
    ]


def test_every_export_is_its_home_modules_object():
    assert _run(
        """
import importlib
import sys
import repro
assert [m for m in sys.modules if m.startswith("repro")] == ["repro"]
assert set(repro.__all__) <= set(dir(repro))
for module, names in repro._EXPORTS.items():
    home = importlib.import_module(module)
    for name in names:
        assert getattr(repro, name) is getattr(home, name), name
try:
    repro.SchedulingService
except AttributeError as exc:
    print(exc)
"""
    ) == "module 'repro' has no attribute 'SchedulingService'"
