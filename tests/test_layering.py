"""Layering guard: the lower layers never import the service layers.

``repro.solver``, ``repro.core``, ``repro.cluster``, ``repro.scenarios``
and ``repro.fleet`` sit below ``repro.gateway`` and ``repro.server``; an
import pointing up (module-level or function-local) is a cycle waiting
to happen and drags the service stack into every simulator worker.

HiGHS has one door: scipy's private ``_highspy`` bindings are imported by
``solver/incremental.py`` alone, and no module names ``linprog`` or the
LP oracles the test suite keeps (``LinearProgram``, ``SimplexBackend``).
"""

import ast
import re
from pathlib import Path

import pytest

import repro

LOWER = ("solver", "core", "cluster", "scenarios", "fleet")
UPPER = ("repro.gateway", "repro.server")
ROOT = Path(repro.__file__).parent


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            # ``from repro import gateway`` names the package too
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


@pytest.mark.parametrize("package", LOWER)
def test_lower_layers_import_nothing_from_gateway_or_server(package):
    offenders = [
        f"{path.relative_to(ROOT)}: {module}"
        for path in sorted((ROOT / package).rglob("*.py"))
        for module in _imported_modules(path)
        if any(module == upper or module.startswith(upper + ".") for upper in UPPER)
    ]
    assert not offenders, "\n".join(offenders)


def _importers(wanted):
    return sorted(
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*.py")
        if any(wanted(module) for module in _imported_modules(path))
    )


def test_private_highs_bindings_have_one_importer():
    importers = _importers(lambda module: "_highspy" in module.split("."))
    assert importers == ["solver/incremental.py"]


def test_no_module_names_linprog_or_the_test_oracles():
    # in code, comments or docstrings: the one solver path is HiGHS
    pattern = re.compile(r"linprog|LinearProgram|SimplexBackend")
    offenders = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted(ROOT.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, "\n".join(offenders)
