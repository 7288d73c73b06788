"""Layering guard: the lower layers never import the service layers.

``repro.solver``, ``repro.core``, ``repro.cluster``, ``repro.scenarios``
and ``repro.fleet`` sit below ``repro.gateway`` and ``repro.server``; an
import pointing up (module-level or function-local) is a cycle waiting
to happen and drags the service stack into every simulator worker.
"""

import ast
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
