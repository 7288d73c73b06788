"""Tie-order guard: every ``argsort`` under ``src/repro`` names a stable kind.

numpy's default ``argsort`` orders equal keys differently under its
different SIMD kernels, so an unstable sort whose ties reach an answer
makes that answer depend on the CPU it ran on (5.1 found this in the
deviation rounder).  A stable sort keeps equal keys in input order on
every CPU.  One call is exempt by name: ``DeviationRounder.round_shares``
inverts the permutation ``order``, whose keys are distinct, so it has no
ties to order.  Python's own sorts are stable and are not checked here.
"""

import ast
import functools
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

#: (module, enclosing function, the sorted argument) of the exempt call
EXEMPT = {("cluster/rounding.py", "round_shares", "order")}


class _Finder(ast.NodeVisitor):
    """Collects ``(module, enclosing function, first argument, kind)`` per
    ``argsort`` call, module-level calls under the function name ``""``."""

    def __init__(self, module):
        self.module, self.functions, self.calls = module, [""], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "argsort":
            kind = next(
                (ast.literal_eval(keyword.value) for keyword in node.keywords
                 if keyword.arg == "kind"),
                None,
            )
            first = ast.unparse(node.args[0]) if node.args else ""
            self.calls.append((self.module, self.functions[-1], first, kind))
        self.generic_visit(node)


@functools.lru_cache(maxsize=None)
def _argsorts():
    calls = []
    for path in sorted(ROOT.rglob("*.py")):
        source = path.read_text()
        if "argsort" in source:
            finder = _Finder(str(path.relative_to(ROOT)))
            finder.visit(ast.parse(source, filename=str(path)))
            calls += finder.calls
    return calls


def test_every_argsort_is_stable_but_the_named_permutation_inverse():
    calls = set(_argsorts())
    offenders = sorted(
        call for call in calls if call[3] != "stable" and call[:3] not in EXEMPT
    )
    assert not offenders, "\n".join(map(str, offenders))


def test_the_exemption_still_names_a_live_call():
    found = {call[:3] for call in _argsorts() if call[3] is None}
    assert EXEMPT <= found
