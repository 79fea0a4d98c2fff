"""Every name the package re-exports has a caller, or is an oracle a check needs.

A caller is a reference in ``src/`` outside the name's own definition and
``__init__.py``, or a reference in ``perfbench/``. References are read from
the syntax tree, so a name in a docstring or comment does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phantomfields"

# oracles behind the exactness and acceptance checks: tests are their only callers
ORACLES = {
    "enumeration_block_cdf": "enumerates two-atom configurations against the dilation-count block-max law",
    "exact_max_law": "the closed-form block-max law the sampled maxima are tested against",
    "covariance_at": "reads the target covariance at a lattice point for the implied-covariance checks",
    "equicorrelated_maxes": "draws the comparison maxima that test the quadrature of equicorrelated_max_cdf",
    "uniform_candidate": "the powered-uniform candidate with a known phantom distance",
    "construct_G_psi": "builds the phantom candidate of the acceptance criteria",
    "exact_level_sequence": "the closed-form levels from which criterion 7 builds G_psi",
}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def references(node) -> set[str]:
    """Names loaded, attributes read and names imported anywhere under ``node``."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(a.name for a in sub.names)
    return refs


def defined(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def called_names() -> set[str]:
    """Names referenced by a command or the benchmark, a definition's references to itself left out."""
    called = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            called |= references(stmt) - defined(stmt)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        called |= references(ast.parse(path.read_text()))
    return called


def test_every_reexport_has_a_caller_or_is_an_oracle():
    called = called_names()
    exported = exported_names()
    assert [n for n in exported if n not in called and n not in ORACLES] == []
    # an oracle that gains a caller, or leaves the package, leaves the list too
    assert [n for n in ORACLES if n in called or n not in exported] == []
