"""Every name the package re-exports has a caller, or is an oracle a check needs,
and so does every optional parameter of a re-exported function or class, and
every public method of a re-exported class.

A caller is a reference in ``src/`` outside the name's own definition and
``__init__.py``, or a reference in ``perfbench/``. References are read from
the syntax tree, so a name in a docstring or comment does not count.
"""

import ast
from collections import Counter
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


# optional parameters that no call in src/ or perfbench/ sets
UNSET_OPTIONS = {
    "limit_H.method": "selects the adaptive quadrature the tests compare the Gauss-Hermite rule against",
    "equicorrelated_max_cdf.method": "selects the adaptive quadrature the tests compare the Gauss-Hermite rule against",
    "berman_bound.method": "selects the row-by-row sum the tests compare the direct sum against",
    "enumeration_beta.k": "the growth criterion sets it to compare k = 3 with k = 2",
    "PhantomCandidate.breakpoints": "StepPhantom sets it through super().__init__, which names no class",
}


# public methods of re-exported classes (their package base classes' included)
# that no code in src/ or perfbench/ calls
UNCALLED_METHODS = {}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def exported_definitions() -> dict:
    """Re-exported name -> its top-level function or class definition."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            body = ast.parse((PACKAGE / f"{node.module}.py").read_text()).body
            by_name = {s.name: s for s in body if isinstance(s, (ast.FunctionDef, ast.ClassDef))}
            defs.update({a.name: by_name[a.name] for a in node.names if a.name in by_name})
    return defs


def optional_parameters(definition) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default; position None if keyword-only.

    A class's parameters are its ``__init__``'s, else its dataclass fields.
    """
    if isinstance(definition, ast.ClassDef):
        init = [s for s in definition.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
        if not init:
            fields = [s for s in definition.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]
        definition = init[0]
    args = definition.args
    params = args.posonlyargs + args.args
    skip = 1 if params and params[0].arg == "self" else 0
    first = len(params) - len(args.defaults)
    out = [(p.arg, i - skip) for i, p in enumerate(params) if i >= first]
    out += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def calls() -> list[tuple[str, int, set[str]]]:
    """(callee name, positional argument count, keywords) of every call in src/ and perfbench/."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.append((name, len(node.args), {k.arg for k in node.keywords}))
    return out


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


def public_methods() -> dict:
    """"Class.method" -> its definition, for each public method of a re-exported class.

    A class's methods include those of its base classes in the package.
    """
    classes = {s.name: s for p in PACKAGE.glob("*.py") for s in ast.parse(p.read_text()).body if isinstance(s, ast.ClassDef)}
    out = {}
    for name, definition in exported_definitions().items():
        todo = [definition] if isinstance(definition, ast.ClassDef) else []
        while todo:
            cls = todo.pop()
            for s in cls.body:
                if isinstance(s, ast.FunctionDef) and not s.name.startswith("_"):
                    out.setdefault(f"{name}.{s.name}", s)
            todo += [classes[b.id] for b in cls.bases if isinstance(b, ast.Name) and b.id in classes]
    return out


def attribute_reads(node) -> Counter:
    """How often each attribute is read anywhere under ``node``."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_reexport_has_a_caller_or_is_an_oracle():
    called = called_names()
    exported = exported_names()
    assert [n for n in exported if n not in called and n not in ORACLES] == []
    # an oracle that gains a caller, or leaves the package, leaves the list too
    assert [n for n in ORACLES if n in called or n not in exported] == []


def test_every_optional_parameter_is_set_by_a_caller_or_listed():
    seen = calls()
    unset = []
    for name, definition in exported_definitions().items():
        for param, position in optional_parameters(definition):
            if param.startswith("_"):
                continue  # a cache field, filled lazily
            if not any(
                callee == name and (param in keywords or (position is not None and count > position))
                for callee, count, keywords in seen
            ):
                unset.append(f"{name}.{param}")
    assert sorted(n for n in unset if n not in UNSET_OPTIONS) == []
    # an option that gains a caller, or leaves the package, leaves the list too
    assert sorted(n for n in UNSET_OPTIONS if n not in unset) == []


def test_every_public_method_has_a_caller_or_is_listed():
    reads = Counter()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        reads += attribute_reads(ast.parse(path.read_text()))
    methods = public_methods()
    # a read of a method's name inside its own definition does not call it
    uncalled = sorted(k for k, d in methods.items() if reads[d.name] <= attribute_reads(d)[d.name])
    assert [k for k in uncalled if k not in UNCALLED_METHODS] == []
    # a method that gains a caller, or leaves the package, leaves the list too
    assert [k for k in UNCALLED_METHODS if k not in uncalled] == []
