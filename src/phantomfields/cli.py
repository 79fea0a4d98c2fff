"""Reproducible experiment runner.

Subcommands: simulate | sectorial-test | directional-test | extremal-index
| beta | berman. Each run resolves a config (built-in defaults <- JSON
config file <- CLI flags) and checks all of it before the command runs:
a field keeps the type of its default, a tolerance is nonnegative, a
grid (``n_grid``, ``N_grid``) is strictly increasing, and a nested
object (``model``, its ``innovations``, beta's ``curve``) names one of
its kinds in ``KINDS`` and only that kind's fields, whose defaults are
filled in, and ``_build`` makes it with that kind's builder. Other ranges
(a feasible gamma pair, a window or a curve coordinate >= 1) are the
library's to check. A command returns its header, rows and verdicts;
``main`` writes them to results.csv and summary.json in the output
directory and exits 0 on success, 2 when a scientific verdict fails, 1 on
input errors, usage errors included.
Outputs embed the resolved config and library version; rows are
formatted deterministically so reruns with the same seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics, phantom
from .covariance import DEFAULT_GAMMAS, GammaPair, example_covariance
from .lattice import curve_diagonal, curve_from_table, curve_psi_example
from .sampling import (
    FactorizationError,
    GaussianSeparableField,
    IIDField,
    MovingMaxField,
    TwoAtomInnovations,
    _NormalMarginal,
    _UniformMarginal,
    sub_seed as _sub_seed,
)


class ConfigError(ValueError):
    pass


# the example field's gamma pair as config fields: its default everywhere
GAMMAS = {"gamma1": DEFAULT_GAMMAS.gamma1, "gamma2": DEFAULT_GAMMAS.gamma2}
# the objects a config nests: kind -> (builder, {field: default}), the first
# kind the default kind. ``_build`` passes a builder the resolved object,
# its nested objects built. A table curve's points have no default: their
# entry only gives their type, and REQUIRED_FIELDS makes them required.
KINDS = {
    "model": {
        "gaussian_separable": (lambda c: GaussianSeparableField(_example_covariance(c)), GAMMAS),
        "iid": (lambda c: IIDField(CHOICES["marginal"][c["marginal"]]()), {"marginal": "uniform"}),
        # MovingMaxField rejects a window entry of 0
        "moving_max": (lambda c: MovingMaxField(c["window"], c["innovations"]), {"window": [2, 2], "innovations": {"kind": "uniform"}}),
    },
    "innovations": {
        "uniform": (lambda c: _UniformMarginal(), {}),
        "two_atom": (
            lambda c: TwoAtomInnovations(lo=float(c["lo"]), hi=float(c["hi"]), p_lo=float(c["p_lo"])),
            {"lo": 0.0, "hi": 1.0, "p_lo": 0.5},
        ),
    },
    "curve": {
        "diagonal": (lambda c: curve_diagonal(c["d"]), {"d": 2}),
        "psi_example": (lambda c: curve_psi_example(), {}),
        "table": (lambda c: curve_from_table(c["table"]), {"table": [[1]]}),
    },
}
REQUIRED_FIELDS = {"table"}
# string fields that name one of a few values: each name -> what it names.
# The marginals are the built-in ones, not scipy.stats' frozen laws: same
# values and draws, without scipy.stats' import time.
CHOICES = {"marginal": {"uniform": _UniformMarginal, "normal": _NormalMarginal}}
# fields whose null is meaningful: beta's level and extremal-index's expected_theta
NULLABLE_FIELDS = {"level", "expected_theta"}
# the tolerances a verdict compares against: a negative one fails every verdict
NONNEGATIVE_FIELDS = {"tol", "tol_final", "separation_factor"}
# the grids whose verdicts compare a row with the rows after it: out of
# order, a distance or gap that grows with n would pass as shrinking
INCREASING_FIELDS = {"n_grid", "N_grid"}


def _type_error(value, default) -> str | None:
    """Why ``value`` cannot replace ``default``, or None if it can.

    A value keeps the JSON type of its default (an integer may stand for a
    float). A number is finite: Python's json reads NaN and Infinity, and
    an integer past the float range overflows. Integers, alone or in a
    list, are counts or seeds, so >= 0, and a list of them is a grid or a
    shape, so nonempty. A list of such lists is a table, whose rows are
    all of one length.
    """
    count = lambda v: type(v) is int and v >= 0
    if type(default) is int:
        ok, kind = count(value), "a nonnegative integer"
    elif type(default) is float:
        number = type(value) in (int, float)
        ok, kind = number and abs(value) <= sys.float_info.max, "a finite number" if number else "a number"
    elif type(default) is list and type(default[0]) is int:
        ok = type(value) is list and len(value) > 0 and all(map(count, value))
        kind = "a nonempty list of nonnegative integers"
    elif type(default) is list:  # a table: rows typed like default[0]
        ok = type(value) is list and len(value) > 0 and not any(_type_error(row, default[0]) for row in value)
        ok = ok and len(set(map(len, value))) == 1
        kind = "a nonempty list of equal-length nonempty lists of nonnegative integers"
    else:
        kinds = {bool: "true or false", str: "a string", dict: "an object"}
        ok, kind = type(value) is type(default), kinds[type(default)]
    return None if ok else f"must be {kind}"


def _choice(what: str, value, allowed):
    if value not in allowed:
        raise ConfigError(f"{what} must be one of {', '.join(allowed)}, got {json.dumps(value)}")
    return value


def _checked(key: str, value, default, part: str = "config"):
    """``value`` of the field ``key`` of ``part``, checked against ``default``.

    A ``KINDS`` object comes back resolved: its kind (the first listed if
    omitted) and every field of that kind, checked or defaulted. A key of
    the object that its kind does not use is an error, not ignored. The
    fields of an object nested in another are named after the outer one.
    """
    if value is None and key in NULLABLE_FIELDS:
        return None
    why = _type_error(value, default)
    if why:
        raise ConfigError(f"{part} field {key!r} {why}, got {json.dumps(value)}")
    if key in NONNEGATIVE_FIELDS and not value >= 0:
        raise ConfigError(f"{part} field {key!r} must be nonnegative, got {json.dumps(value)}")
    if key in INCREASING_FIELDS and any(a >= b for a, b in zip(value, value[1:])):
        raise ConfigError(f"{part} field {key!r} must be strictly increasing, got {json.dumps(value)}")
    if key in CHOICES:
        _choice(f"{part} field {key!r}", value, CHOICES[key])
    if key not in KINDS:
        return value
    kinds = KINDS[key]
    kind = _choice(f"{key} kind", value.get("kind", next(iter(kinds))), tuple(kinds))
    part = key if part == "config" else part
    fields = kinds[kind][1]
    for k in value:
        if k != "kind" and k not in fields:
            raise ConfigError(f"{part} field {k!r} is not used by {key} kind {kind}")
    missing = lambda k, d: None if k in REQUIRED_FIELDS else d
    return {"kind": kind, **{k: _checked(k, value.get(k, missing(k, d)), d, part) for k, d in fields.items()}}


def _load_config(path: str | None, defaults: dict, args) -> dict:
    """The resolved config of a command: every field checked, every default filled in."""
    user = {}
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e.strerror}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed config {path}: line {e.lineno} column {e.colno}: {e.msg}")
        if not isinstance(user, dict):
            raise ConfigError(f"malformed config {path}: top level must be an object")
        for key in user:
            if key not in defaults:
                raise ConfigError(f"malformed config {path}: unknown field {key!r}")
    cfg = {key: _checked(key, user.get(key, default), default) for key, default in defaults.items()}
    for flag in ("seed", "reps"):
        val = getattr(args, flag, None)
        if val is not None:
            if flag not in defaults:
                raise ConfigError(f"flag --{flag} is not used by this command")
            why = _type_error(val, defaults[flag])
            if why:
                raise ConfigError(f"flag --{flag} {why}, got {val}")
            cfg[flag] = val
    return cfg


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _check_out(out: str) -> None:
    """Reject an ``--out`` that is, or lies under, an existing non-directory, before the command runs."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {out}: {path} exists and is not a directory")
            return


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_outputs(out_dir: str, command: str, cfg: dict, header, rows, verdicts: dict) -> None:
    out = _out_dir(out_dir)
    with open(out / "results.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    summary = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "verdicts": verdicts,
        "all_passed": all(verdicts.values()),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_field(out_dir: str, values, seed) -> None:
    """field.csv: a comment with the dims and seed, then one row of values per index of axis 0."""
    with open(_out_dir(out_dir) / "field.csv", "w", newline="") as fh:
        fh.write(f"# dims={','.join(map(str, values.shape))} seed={seed}\n")
        for row in values.reshape(values.shape[0], -1):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _example_covariance(cfg: dict):
    """The example covariance of the gamma pair in ``cfg``; a pair off the feasibility chain raises."""
    return example_covariance(GammaPair(float(cfg["gamma1"]), float(cfg["gamma2"])))


def _build(key: str, obj: dict):
    """The library object of a resolved ``KINDS`` object ``obj`` of the field ``key``, its nested objects built first."""
    build, _ = KINDS[key][obj["kind"]]
    return build({k: _build(k, v) if k in KINDS else v for k, v in obj.items()})


# ---------------------------------------------------------------------------
# subcommands: each returns (header, rows, verdicts)
# ---------------------------------------------------------------------------

SECTORIAL_DEFAULTS = {
    **GAMMAS,
    "n_grid": [20, 40, 80],
    "reps": 2000,
    "seed": 20240901,
    "c": 1.0,
}


def _sectorial_table(cfg: dict) -> list:
    """(n, u_n, maxima, Berman bound, gap report) for each n x n square of ``n_grid``.

    Every level u_n and its Berman bound are computed before anything is
    drawn, so a bad ``c`` (one with no u_n, or a u_n <= 0) fails at once.
    Each replication is drawn once, on the largest square, from the stream
    of that square's n; every smaller square is its corner.
    """
    model = GaussianSeparableField(_example_covariance(cfg))
    ns = cfg["n_grid"]
    us = [phantom.levels_u(cfg["c"], n) for n in ns]
    bounds = [diagnostics.berman_bound(model.cov, n, u) for n, u in zip(ns, us)]
    maxes = model.nested_maxes([(n, n) for n in ns], cfg["reps"], _sub_seed(cfg["seed"], max(ns)))
    return [(n, u, m, b, diagnostics.bound_vs_maxima(b.total, m, n, u)) for n, u, m, b in zip(ns, us, maxes, bounds)]


def cmd_sectorial_test(cfg: dict, out: str):
    """Distance of the example field along the diagonal from powered Phi,
    with the comparison-bound domination check folded into the same rows."""
    phi = phantom.normal_candidate()
    rows = []
    dists, ses = [], []
    for n, u, m, _, g in _sectorial_table(cfg):
        law = phantom.EmpiricalLaw(np.sort(m), cfg["reps"])
        rep = phantom.phantom_distance(law, phi, n * n)
        dists.append(rep.value)
        ses.append(rep.se)
        rows.append((n, n, n, rep.value, rep.se, rep.x, u, g.p_hat, g.target, g.gap, g.bound, g.verdict))
    mono = all(dists[i + 1] <= dists[i] + 2.0 * ses[i + 1] for i in range(len(dists) - 1))
    verdicts = {
        "distance_nonincreasing_within_2se": bool(mono),
        "distance_last_le_first": bool(dists[-1] <= dists[0]),
        "berman_bound_dominates": all(bool(row[-1]) for row in rows),
    }
    header = ["n", "psi1", "psi2", "distance", "se", "argmax_x", "u", "p_hat", "target", "gap", "berman_bound", "berman_ok"]
    return header, rows, verdicts


DIRECTIONAL_DEFAULTS = {
    **GAMMAS,
    "N_grid": [10**4, 10**5, 10**6, 10**7, 10**8],
    "x": 0.0,
    "tol_final": 0.02,
    "separation_factor": 5.0,
}


def cmd_directional_test(cfg: dict, out: str):
    """Quadrature law of the equicorrelated comparison maxima along the
    log-split curve versus the non-Gumbel limit and the Gumbel law."""
    g = _example_covariance(cfg).gammas
    kappa = g.gamma1 * g.gamma2
    x = cfg["x"]
    h = phantom.limit_H(x, kappa)
    h0 = phantom.gumbel_H0(x)
    rows, gaps = [], []
    for N in cfg["N_grid"]:
        a, b = phantom.normalizers(N)
        rho = kappa / math.log(N)
        w = x / a + b
        q = phantom.equicorrelated_max_cdf(int(N), rho, w)
        gaps.append(abs(q - h))
        rows.append((int(N), rho, a, b, w, q, gaps[-1]))
    sep = abs(h - h0)
    final_gap = gaps[-1]
    verdicts = {
        "gap_monotone_decreasing": bool(all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))),
        "final_gap_within_tol": bool(final_gap <= cfg["tol_final"]),
        "non_gumbel_separation": bool(sep > cfg["separation_factor"] * final_gap),
    }
    rows.append(("limit", "", "", "", "", h, 0.0))
    rows.append(("gumbel", "", "", "", "", h0, sep))
    return ["N", "rho", "a_N", "b_N", "w", "value", "gap"], rows, verdicts


EXTREMAL_DEFAULTS = {
    "model": {"kind": "moving_max"},
    "n": 200,
    "gamma_in": math.exp(-1.0),
    "expected_theta": 0.25,
    "tol": 0.02,
}


def cmd_extremal_index(cfg: dict, out: str):
    model = _build("model", cfg["model"])
    est = phantom.estimate_extremal_index(model, (cfg["n"], cfg["n"]), cfg["gamma_in"])
    ok = cfg["expected_theta"] is None or abs(est.theta - cfg["expected_theta"]) <= cfg["tol"]
    rows = [(cfg["n"], est.theta, est.gamma_or, est.gamma_in, est.level)]
    return ["n", "theta", "gamma_or", "gamma_in", "level"], rows, {"theta_within_tol": bool(ok)}


BETA_DEFAULTS = {
    "model": {"kind": "moving_max", "innovations": {"kind": "two_atom"}},
    "curve": {"kind": "diagonal"},
    "T": 1.0,
    "n": 3,
    "k": 2,
    "gamma": math.exp(-1.0),
    "level": 0.5,
    "reps": 2000,
    "seed": 20240901,
    "mode": "auto",
    "exhaustive": True,
}


def cmd_beta(cfg: dict, out: str):
    # checked even when a fixed level leaves it unread, so summary.json never records a bad gamma
    if not 0.0 < cfg["gamma"] < 1.0:
        raise ConfigError(f"config field 'gamma' must lie in (0, 1), got {json.dumps(cfg['gamma'])}")
    model = _build("model", cfg["model"])
    curve = _build("curve", cfg["curve"])
    n, k, T = cfg["n"], cfg["k"], cfg["T"]
    bound = diagnostics.constraint_box(curve, T, n)
    # the mode is checked, and every split array built, before a level is drawn: a bad mode or k fails at once
    mode = diagnostics.beta_mode(model, cfg["mode"], cfg["reps"])
    build = diagnostics.exhaustive_splits if cfg["exhaustive"] else diagnostics.quarter_grid_splits
    splits = {j: build(bound, j) for j in sorted({2, k})}
    level = cfg["level"]
    # a null level is the gamma-level of M_psi(n): exact where the model has a closed form,
    # else the empirical gamma-quantile of its block maxima on sub_seed(seed, n)
    if level is None and model.closed_form:
        level = model.exact_block_level(curve(n), cfg["gamma"])
    elif level is None:
        law = phantom.empirical_max_law(model, curve(n), cfg["reps"], _sub_seed(cfg["seed"], n))
        level = law.quantile(cfg["gamma"])

    def estimate(k):
        return diagnostics.beta_k_estimate(
            model, curve, level, T, n, k=k, splits=splits[k], reps=cfg["reps"], seed=cfg["seed"], mode=mode
        )

    rep = estimate(k)
    verdicts = {}
    if k > 2:
        verdicts["growth_inequality"] = bool(rep.value <= k ** curve.d * estimate(2).value + 1e-12)
    report = rep.to_json()
    report["verdicts"] = verdicts
    with open(_out_dir(out) / "beta.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = [(n, k, rep.value, rep.mode, rep.grid_size, rep.level, rep.se if rep.se is not None else "")]
    return ["n", "k", "beta", "mode", "grid", "level", "se"], rows, verdicts


def cmd_berman(cfg: dict, out: str):
    """sectorial-test's Berman columns, with the bound's split and the gap's standard error."""
    table = _sectorial_table(cfg)
    rows = [(n, u, b.total, b.sigma1, b.sigma2, b.alpha, g.gap, g.se, g.verdict) for n, u, _, b, g in table]
    verdicts = {"bound_dominates": all(bool(row[-1]) for row in rows)}
    return ["n", "u", "bound", "sigma1", "sigma2", "alpha", "gap", "se", "verdict"], rows, verdicts


SIMULATE_DEFAULTS = {
    "model": {"kind": "gaussian_separable"},
    "dims": [16, 16],
    "seed": 20240901,
}


def cmd_simulate(cfg: dict, out: str):
    model = _build("model", cfg["model"])
    values = model.sample_values(cfg["dims"], np.random.default_rng(cfg["seed"]))
    _write_field(out, values, cfg["seed"])
    dims = "x".join(map(str, values.shape))
    row = (dims, cfg["seed"], float(values.min()), float(values.max()), float(values.mean()))
    return ["dims", "seed", "min", "max", "mean"], [row], {}


COMMANDS = {
    "simulate": (cmd_simulate, SIMULATE_DEFAULTS),
    "sectorial-test": (cmd_sectorial_test, SECTORIAL_DEFAULTS),
    "directional-test": (cmd_directional_test, DIRECTIONAL_DEFAULTS),
    "extremal-index": (cmd_extremal_index, EXTREMAL_DEFAULTS),
    "beta": (cmd_beta, BETA_DEFAULTS),
    # the squares, replications and levels of sectorial-test
    "berman": (cmd_berman, SECTORIAL_DEFAULTS),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # exit 2 means a failed verdict, so a usage error is an input error (exit 1)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="phantomfields", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--reps", type=int, default=None)
        sp.add_argument("--out", default="out", help="output directory")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        fn, defaults = COMMANDS[args.command]
        cfg = _load_config(args.config, defaults, args)
        _check_out(args.out)
        header, rows, verdicts = fn(cfg, args.out)
        _write_outputs(args.out, args.command, cfg, header, rows, verdicts)
    # a MemoryError is a request too large to allocate, such as beta's split grid at a large k
    except (ConfigError, ValueError, FactorizationError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0 if all(verdicts.values()) else 2


if __name__ == "__main__":
    sys.exit(main())
