"""Reproducible experiment runner.

Subcommands: simulate | sectorial-test | directional-test | extremal-index
| beta | berman. Each run resolves a config (built-in defaults <- JSON
config file <- CLI flags), writes results.csv and summary.json into the
output directory, and exits 0 on success, 2 when a scientific verdict
fails, 1 on input errors, usage errors included. Outputs embed the
resolved config and library version; rows are formatted deterministically
so reruns with the same seed are byte-identical.
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
from .covariance import GammaPair, example_covariance
from .lattice import curve_from_config
from .sampling import (
    FactorizationError,
    GaussianSeparableField,
    IIDField,
    MovingMaxField,
    TwoAtomInnovations,
    _NormalMarginal,
    _UniformMarginal,
    dump_csv,
    sub_seed as _sub_seed,
)


class ConfigError(ValueError):
    pass


# fields whose null is meaningful: beta's level and extremal-index's expected_theta
NULLABLE_FIELDS = {"level", "expected_theta"}


def _type_error(value, default) -> str | None:
    """Why ``value`` cannot replace ``default``, or None if it can.

    A value keeps the JSON type of its default (an integer may stand for a
    float); integers, alone or in a list, are counts or seeds, so >= 0, and
    a list of them is a grid or a shape, so nonempty.
    """
    count = lambda v: type(v) is int and v >= 0
    if type(default) is int:
        ok, kind = count(value), "a nonnegative integer"
    elif type(default) is float:
        ok, kind = type(value) in (int, float), "a number"
    elif type(default) is list and default and type(default[0]) is int:
        ok = type(value) is list and len(value) > 0 and all(map(count, value))
        kind = "a nonempty list of nonnegative integers"
    else:
        kinds = {bool: "true or false", str: "a string", list: "a list", dict: "an object"}
        ok, kind = type(value) is type(default), kinds[type(default)]
    return None if ok else f"must be {kind}"


def _load_config(path: str | None, defaults: dict, args) -> dict:
    cfg = dict(defaults)
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed config {path}: line {e.lineno} column {e.colno}: {e.msg}")
        if not isinstance(user, dict):
            raise ConfigError(f"malformed config {path}: top level must be an object")
        for key, value in user.items():
            if key not in defaults:
                raise ConfigError(f"malformed config {path}: unknown field {key!r}")
            why = None if value is None and key in NULLABLE_FIELDS else _type_error(value, defaults[key])
            if why:
                raise ConfigError(f"config field {key!r} {why}, got {json.dumps(value)}")
        cfg.update(user)
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


def _write_outputs(out_dir: str, command: str, cfg: dict, header, rows, verdicts: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
        "all_passed": all(verdicts.values()) if verdicts else True,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _choice(what: str, value, allowed):
    if value not in allowed:
        raise ConfigError(f"{what} must be one of {', '.join(allowed)}, got {json.dumps(value)}")
    return value


def _model_field(cfg: dict, key: str, default, part: str = "model"):
    """``cfg[key]`` (``default`` if absent), typed like a config field; a ConfigError names the field."""
    value = cfg.get(key, default)
    why = _type_error(value, default)
    if why:
        raise ConfigError(f"{part} field {key!r} {why}, got {json.dumps(value)}")
    return value


def _only_fields(cfg: dict, what: str, fields, part: str = "model") -> None:
    """Reject a key of ``cfg`` that ``what`` does not use: it would be ignored silently."""
    for key in cfg:
        if key != "kind" and key not in fields:
            raise ConfigError(f"{part} field {key!r} is not used by {what}")


# the fields each model kind and innovations kind reads, besides "kind"
MODEL_FIELDS = {
    "gaussian_separable": ("gamma1", "gamma2"),
    "iid": ("marginal",),
    "moving_max": ("window", "innovations"),
}
INNOVATION_FIELDS = {"uniform": (), "two_atom": ("lo", "hi", "p_lo")}
CURVE_FIELDS = {"diagonal": ("d",), "psi_example": (), "table": ("table",)}


def _model_from_config(cfg: dict):
    kind = _choice("model kind", cfg.get("kind", "gaussian_separable"), tuple(MODEL_FIELDS))
    _only_fields(cfg, f"model kind {kind}", MODEL_FIELDS[kind])
    if kind == "gaussian_separable":
        g = GammaPair(float(_model_field(cfg, "gamma1", 0.26)), float(_model_field(cfg, "gamma2", 0.10)))
        return GaussianSeparableField(example_covariance(g))
    # uniform and normal are the built-in marginals, not scipy.stats' frozen
    # laws: same values and draws, without scipy.stats' import time
    if kind == "iid":
        marg = _choice("iid marginal", cfg.get("marginal", "uniform"), ("uniform", "normal"))
        return IIDField({"uniform": _UniformMarginal, "normal": _NormalMarginal}[marg]())
    icfg = _model_field(cfg, "innovations", {"kind": "uniform"})
    ikind = _choice("innovations kind", icfg.get("kind", "uniform"), tuple(INNOVATION_FIELDS))
    _only_fields(icfg, f"innovations kind {ikind}", INNOVATION_FIELDS[ikind])
    if ikind == "uniform":
        innov = _UniformMarginal()
    else:
        innov = TwoAtomInnovations(
            lo=float(_model_field(icfg, "lo", 0.0)),
            hi=float(_model_field(icfg, "hi", 1.0)),
            p_lo=float(_model_field(icfg, "p_lo", 0.5)),
        )
    # MovingMaxField rejects a window entry of 0
    return MovingMaxField(_model_field(cfg, "window", [2, 2]), innov)


def _curve_from_config(cfg: dict):
    kind = _choice("curve kind", cfg.get("kind", "diagonal"), tuple(CURVE_FIELDS))
    _only_fields(cfg, f"curve kind {kind}", CURVE_FIELDS[kind], "curve")
    if kind == "diagonal":
        _model_field(cfg, "d", 2, "curve")
    if kind == "table":
        # no default: each point is a nonempty list of integers, all of one length
        points = cfg.get("table")
        ok = type(points) is list and points and not any(_type_error(p, [1]) for p in points)
        if not ok or len(set(map(len, points))) != 1:
            raise ConfigError(
                "curve field 'table' must be a nonempty list of equal-length nonempty lists "
                f"of nonnegative integers, got {json.dumps(points)}"
            )
    return curve_from_config(cfg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

SECTORIAL_DEFAULTS = {
    "gamma1": 0.26,
    "gamma2": 0.10,
    "n_grid": [20, 40, 80],
    "reps": 2000,
    "seed": 20240901,
    "c": 1.0,
}


def _grid_maxes(model, cfg: dict) -> np.ndarray:
    """Block maxima over the n x n squares of ``n_grid``, one row per n.

    Each replication is drawn once, on the largest square, from the stream
    of that square's n; every smaller square is its corner.
    """
    ns = cfg["n_grid"]
    return model.nested_maxes([(n, n) for n in ns], cfg["reps"], _sub_seed(cfg["seed"], max(ns)))


def cmd_sectorial_test(cfg: dict, out: str) -> int:
    """Distance of the example field along the diagonal from powered Phi,
    with the comparison-bound domination check folded into the same rows."""
    model = GaussianSeparableField(example_covariance(GammaPair(cfg["gamma1"], cfg["gamma2"])))
    phi = phantom.normal_candidate()
    maxes = _grid_maxes(model, cfg)
    rows = []
    dists, ses, berman_ok = [], [], []
    for n, m in zip(cfg["n_grid"], maxes):
        law = phantom.EmpiricalLaw(np.sort(m), cfg["reps"])
        rep = phantom.phantom_distance(law, phi, n * n)
        u = phantom.levels_u(cfg["c"], n)
        g = diagnostics.bound_vs_maxima(model.cov, m, n, u)
        dists.append(rep.value)
        ses.append(rep.se)
        berman_ok.append(g.verdict)
        rows.append((n, n, n, rep.value, rep.se, rep.x, u, g.p_hat, g.target, g.gap, g.bound, g.verdict))
    mono = all(dists[i + 1] <= dists[i] + 2.0 * ses[i + 1] for i in range(len(dists) - 1))
    verdicts = {
        "distance_nonincreasing_within_2se": bool(mono),
        "distance_last_le_first": bool(dists[-1] <= dists[0]),
        "berman_bound_dominates": bool(all(berman_ok)),
    }
    _write_outputs(
        out,
        "sectorial-test",
        cfg,
        ["n", "psi1", "psi2", "distance", "se", "argmax_x", "u", "p_hat", "target", "gap", "berman_bound", "berman_ok"],
        rows,
        verdicts,
    )
    return 0 if all(verdicts.values()) else 2


DIRECTIONAL_DEFAULTS = {
    "gamma1": 0.26,
    "gamma2": 0.10,
    "N_grid": [10**4, 10**5, 10**6, 10**7, 10**8],
    "x": 0.0,
    "tol_final": 0.02,
    "separation_factor": 5.0,
}


def cmd_directional_test(cfg: dict, out: str) -> int:
    """Quadrature law of the equicorrelated comparison maxima along the
    log-split curve versus the non-Gumbel limit and the Gumbel law."""
    kappa = cfg["gamma1"] * cfg["gamma2"]
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
    _write_outputs(
        out,
        "directional-test",
        cfg,
        ["N", "rho", "a_N", "b_N", "w", "value", "gap"],
        rows,
        verdicts,
    )
    return 0 if all(verdicts.values()) else 2


EXTREMAL_DEFAULTS = {
    "model": {"kind": "moving_max", "window": [2, 2], "innovations": {"kind": "uniform"}},
    "n": 200,
    "gamma_in": math.exp(-1.0),
    "expected_theta": 0.25,
    "tol": 0.02,
}


def cmd_extremal_index(cfg: dict, out: str) -> int:
    model = _model_from_config(cfg["model"])
    est = phantom.estimate_extremal_index(model, (cfg["n"], cfg["n"]), cfg["gamma_in"])
    ok = True
    if cfg.get("expected_theta") is not None:
        ok = abs(est.theta - cfg["expected_theta"]) <= cfg["tol"]
    verdicts = {"theta_within_tol": bool(ok)}
    rows = [(cfg["n"], est.theta, est.gamma_or, est.gamma_in, est.level)]
    _write_outputs(
        out,
        "extremal-index",
        cfg,
        ["n", "theta", "gamma_or", "gamma_in", "level"],
        rows,
        verdicts,
    )
    return 0 if ok else 2


BETA_DEFAULTS = {
    "model": {
        "kind": "moving_max",
        "window": [2, 2],
        "innovations": {"kind": "two_atom", "lo": 0.0, "hi": 1.0, "p_lo": 0.5},
    },
    "curve": {"kind": "diagonal", "d": 2},
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


def cmd_beta(cfg: dict, out: str) -> int:
    # checked even when a fixed level leaves it unread, so summary.json never records a bad gamma
    if not 0.0 < cfg["gamma"] < 1.0:
        raise ConfigError(f"config field 'gamma' must lie in (0, 1), got {json.dumps(cfg['gamma'])}")
    model = _model_from_config(cfg["model"])
    curve = _curve_from_config(cfg["curve"])
    n, k, T = cfg["n"], cfg["k"], cfg["T"]
    if cfg.get("level") is not None:
        levels = float(cfg["level"])
    elif model.exact_block_max_cdf((1,) * curve.d, 0.5) is not None:
        levels = phantom.exact_level_sequence(model, curve, cfg["gamma"], n)
    else:
        levels = phantom.estimate_level_sequence(
            model, curve, cfg["gamma"], n, cfg["reps"], cfg["seed"]
        )
    bound = tuple(int(math.floor(T * c)) for c in curve(n))
    splits = diagnostics.exhaustive_splits(bound, k) if cfg["exhaustive"] else None
    rep = diagnostics.beta_k_estimate(
        model, curve, levels, T, n, k=k, splits=splits, reps=cfg["reps"], seed=cfg["seed"], mode=cfg["mode"]
    )
    verdicts = {}
    if k > 2:
        rep2 = diagnostics.beta_k_estimate(
            model, curve, levels, T, n, k=2,
            splits=diagnostics.exhaustive_splits(bound, 2) if cfg["exhaustive"] else None,
            reps=cfg["reps"], seed=cfg["seed"], mode=cfg["mode"],
        )
        verdicts["growth_inequality"] = bool(rep.value <= k ** curve.d * rep2.value + 1e-12)
    rows = [(n, k, rep.value, rep.mode, rep.grid_size, rep.level, rep.se if rep.se is not None else "")]
    _write_outputs(
        out,
        "beta",
        cfg,
        ["n", "k", "beta", "mode", "grid", "level", "se"],
        rows,
        verdicts,
    )
    report = rep.to_json()
    report["verdicts"] = verdicts
    with open(Path(out) / "beta.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if all(verdicts.values()) else 2


BERMAN_DEFAULTS = {
    "gamma1": 0.26,
    "gamma2": 0.10,
    "n_grid": [20, 40, 80],
    "c": 1.0,
    "reps": 2000,
    "seed": 20240901,
}


def cmd_berman(cfg: dict, out: str) -> int:
    model = GaussianSeparableField(example_covariance(GammaPair(cfg["gamma1"], cfg["gamma2"])))
    maxes = _grid_maxes(model, cfg) if cfg["reps"] > 0 else None
    rows = []
    all_ok = True
    for i, n in enumerate(cfg["n_grid"]):
        u = phantom.levels_u(cfg["c"], n)
        b = diagnostics.berman_bound(model.cov, n, u)
        if cfg["reps"] > 0:
            g = diagnostics.bound_vs_maxima(model.cov, maxes[i], n, u)
            all_ok = all_ok and g.verdict
            rows.append((n, u, b.total, b.sigma1, b.sigma2, b.alpha, g.gap, g.se, g.verdict))
        else:
            rows.append((n, u, b.total, b.sigma1, b.sigma2, b.alpha, "", "", ""))
    verdicts = {"bound_dominates": bool(all_ok)} if cfg["reps"] > 0 else {}
    _write_outputs(
        out,
        "berman",
        cfg,
        ["n", "u", "bound", "sigma1", "sigma2", "alpha", "gap", "se", "verdict"],
        rows,
        verdicts,
    )
    return 0 if all_ok else 2


SIMULATE_DEFAULTS = {
    "model": {"kind": "gaussian_separable", "gamma1": 0.26, "gamma2": 0.10},
    "dims": [16, 16],
    "seed": 20240901,
}


def cmd_simulate(cfg: dict, out: str) -> int:
    model = _model_from_config(cfg["model"])
    sample = model.sample(tuple(cfg["dims"]), cfg["seed"])
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_csv(sample, out_dir / "field.csv")
    _write_outputs(
        out,
        "simulate",
        cfg,
        ["dims", "seed", "min", "max", "mean"],
        [
            (
                "x".join(map(str, sample.dims)),
                cfg["seed"],
                float(sample.values.min()),
                float(sample.values.max()),
                float(sample.values.mean()),
            )
        ],
        {},
    )
    return 0


COMMANDS = {
    "simulate": (cmd_simulate, SIMULATE_DEFAULTS),
    "sectorial-test": (cmd_sectorial_test, SECTORIAL_DEFAULTS),
    "directional-test": (cmd_directional_test, DIRECTIONAL_DEFAULTS),
    "extremal-index": (cmd_extremal_index, EXTREMAL_DEFAULTS),
    "beta": (cmd_beta, BETA_DEFAULTS),
    "berman": (cmd_berman, BERMAN_DEFAULTS),
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
        return fn(cfg, args.out)
    except (ConfigError, ValueError, FactorizationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
