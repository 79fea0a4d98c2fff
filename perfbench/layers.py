"""The traced layer pass: one timed call into each public layer function.

Each span is named after the per-layer metric it yields. Counts (bytes,
flops, knots, configurations, probes) are computed from shapes, not
measured, and are returned by ``run_layer_pass``. The pass is the same for every workload, so a per-layer metric means the same
thing whichever workload's traced run reports it. README.md maps each
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import phantomfields as pf
from phantomfields import cli, diagnostics, kernels, lattice, phantom
from phantomfields.sampling import replication_rng

import workloads as wl
from harness import OUT

GAUSS_DIMS = tuple((n, n) for n in wl.DIAGONAL_NS) + wl.SKEWED_DIMS
LAYER_REPS = 256  # one transform chunk of the Gaussian sampler
CURVE_HORIZON = max(wl.SKEWED_NS)
KERNEL_SHAPE = (2000, 512)
SLIDING_WIDTHS = (2, 4, 16)
ENUM_BLOCK = (3, 3)  # with window (2, 2): 16 sites, 2^16 configurations
DIRECTIONAL_KAPPA = 0.26 * 0.10
DIRECTIONAL_NS = (10**4, 10**5, 10**6, 10**7, 10**8)
KERNEL_REPEATS = 5


def tag(dims) -> str:
    return "x".join(str(int(x)) for x in dims)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "import.phantomfields_s": "s",
        "covariance.example_covariance_s": "s",
        "covariance.knots": "count",
    }
    for dims in GAUSS_DIMS:
        t = tag(dims)
        units |= {
            f"sampling.factor_s.{t}": "s",
            f"sampling.factor_bytes.{t}": "B",
            f"sampling.block_maxes_s.{t}": "s",
            f"sampling.reps_per_s.{t}": "1/s",
            f"sampling.fill_s.{t}": "s",
            f"sampling.transform_s.{t}": "s",
            f"sampling.transform_flops.{t}": "flop",
        }
    units |= {
        "sampling.mm_block_maxes_s": "s",
        "sampling.mm_reps_per_s": "1/s",
        "kernels.window_max_s": "s",
        **{f"kernels.sliding_max_s.w{w}": "s" for w in SLIDING_WIDTHS},
        "kernels.enum_s": "s",
        "kernels.enum_cfgs": "count",
        "lattice.curve_table_s": "s",
        "phantom.distance_s": "s",
        "phantom.distance_probes": "count",
        "phantom.level_sequence_s": "s",
        "phantom.quadrature_s": "s",
        "phantom.gh_evals": "count",
        "diagnostics.berman_bound_s": "s",
        "diagnostics.berman_cells": "count",
        "diagnostics.bound_vs_empirical_s": "s",
        "diagnostics.beta_mc_s": "s",
        "diagnostics.beta_splits": "count",
        "diagnostics.enumeration_beta_s": "s",
        **{f"cli.main_s.{cmd}": "s" for cmd in wl.CliDefaults.EXPECTED},
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
    }
    return units


def _fill(dims, reps, seed):
    # the sampler's per-replication substreams drawn alone, chunk by chunk
    for lo in range(0, reps, LAYER_REPS):
        hi = min(lo + LAYER_REPS, reps)
        z = np.empty((hi - lo,) + tuple(dims))
        for r in range(lo, hi):
            z[r - lo] = replication_rng(seed, r).standard_normal(dims)


def _gaussian(tr, seed, reps, counts):
    with tr.span("covariance.example_covariance_s"):
        cov = pf.example_covariance()
    counts["covariance.knots"] = sum(len(ax.knots_t) for ax in cov.axes)
    model = pf.GaussianSeparableField(cov)
    laws = []
    for dims in GAUSS_DIMS:
        t, s = tag(dims), wl.sub_seed(seed, math.prod(dims))
        with tr.span(f"sampling.factor_s.{t}"):
            factors = model.factors(dims)
        with tr.span(f"sampling.block_maxes_s.{t}"):
            maxes = model.block_maxes(dims, reps, s)
        with tr.span(f"sampling.fill_s.{t}"):
            _fill(dims, reps, s)
        counts[f"sampling.factor_bytes.{t}"] = sum(L.nbytes for L in factors)
        counts[f"sampling.transform_flops.{t}"] = reps * 2 * math.prod(dims) * sum(dims)
        if dims[0] == dims[1]:
            laws.append((dims[0], phantom.EmpiricalLaw(values=np.sort(maxes), reps=reps)))

    phi = phantom.normal_candidate()
    with tr.span("phantom.distance_s"):
        for n, law in laws:
            phantom.phantom_distance(law, phi, n * n)
    counts["phantom.distance_probes"] = sum(len(np.unique(law.values)) for _, law in laws)

    us = [(n, phantom.levels_u(wl.LEVEL_C, n)) for n, _ in laws]
    for _ in range(KERNEL_REPEATS):
        with tr.span("diagnostics.berman_bound_s"):
            for n, u in us:
                diagnostics.berman_bound(cov, n, u)
    counts["diagnostics.berman_cells"] = sum((n + 1) ** 2 for n, _ in us)
    with tr.span("diagnostics.bound_vs_empirical_s"):
        for n, u in us:
            diagnostics.bound_vs_empirical(model, n, u, reps, wl.sub_seed(seed, n))

    for _ in range(KERNEL_REPEATS):
        with tr.span("phantom.quadrature_s"):
            for N in DIRECTIONAL_NS:
                a, b = phantom.normalizers(N)
                phantom.equicorrelated_max_cdf(N, DIRECTIONAL_KAPPA / math.log(N), b)
            phantom.limit_H(0.0, DIRECTIONAL_KAPPA)
    counts["phantom.gh_evals"] = phantom.GH_NODES * (len(DIRECTIONAL_NS) + 1)

    with tr.span("lattice.curve_table_s"):
        lattice.curve_psi_example().table(CURVE_HORIZON)


def _moving_max(tr, seed, tiny, counts):
    mm_reps = 100 if tiny else wl.MM_REPS
    horizon = 3 if tiny else wl.MM_HORIZON
    uniform_model = pf.MovingMaxField(wl.MM_WINDOW, wl.uniform_innovations())
    atom_model = pf.MovingMaxField(wl.MM_WINDOW, pf.TwoAtomInnovations())
    diagonal = pf.curve_diagonal(2)
    with tr.span("sampling.mm_block_maxes_s"):
        uniform_model.block_maxes((horizon, horizon), mm_reps, seed)
    with tr.span("phantom.level_sequence_s"):
        phantom.estimate_level_sequence(uniform_model, diagonal, wl.MM_GAMMA, horizon, mm_reps, seed)

    a = np.random.default_rng(seed).standard_normal(KERNEL_SHAPE)
    for _ in range(KERNEL_REPEATS):
        for w in SLIDING_WIDTHS:
            with tr.span(f"kernels.sliding_max_s.w{w}"):
                kernels.sliding_max_last(a, w)
        with tr.span("kernels.window_max_s"):
            kernels.window_max(a, wl.MM_WINDOW)
        with tr.span("kernels.enum_s"):
            kernels.enum_block_cdf_table(ENUM_BLOCK, wl.MM_WINDOW, 0.0, 1.0, 0.5, wl.TWO_ATOM_LEVEL)
    sites = math.prod(b + w - 1 for b, w in zip(ENUM_BLOCK, wl.MM_WINDOW))
    counts["kernels.enum_cfgs"] = 2**sites

    splits = diagnostics.exhaustive_splits((wl.BETA_N, wl.BETA_N), 2)
    counts["diagnostics.beta_splits"] = len(splits)
    with tr.span("diagnostics.beta_mc_s"):
        diagnostics.beta_k_estimate(
            atom_model, diagonal, wl.TWO_ATOM_LEVEL, 1.0, wl.BETA_N, k=2, splits=splits,
            reps=200 if tiny else wl.BETA_REPS, seed=seed, mode="mc",
        )
    with tr.span("diagnostics.enumeration_beta_s"):
        diagnostics.enumeration_beta(atom_model, (2, 2) if tiny else wl.ENUM_BOUND, wl.TWO_ATOM_LEVEL)
    return mm_reps


def _cli(tr, seed, tiny):
    for cmd, (takes_seed, _, _) in wl.CliDefaults.EXPECTED.items():
        argv = [cmd, "--out", str(OUT / "layers" / cmd)]
        if takes_seed:
            argv += ["--seed", str(seed)]
        if tiny and cmd in wl.CliDefaults.TINY_REPS:
            argv += ["--reps", "20"]
        with tr.span(f"cli.main_s.{cmd}"):
            cli.main(argv)


def run_layer_pass(tr, seed: int, tiny: bool) -> dict:
    """Run the layer pass under ``tr`` (pass id "layers"); return computed counts."""
    seed = wl.derive_seed(seed, "layers")
    counts: dict[str, float] = {}
    tr.pass_id = "layers"
    counts["layer_reps"] = 8 if tiny else LAYER_REPS
    with tr.span("layers"):
        _gaussian(tr, seed, counts["layer_reps"], counts)
        counts["mm_reps"] = _moving_max(tr, seed, tiny, counts)
        _cli(tr, seed, tiny)
    tr.pass_id = None
    return counts


def layer_metrics(tr, counts: dict, import_samples, traced_walls, untraced_walls) -> dict:
    """Per-layer metric values from the layer pass's spans and counts."""
    units = metric_units()
    spans = tr.durations("layers")
    values = {name: statistics.median(d) for name, d in spans.items() if name in units}
    values |= {name: v for name, v in counts.items() if name in units}
    for dims in GAUSS_DIMS:
        t = tag(dims)
        bm = values[f"sampling.block_maxes_s.{t}"]
        values[f"sampling.reps_per_s.{t}"] = counts["layer_reps"] / bm
        values[f"sampling.transform_s.{t}"] = bm - values[f"sampling.fill_s.{t}"]
    values["sampling.mm_reps_per_s"] = counts["mm_reps"] / values["sampling.mm_block_maxes_s"]
    values["import.phantomfields_s"] = statistics.median(import_samples)
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    values["trace.wall_s"] = traced
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
