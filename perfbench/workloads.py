"""The benchmark's four workloads.

Each workload builds its program inputs from the benchmark seed in
``setup`` (timed separately, in a fresh interpreter, as ``setup_s``), runs
one pass of calls into phantomfields in ``run_pass`` (timed as ``wall_s``)
and checks every pass's outputs in ``checks``. Why each workload exists is
written in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
import time

import numpy as np

import phantomfields as pf
from phantomfields import diagnostics, kernels, phantom

import checks as ck
from harness import OUT, run_child

DIAGONAL_NS = (20, 40, 80, 160)
DIAGONAL_REPS = 2000
LEVEL_C = 1.0  # n^2 (1 - Phi(u_n)) = c, as in the sectorial-test and berman defaults

SKEWED_NS = (5000, 20000)
SKEWED_DIMS = ((587, 8), (2019, 9))  # curve_psi_example()(n) at SKEWED_NS
SKEWED_REPS = 256

MM_WINDOW = (2, 2)
MM_GAMMA = math.exp(-1.0)
MM_HORIZON = 6
MM_REPS = 1000
BETA_N = 3  # constraint box (3, 3) on the diagonal, as the beta command's default
BETA_REPS = 2000
ENUM_BOUND = (3, 4)  # (3+1) x (4+1) innovation sites: 2^20 configurations
TWO_ATOM_LEVEL = 0.5


def derive_seed(seed: int, name: str) -> int:
    """A 32-bit program seed for ``name``, determined by the benchmark seed."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def sub_seed(seed: int, n: int) -> int:
    """The per-n stream seed the sectorial-test and berman commands use."""
    return int(np.random.SeedSequence([seed, n]).generate_state(1, np.uint64)[0])


def uniform_innovations():
    # scipy.stats is imported here, not at module level, so workloads that
    # do not use it do not pay for its import in setup_s
    from scipy.stats import uniform

    return uniform()


def factor_checks(model, dims_list, label: str) -> list[ck.Check]:
    out = []
    for dims in dims_list:
        for axis, (poly, L, n) in enumerate(zip(model.cov.axes, model.factors(dims), dims)):
            out.append(ck.toeplitz_factor(f"{label}.factor[{dims}][axis {axis}]", L, poly, n))
    return out


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = derive_seed(seed, self.name)
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tr) -> dict:
        raise NotImplementedError

    def checks(self, passes: list[dict]) -> list[ck.Check]:
        raise NotImplementedError

    def mc_verdicts(self, passes: list[dict]) -> dict:
        """Outcomes of the program's own Monte-Carlo verdicts (reported, not checked)."""
        return {}


class CliDefaults(Workload):
    name = "cli_defaults"
    why = "the six CLI commands at default configs as subprocesses: what a desk user runs"

    # command -> (takes --seed, expected exit code, expected verdicts); None
    # marks a Monte-Carlo verdict whose value depends on the RNG stream
    EXPECTED = {
        "simulate": (True, 0, {}),
        "sectorial-test": (True, None, {
            "distance_nonincreasing_within_2se": None,
            "distance_last_le_first": None,
            "berman_bound_dominates": None,
        }),
        "directional-test": (False, 2, {
            "gap_monotone_decreasing": True,
            "final_gap_within_tol": True,
            "non_gumbel_separation": False,
        }),
        "extremal-index": (False, 0, {"theta_within_tol": True}),
        "beta": (True, 0, {}),
        "berman": (True, None, {"bound_dominates": None}),
    }
    TINY_REPS = ("sectorial-test", "beta", "berman")

    def setup(self):
        model = pf.GaussianSeparableField(pf.example_covariance())
        for n in (16, 20, 40, 80):
            model.factors((n, n))
        pf.MovingMaxField(MM_WINDOW, pf.TwoAtomInnovations())
        self.out_dir = OUT / "cli"

    def argv(self, cmd: str) -> list[str]:
        takes_seed = self.EXPECTED[cmd][0]
        argv = [sys.executable, "-m", "phantomfields.cli", cmd, "--out", str(self.out_dir / cmd)]
        if takes_seed:
            argv += ["--seed", str(self.seed)]
        if self.tiny and cmd in self.TINY_REPS:
            argv += ["--reps", "20"]
        return argv

    def run_pass(self, tr):
        commands = {}
        for cmd in self.EXPECTED:
            out = self.out_dir / cmd
            shutil.rmtree(out, ignore_errors=True)
            with tr.span(f"cmd.{cmd}"):
                t0 = time.perf_counter()
                code, rss = run_child(self.argv(cmd), self.out_dir / f"{cmd}.log")
                seconds = time.perf_counter() - t0
            summary = out / "summary.json"
            results = out / "results.csv"
            commands[cmd] = {
                "code": code,
                "seconds": seconds,
                "rss_mb": rss,
                "verdicts": json.loads(summary.read_text())["verdicts"] if summary.exists() else None,
                "csv": results.read_bytes() if results.exists() else None,
            }
        return {"commands": commands, "peak_rss_mb": max(c["rss_mb"] for c in commands.values())}

    def checks(self, passes):
        out = []
        for i, p in enumerate(passes):
            for cmd, (_, want_code, want) in self.EXPECTED.items():
                got = p["commands"][cmd]
                verdicts = got["verdicts"]
                if want_code is None and verdicts is not None:
                    want_code = 0 if all(verdicts.values()) else 2
                out.append(ck.equal(f"pass {i}: {cmd} exit code", got["code"], want_code))
                if any(v is None for v in want.values()):
                    got_v = None if verdicts is None else sorted(verdicts)
                    out.append(ck.equal(f"pass {i}: {cmd} verdict names", got_v, sorted(want)))
                else:
                    out.append(ck.equal(f"pass {i}: {cmd} verdicts", verdicts, want))
                if i > 0:
                    same = got["csv"] is not None and got["csv"] == passes[0]["commands"][cmd]["csv"]
                    out.append(ck.Check(f"pass {i}: {cmd} results.csv identical on rerun", same))
        return out

    def mc_verdicts(self, passes):
        return {
            cmd: passes[0]["commands"][cmd]["verdicts"]
            for cmd, (_, code, _) in self.EXPECTED.items()
            if code is None
        }


class DiagonalMC(Workload):
    name = "diagonal_mc"
    why = "sectorial-test and berman in-process at n up to 160: short axes, per-replication overhead"

    def setup(self):
        self.ns = (5, 10) if self.tiny else DIAGONAL_NS
        self.reps = 64 if self.tiny else DIAGONAL_REPS
        self.model = pf.GaussianSeparableField(pf.example_covariance())
        for n in self.ns:
            self.model.factors((n, n))
        self.phi = phantom.normal_candidate()

    def run_pass(self, tr):
        rows = []
        for n in self.ns:
            seed = sub_seed(self.seed, n)
            with tr.span("phantom.empirical_max_law"):
                law = phantom.empirical_max_law(self.model, (n, n), self.reps, seed)
            with tr.span("phantom.phantom_distance"):
                dist = phantom.phantom_distance(law, self.phi, n * n)
            with tr.span("phantom.levels_u"):
                u = phantom.levels_u(LEVEL_C, n)
            with tr.span("diagnostics.berman_bound"):
                diagnostics.berman_bound(self.model.cov, n, u)
            with tr.span("diagnostics.bound_vs_empirical"):
                gap = diagnostics.bound_vs_empirical(self.model, n, u, self.reps, seed)
            rows.append({"n": n, "law": law, "u": u, "distance": dist, "gap": gap})
        return {"rows": rows}

    def checks(self, passes):
        out = factor_checks(self.model, [(n, n) for n in self.ns], self.name)
        for i, p in enumerate(passes):
            for r in p["rows"]:
                n, law = r["n"], r["law"]
                out.append(ck.slepian_band(f"pass {i}: n={n} max law in Slepian band", law.values, n * n))
                # both computations draw the replications of stream sub_seed(seed, n)
                out.append(ck.close(f"pass {i}: n={n} shared draws", r["gap"].p_hat, law.cdf(r["u"])))
                out.append(ck.Check(
                    f"pass {i}: n={n} distance in [0, 1]", 0.0 <= r["distance"].value <= 1.0
                ))
        return out

    def mc_verdicts(self, passes):
        return {f"bound_dominates n={r['n']}": bool(r["gap"].verdict) for r in passes[0]["rows"]}


class SkewedCurve(Workload):
    name = "skewed_curve"
    why = "block maxima along (n/ln n, ln n): a long axis 0 makes the factor and transform dominate"

    def setup(self):
        self.ns = (50, 200) if self.tiny else SKEWED_NS
        self.reps = 16 if self.tiny else SKEWED_REPS
        self.curve = pf.curve_psi_example()
        self.model = pf.GaussianSeparableField(pf.example_covariance())
        for n in self.ns:
            self.model.factors(self.curve(n))

    def run_pass(self, tr):
        with tr.span("covariance.example_covariance"):
            model = pf.GaussianSeparableField(pf.example_covariance())
        with tr.span("lattice.curve_table"):
            table = self.curve.table(max(self.ns))
        rows = []
        for n in self.ns:
            dims = tuple(int(x) for x in table[n - self.curve.n_min])
            with tr.span("sampling.factors"):
                model.factors(dims)
            with tr.span("sampling.block_maxes"):
                maxes = model.block_maxes(dims, self.reps, sub_seed(self.seed, n))
            rows.append({"n": n, "dims": dims, "maxes": maxes})
        return {"rows": rows}

    def checks(self, passes):
        first = passes[0]["rows"]
        out = factor_checks(self.model, [r["dims"] for r in first], self.name)
        if not self.tiny:
            out.append(ck.equal("curve points", tuple(r["dims"] for r in first), SKEWED_DIMS))
        for i, p in enumerate(passes):
            for r in p["rows"]:
                n_star = r["dims"][0] * r["dims"][1]
                out.append(ck.slepian_band(f"pass {i}: {r['dims']} max law in Slepian band", r["maxes"], n_star))
        return out


class MovingMaxMC(Workload):
    name = "moving_max_mc"
    why = "moving-max field: generic per-replication loop, block-split MC and the kernels module"

    def setup(self):
        self.horizon = 3 if self.tiny else MM_HORIZON
        self.reps = 100 if self.tiny else MM_REPS
        self.beta_reps = 200 if self.tiny else BETA_REPS
        self.enum_bound = (2, 2) if self.tiny else ENUM_BOUND
        p_lo = 0.3 + 0.4 * np.random.default_rng(self.seed).random()
        self.uniform_model = pf.MovingMaxField(MM_WINDOW, uniform_innovations())
        self.atom_model = pf.MovingMaxField(MM_WINDOW, pf.TwoAtomInnovations(p_lo=p_lo))
        self.diagonal = pf.curve_diagonal(2)
        self.beta_splits = diagnostics.exhaustive_splits((BETA_N, BETA_N), 2)

    def run_pass(self, tr):
        with tr.span("phantom.estimate_level_sequence"):
            levels = phantom.estimate_level_sequence(
                self.uniform_model, self.diagonal, MM_GAMMA, self.horizon, self.reps, self.seed
            )
        with tr.span("diagnostics.beta_k_estimate"):
            beta = diagnostics.beta_k_estimate(
                self.atom_model, self.diagonal, TWO_ATOM_LEVEL, 1.0, BETA_N, k=2,
                splits=self.beta_splits, reps=self.beta_reps, seed=self.seed, mode="mc",
            )
        with tr.span("diagnostics.enumeration_beta"):
            enum_beta = diagnostics.enumeration_beta(self.atom_model, self.enum_bound, TWO_ATOM_LEVEL)
        return {"levels": levels, "beta": beta.value, "enum_beta": enum_beta}

    def exact_beta(self, bound, splits) -> float:
        curve = pf.curve_from_table([bound])
        return diagnostics.beta_k_estimate(
            self.atom_model, curve, TWO_ATOM_LEVEL, 1.0, 1, k=2, splits=splits, mode="exact"
        ).value

    def checks(self, passes):
        innov = self.atom_model.innovations
        b1, b2 = self.enum_bound
        table = kernels.enum_block_cdf_table(
            self.enum_bound, MM_WINDOW, innov.lo, innov.hi, innov.p_lo, TWO_ATOM_LEVEL
        )
        exact = [[self.atom_model.exact_block_max_cdf((a, b), TWO_ATOM_LEVEL) for b in range(1, b2 + 1)]
                 for a in range(1, b1 + 1)]
        out = [ck.close("enumeration table equals exact law", table, exact)]
        beta_exact = self.exact_beta((BETA_N, BETA_N), self.beta_splits)
        enum_exact = self.exact_beta(self.enum_bound, diagnostics.exhaustive_splits(self.enum_bound, 2))
        for i, p in enumerate(passes):
            out.append(ck.level_band(
                f"pass {i}: levels in DKW band of exact law", p["levels"],
                self.uniform_model.exact_block_max_cdf, self.reps,
            ))
            out.append(ck.beta_band(
                f"pass {i}: MC beta near exact beta", p["beta"], beta_exact, self.beta_reps,
                cells=BETA_N * BETA_N, factors=4,
            ))
            out.append(ck.close(f"pass {i}: enumeration beta equals exact beta", p["enum_beta"], enum_exact))
        return out


WORKLOADS = {w.name: w for w in (CliDefaults, DiagonalMC, SkewedCurve, MovingMaxMC)}
