"""Tests of the benchmark itself: tiny smoke runs and negative checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import harness

harness.pin_environment()

import pytest  # noqa: E402

import phantomfields as pf  # noqa: E402

import checks as ck  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_code():
    # moving_max_mc runs on request but is left out of BENCHMARK.json (README.md says why)
    assert [w["name"] for w in SPEC["workloads"]] == [n for n in wl.WORKLOADS if n != "moving_max_mc"]
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == layers.metric_units()


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    res = run.measure(name, seed=3, seconds=0, trace=False, tiny=True)["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: m["unit"] for k, m in res["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    record = run.measure("moving_max_mc", seed=3, seconds=0, trace=True, tiny=True)
    res = record["result"]
    assert res["correct"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == _units("per_layer")
    spans = json.loads(open(record["trace_file"]).read())["spans"]
    assert {"name", "start", "end", "parent", "pass"} <= set(spans[0])
    assert any(s["pass"] == "layers" for s in spans)


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagonal_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_summarize_reports_percentile_only_with_ten_samples_beyond():
    assert "percentile" not in harness.summarize(range(19))
    s = harness.summarize(range(100))
    assert s["percentile"] == 90.0 and s["n"] == 100


# --- every correctness check can fail -------------------------------------------


def test_slepian_band():
    model = pf.GaussianSeparableField(pf.example_covariance())
    maxes = model.block_maxes((10, 10), 500, seed=1)
    assert ck.slepian_band("ok", maxes, 100).ok
    assert not ck.slepian_band("above Slepian's lower bound", maxes + 1.0, 100).ok
    assert not ck.slepian_band("below the marginal", maxes - 3.0, 100).ok


def test_toeplitz_factor():
    model = pf.GaussianSeparableField(pf.example_covariance())
    L = model.factors((30, 4))[0]
    poly = model.cov.axes[0]
    assert ck.toeplitz_factor("ok", L, poly, 30).ok
    assert not ck.toeplitz_factor("scaled", L * (1 + 1e-9), poly, 30).ok
    assert not ck.toeplitz_factor("shape", L[:-1, :-1], poly, 30).ok


def test_level_band_rejects_wrong_exact_law():
    model = pf.MovingMaxField((2, 2), wl.uniform_innovations())
    levels = pf.estimate_level_sequence(model, pf.curve_diagonal(2), wl.MM_GAMMA, 4, 400, seed=5)
    assert ck.level_band("ok", levels, model.exact_block_max_cdf, 400).ok
    wrong = pf.MovingMaxField((3, 3), wl.uniform_innovations())
    assert not ck.level_band("wrong law", levels, wrong.exact_block_max_cdf, 400).ok


def test_beta_band():
    assert ck.beta_band("ok", 0.10, 0.12, 2000, cells=9, factors=4).ok
    assert not ck.beta_band("far", 0.10, 0.60, 2000, cells=9, factors=4).ok


def test_enumeration_table_against_wrong_exact_law():
    table = pf.kernels.enum_block_cdf_table((2, 2), (2, 2), 0.0, 1.0, 0.4, 0.5)
    for p_lo, ok in ((0.4, True), (0.41, False)):
        model = pf.MovingMaxField((2, 2), pf.TwoAtomInnovations(p_lo=p_lo))
        exact = [[model.exact_block_max_cdf((a, b), 0.5) for b in (1, 2)] for a in (1, 2)]
        assert ck.close("table", table, exact).ok is ok


def _cli_pass(**changes):
    cmds = {}
    for cmd, (_, code, verdicts) in wl.CliDefaults.EXPECTED.items():
        v = {k: True if want is None else want for k, want in verdicts.items()}
        cmds[cmd] = {"code": code if code is not None else 0, "verdicts": v, "csv": b"a,b\n"}
    for cmd, fields in changes.items():
        cmds[cmd.replace("_", "-")] |= fields
    return {"commands": cmds}


def _failed(passes):
    w = wl.CliDefaults(seed=1)
    return [c.name for c in w.checks(passes) if not c.ok]


def test_cli_checks():
    assert _failed([_cli_pass(), _cli_pass()]) == []
    # a Monte-Carlo verdict may fail as long as the exit code agrees with it
    mc_fail = {"verdicts": {"bound_dominates": False}, "code": 2}
    assert _failed([_cli_pass(berman=mc_fail), _cli_pass(berman=mc_fail)]) == []
    assert _failed([_cli_pass(directional_test={"code": 0}), _cli_pass()])
    assert _failed([_cli_pass(berman={"code": 2}), _cli_pass()])
    assert _failed([_cli_pass(extremal_index={"verdicts": {"theta_within_tol": False}})])
    assert _failed([_cli_pass(), _cli_pass(simulate={"csv": b"a,c\n"})])
    assert _failed([_cli_pass(sectorial_test={"verdicts": None, "code": 1})])


def test_derived_seeds_are_deterministic():
    assert wl.derive_seed(7, "x") == wl.derive_seed(7, "x") != wl.derive_seed(8, "x")
