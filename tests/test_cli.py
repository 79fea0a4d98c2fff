import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import phantomfields
from phantomfields.cli import COMMANDS, KINDS, _build, _checked, _load_config, main


def run(args):
    return main(args)


def read_summary(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)


SMALL_SECTORIAL = {"n_grid": [6, 8], "reps": 300, "seed": 5}


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestSectorial:
    def test_small_run(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SECTORIAL)
        code = run(["sectorial-test", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code in (0, 2)
        s = read_summary(tmp_path / "o")
        assert s["config"]["reps"] == 300
        assert s["config"]["gamma1"] == 0.26
        assert set(s["verdicts"]) == {
            "distance_nonincreasing_within_2se",
            "distance_last_le_first",
            "berman_bound_dominates",
        }
        lines = (tmp_path / "o" / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per n

    def test_seed_replay_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SECTORIAL)
        run(["sectorial-test", "--config", cfg, "--out", str(tmp_path / "a")])
        run(["sectorial-test", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    def test_berman_columns_match_nested_maxes(self, tmp_path):
        # one draw per replication on the largest square, from that square's
        # stream; each row's Berman columns are bound_vs_maxima on its corner
        from phantomfields import GaussianSeparableField, berman_bound, example_covariance, levels_u
        from phantomfields.cli import _sub_seed
        from phantomfields.diagnostics import bound_vs_maxima

        cfg = write_cfg(tmp_path, SMALL_SECTORIAL)
        run(["sectorial-test", "--config", cfg, "--out", str(tmp_path / "o")])
        run(["berman", "--config", cfg, "--out", str(tmp_path / "b")])
        model = GaussianSeparableField(example_covariance())
        ns = SMALL_SECTORIAL["n_grid"]
        maxes = model.nested_maxes([(n, n) for n in ns], 300, _sub_seed(5, max(ns)))
        lines = (tmp_path / "o" / "results.csv").read_text().splitlines()[1:]
        berman = (tmp_path / "b" / "results.csv").read_text().splitlines()[1:]
        assert len(lines) == len(berman) == len(ns)
        for n, m, line, b_line in zip(ns, maxes, lines, berman):
            u = levels_u(1.0, n)
            g = bound_vs_maxima(berman_bound(model.cov, n, u).total, m, n, u)
            expected = [repr(g.p_hat), repr(g.target), repr(g.gap), repr(g.bound), str(g.verdict).lower()]
            assert line.split(",")[7:] == expected
            assert b_line.split(",")[6] == line.split(",")[9]  # berman's gap column

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SECTORIAL)
        run(["sectorial-test", "--config", cfg, "--out", str(tmp_path / "o"), "--reps", "100"])
        assert read_summary(tmp_path / "o")["config"]["reps"] == 100


class TestDirectional:
    def test_default_run_reports_defective_clause(self, tmp_path):
        code = run(["directional-test", "--out", str(tmp_path / "o")])
        s = read_summary(tmp_path / "o")
        assert s["verdicts"]["gap_monotone_decreasing"] is True
        assert s["verdicts"]["final_gap_within_tol"] is True
        # the 5x separation target fails with the classical norming
        # constants: their final gap 0.018301 is five times what the
        # quantile b_N = -ndtri(1/N) leaves; the command reports it honestly
        assert s["verdicts"]["non_gumbel_separation"] is False
        assert code == 2

    def test_small_grid(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"N_grid": [10**4, 10**5], "tol_final": 0.03, "separation_factor": 0.1},
        )
        code = run(["directional-test", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0


class TestOthers:
    def test_extremal_index_default(self, tmp_path):
        code = run(["extremal-index", "--out", str(tmp_path / "o")])
        assert code == 0
        s = read_summary(tmp_path / "o")
        assert s["verdicts"]["theta_within_tol"] is True

    def test_extremal_index_iid_is_one(self, tmp_path):
        # at n = 7, F(F^-1(gamma_in^(1/49)))^49 rounds below gamma_in: theta is 1 plus rounding
        cfg = write_cfg(tmp_path, {"model": {"kind": "iid", "marginal": "normal"}, "expected_theta": None, "n": 7})
        assert run(["extremal-index", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        row = (tmp_path / "o" / "results.csv").read_text().splitlines()[1].split(",")
        assert abs(float(row[1]) - 1.0) <= 1e-14

    def test_beta_default(self, tmp_path):
        code = run(["beta", "--out", str(tmp_path / "o")])
        assert code == 0
        rep = json.loads((tmp_path / "o" / "beta.json").read_text())
        assert rep["functional"] == "beta_k2"
        assert rep["mode"] == "exact"
        assert rep["value"] > 0.0
        assert rep["lower_bound_only"] is False

    @pytest.mark.parametrize(
        "extra, lower_bound_only",
        [
            ({}, False),  # exact on every admissible split: the functional itself
            ({"n": 8, "exhaustive": False}, True),  # exact on the quarter grid of (8, 8), a strict subset
            ({"mode": "mc", "reps": 200}, False),  # a max of noisy terms, biased upward: no bound either way
        ],
    )
    def test_beta_lower_bound_only_where_it_holds(self, tmp_path, extra, lower_bound_only):
        cfg = write_cfg(tmp_path, extra)
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "beta.json").read_text())
        assert rep["mode"] == extra.get("mode", "exact")
        assert rep["lower_bound_only"] is lower_bound_only

    @pytest.mark.parametrize("k", [0, 1])
    def test_beta_rejects_k_below_2(self, tmp_path, capsys, k):
        # the exhaustive splits of the default config are built before beta_k_estimate runs
        cfg = write_cfg(tmp_path, {"k": k})
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: k must be >= 2\n"

    def test_beta_k_checked_before_the_level_is_drawn(self, tmp_path, capsys, monkeypatch):
        # the Gaussian model has no exact law, so a null level is a Monte-Carlo draw;
        # a bad mode fails before the exhaustive split array of (60, 60) is built, too
        from phantomfields import diagnostics
        from phantomfields.sampling import FieldModel

        def no_draws(*args):
            raise AssertionError("drew before checking the config")

        built, build = [], diagnostics.exhaustive_splits
        monkeypatch.setattr(FieldModel, "batches", no_draws)
        monkeypatch.setattr(diagnostics, "exhaustive_splits", lambda *a: built.append(a) or build(*a))
        cases = [
            ({"k": 0}, "k must be >= 2", 1),
            ({"mode": "fast"}, "mode must be auto, exact or mc, got 'fast'", 0),
            ({"mode": "exact"}, "model gaussian_separable has no exact block-max law", 0),
        ]
        for extra, error, builds in cases:
            built.clear()
            cfg = write_cfg(tmp_path, {"model": {"kind": "gaussian_separable"}, "level": None, "n": 60, **extra})
            assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err == f"error: {error}\n"
            assert len(built) == builds

    def test_beta_k3_growth_verdict(self, tmp_path):
        cfg = write_cfg(tmp_path, {"k": 3})
        code = run(["beta", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert read_summary(tmp_path / "o")["verdicts"]["growth_inequality"] is True

    @pytest.mark.parametrize(
        "payload, bound",
        [
            ({"model": {"kind": "iid"}, "curve": {"kind": "diagonal", "d": 3}, "n": 2}, [2, 2, 2]),
            ({"curve": {"kind": "psi_example"}, "n": 3}, [2, 1]),
            ({"curve": {"kind": "table", "table": [[1, 1], [2, 1], [2, 2]]}, "n": 2}, [2, 1]),
        ],
    )
    def test_beta_curve_kinds(self, tmp_path, payload, bound):
        # each curve kind puts beta's box at psi(n)
        cfg = write_cfg(tmp_path, payload)
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "beta.json").read_text())["bound"] == bound

    @pytest.mark.parametrize("command", ["sectorial-test", "berman"])
    def test_sectorial_needs_reps(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, {"n_grid": [5, 10], "reps": 0})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: reps must be >= 1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sectorial-test", "berman"])
    @pytest.mark.parametrize("c", [0.0, 100.0, 1e9])
    def test_sectorial_level_checked_before_draws(self, tmp_path, capsys, monkeypatch, command, c):
        # c = 100 is outside (0, n^2) at n = 10 but not at n = 20: every level is solved first
        from phantomfields.sampling import FieldModel

        def no_draws(*args):
            raise AssertionError("drew before checking c")

        monkeypatch.setattr(FieldModel, "nested_maxes", no_draws)
        cfg = write_cfg(tmp_path, {"n_grid": [10, 20], "c": c})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: need 0 < c < n^2 = 100\n"

    @pytest.mark.parametrize("command", ["sectorial-test", "berman"])
    def test_sectorial_nonpositive_level_fails_before_draws(self, tmp_path, capsys, monkeypatch, command):
        # c = 300 has a level at n = 20, but not a positive one (c >= n^2 / 2): the Berman bound rejects it
        from phantomfields.sampling import FieldModel

        def no_draws(*args):
            raise AssertionError("drew before checking c")

        monkeypatch.setattr(FieldModel, "nested_maxes", no_draws)
        cfg = write_cfg(tmp_path, {"c": 300.0})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: u must be positive\n"

    def test_berman_with_mc(self, tmp_path):
        cfg = write_cfg(tmp_path, {"n_grid": [10], "reps": 300})
        code = run(["berman", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert read_summary(tmp_path / "o")["verdicts"]["bound_dominates"] is True

    def test_simulate(self, tmp_path):
        cfg = write_cfg(tmp_path, {"dims": [4, 6], "seed": 1})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "field.csv").read_text().splitlines()
        assert lines[0] == "# dims=4,6 seed=1"
        assert len(lines) == 5

    def test_simulate_other_models(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"model": {"kind": "moving_max", "window": [2, 2], "innovations": {"kind": "uniform"}}, "dims": [4, 4]},
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        cfg2 = write_cfg(tmp_path, {"model": {"kind": "iid", "marginal": "normal"}, "dims": [3, 3]}, "c2.json")
        assert run(["simulate", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 0

    def test_simulate_field_csv_is_the_draw(self, tmp_path):
        # field.csv holds replication 0 of the seed's stream, row-major, to the last digit
        runs = [
            ({"kind": "gaussian_separable"}, [3, 4]),
            ({"kind": "iid"}, [3, 4, 5]),
            ({"kind": "moving_max", "window": [2, 3], "innovations": {"kind": "two_atom", "p_lo": 0.3}}, [5, 4]),
        ]
        for i, (model, dims) in enumerate(runs):
            out = tmp_path / f"o{i}"
            cfg = write_cfg(tmp_path, {"model": model, "dims": dims, "seed": 77})
            assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
            lines = (out / "field.csv").read_text().splitlines()
            assert lines[0] == f"# dims={','.join(map(str, dims))} seed=77"
            parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            resolved = read_summary(out)["config"]["model"]
            values = _build("model", resolved).sample_values(dims, np.random.default_rng(77))
            assert np.array_equal(parsed, values.reshape(dims[0], -1))

    def test_beta_mc_level(self, tmp_path):
        # a model without an exact law and level null: the MC level sequence at n, on the run's seed
        from phantomfields import GaussianSeparableField, curve_diagonal, estimate_level_sequence, example_covariance

        cfg = write_cfg(tmp_path, {"model": {"kind": "gaussian_separable"}, "level": None})
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "beta.json").read_text())
        assert rep["mode"] == "mc"
        c = read_summary(tmp_path / "o")["config"]
        model = GaussianSeparableField(example_covariance())
        levels = estimate_level_sequence(model, curve_diagonal(2), c["gamma"], c["n"], c["reps"], c["seed"])
        assert levels.n_values[-1] == c["n"]
        assert rep["level"] == levels.levels[-1]


class TestInputErrors:
    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code = run(["sectorial-test", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_unknown_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"bogus": 1})
        code = run(["sectorial-test", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        code = run(["sectorial-test", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_bad_model_kind(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"kind": "perpetuum"}})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_oversized_split_grid_is_one_line(self, tmp_path, capsys):
        # k = 30 asks for a 4^30-byte grid of 3 + 1 part lengths: refused at
        # once, being beyond the address space, as a MemoryError
        cfg = write_cfg(tmp_path, {"k": 30})
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_factorization_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        from phantomfields import sampling

        def not_positive_definite(poly, n, axis=0):
            raise sampling.FactorizationError(axis=axis, minor=2)

        monkeypatch.setattr(sampling, "toeplitz_cholesky", not_positive_definite)
        cfg = write_cfg(tmp_path, {"dims": [4, 6], "seed": 1})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: axis 0 ")
        assert err.count("\n") == 1

    def test_negative_eigenvalue_is_one_line(self, tmp_path, capsys, monkeypatch):
        # a concave axis polygon: its circulant embedding has the eigenvalue -0.3
        from phantomfields import cli, sampling
        from phantomfields.covariance import CharacteristicPolygon, SeparableCovariance

        bad = CharacteristicPolygon(knots_t=np.array([0.0, 1.0, 2.0]), knots_v=np.array([1.0, 0.9, 0.5]))
        monkeypatch.setattr(cli, "_example_covariance", lambda cfg: SeparableCovariance(axes=(bad, bad)))
        cfg = write_cfg(tmp_path, {"dims": [sampling.FFT_MIN_N, 2], "seed": 1})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: axis 0 circulant embedding is not nonnegative definite (eigenvalue -0.3")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("sectorial-test", "n_grid", [40, 20, 10]),
            ("berman", "n_grid", [20, 20]),
            ("directional-test", "N_grid", [100000000, 10000]),
        ],
    )
    def test_grid_must_increase(self, tmp_path, capsys, command, key, value):
        # out of order the verdicts read the grid backwards: at n_grid
        # [40, 20, 10] and 200 reps the distance grew with n (0.085, 0.049,
        # 0.042 for n = 40, 20, 10), yet both distance verdicts held and the
        # command exited 0; directional-test judged its final gap at the
        # smaller N
        payload = {key: value, "reps": 200} if command != "directional-test" else {key: value}
        cfg = write_cfg(tmp_path, payload)
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: config field {key!r} must be strictly increasing, got {json.dumps(value)}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["gaussian_separable", "moving_max", "iid"])
    def test_empty_dims(self, tmp_path, capsys, kind):
        cfg = write_cfg(tmp_path, {"model": {"kind": kind}, "dims": [0, 4]})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "dims must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "field.csv").exists()

    def test_scalar_grid_is_one_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"n_grid": 5})
        assert run(["sectorial-test", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'n_grid' ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["extremal-index", "--out", "{file}"],  # rejected before the command runs
            ["simulate", "--out", "{file}/sub"],
            ["beta", "--config", "{dir}", "--out", "{dir}/o"],
            ["simulate", "--out", "{dir}"],  # results.csv is a directory: an error while writing
        ],
    )
    def test_file_error_is_one_line(self, tmp_path, argv):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "results.csv").mkdir(parents=True)
        argv = [a.format(file=tmp_path / "file", dir=tmp_path / "dir") for a in argv]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(phantomfields.__file__)))
        proc = subprocess.run([sys.executable, "-m", "phantomfields.cli", *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "dir" / "o").exists()

    def test_negative_reps_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"n_grid": [5], "reps": -5})
        assert run(["berman", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'reps' ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        assert run(["berman", "--reps", "-5", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: flag --reps ")

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("sectorial-test", {"n_grid": []}),
            ("directional-test", {"N_grid": []}),
            ("simulate", {"model": {"kind": "iid"}, "dims": []}),
            ("berman", {"n_grid": []}),
        ],
    )
    def test_empty_integer_list(self, tmp_path, capsys, command, payload):
        cfg = write_cfg(tmp_path, payload)
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "must be a nonempty list of nonnegative integers" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("beta", {"model": {"kind": "moving_max", "window": [2]}}),
            ("simulate", {"model": {"kind": "moving_max"}, "dims": [4]}),
        ],
    )
    def test_moving_max_dims_length(self, tmp_path, capsys, command, payload):
        cfg = write_cfg(tmp_path, payload)
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dims must have ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, payload, allowed",
        [
            ("beta", {"mode": "bogus"}, "auto, exact or mc"),
            ("beta", {"model": {"kind": "gaussian_separable"}, "mode": "exact"}, "no exact block-max law"),
            ("simulate", {"model": {"kind": "iid", "marginal": "cauchy"}}, "uniform, normal"),
            ("beta", {"model": {"kind": "moving_max", "innovations": {"kind": "gamma"}}}, "uniform, two_atom"),
            ("simulate", {"model": {"kind": "perpetuum"}}, "gaussian_separable, iid, moving_max"),
        ],
    )
    def test_no_silent_model_or_mode_default(self, tmp_path, capsys, command, payload, allowed):
        cfg = write_cfg(tmp_path, payload)
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and allowed in err
        assert err.count("\n") == 1

    def test_mc_beta_needs_reps(self, tmp_path, capsys):
        # reps 0 is a nonnegative integer, so the config loader lets it through to the command
        cfg = write_cfg(tmp_path, {"mode": "mc", "reps": 0})
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mc mode needs reps >= 1")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"kind": "moving_max", "innovations": "uniform"}, "model field 'innovations' must be an object"),
            ({"kind": "moving_max", "window": 2}, "model field 'window' must be a nonempty list"),
            ({"kind": "moving_max", "window": []}, "model field 'window' must be a nonempty list"),
            ({"kind": "moving_max", "window": [2, 1.5]}, "model field 'window' must be a nonempty list"),
            ({"kind": "moving_max", "window": [2, 0]}, "window must be >= 1"),
            ({"kind": "gaussian_separable", "gamma1": "0.3"}, "model field 'gamma1' must be a number"),
            ({"kind": "gaussian_separable", "gamma2": None}, "model field 'gamma2' must be a number"),
            ({"kind": "moving_max", "innovations": {"kind": "two_atom", "lo": [0]}}, "model field 'lo' must be a number"),
            ({"kind": "moving_max", "innovations": {"kind": "two_atom", "hi": "1"}}, "model field 'hi' must be a number"),
            ({"kind": "moving_max", "innovations": {"kind": "two_atom", "p_lo": True}}, "model field 'p_lo' must be a number"),
        ],
    )
    def test_model_field_types(self, tmp_path, capsys, model, message):
        cfg = write_cfg(tmp_path, {"model": model})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"kind": "moving_max", "windw": [3, 3]}, "model field 'windw' is not used by model kind moving_max"),
            (
                {"kind": "gaussian_separable", "window": [2, 2]},
                "model field 'window' is not used by model kind gaussian_separable",
            ),
            ({"kind": "iid", "gamma1": 0.3}, "model field 'gamma1' is not used by model kind iid"),
            (
                {"kind": "moving_max", "innovations": {"kind": "uniform", "p_lo": 0.3}},
                "model field 'p_lo' is not used by innovations kind uniform",
            ),
        ],
    )
    def test_unknown_model_field(self, tmp_path, capsys, model, message):
        # a misspelled or foreign key would otherwise run silently with the default
        cfg = write_cfg(tmp_path, {"model": model, "dims": [3, 3]})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o" / "field.csv").exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n": 0}, "dims must be >= 1 componentwise, got (0, 0)"),
            ({"gamma_in": -1}, "gamma_in must lie in (0, 1), got -1"),
            *(
                (payload, f"n* = {n_star} is too large for gamma_in = {g!r}: theta's rounding margin {margin} spans all of (0, 1]")
                for payload, n_star, g, margin in (
                    ({"n": 30_000_000}, 9 * 10**14, math.exp(-1.0), "1.6"),
                    ({"gamma_in": 0.99999999999}, 40_000, 0.99999999999, "7.11"),
                    ({"n": 10**8}, 10**16, math.exp(-1.0), "17.8"),
                )
            ),
        ],
    )
    def test_extremal_index_bad_level_inputs(self, tmp_path, capsys, payload, message):
        # n = 0 divided by zero and gamma_in < 0 made a complex power: both were tracebacks.
        # Past a rounding margin of 1 the level had moved: theta read 0.2998 at n = 3e7 and
        # 0.4485 at gamma_in = 1 - 1e-11 (exit 2), and n = 1e8 gave "both gammas must lie in (0, 1)"
        cfg = write_cfg(tmp_path, payload)
        assert run(["extremal-index", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("gamma", [-1, 0, 2])
    def test_beta_bad_gamma(self, tmp_path, capsys, gamma):
        # under the default fixed level gamma was left unread, so each ran and
        # wrote the bad value into summary.json
        cfg = write_cfg(tmp_path, {"gamma": gamma})
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: config field 'gamma' must lie in (0, 1), got {gamma}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "T, message",
        [
            (0, "constraint box floor(T * psi(n)) = (0, 0) has a coordinate below 1"),
            (0.3, "constraint box floor(T * psi(n)) = (0, 0) has a coordinate below 1"),
            (1e308, "constraint box T * psi(n) = (inf, inf) is not finite"),
        ],
    )
    def test_beta_box_out_of_range(self, tmp_path, capsys, T, message):
        # T = 0 and 0.3 reported beta 0.0 for a box of no cells; 1e308 was an OverflowError traceback
        cfg = write_cfg(tmp_path, {"T": T})
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("beta", {"level": math.nan}, "config field 'level' must be a finite number, got NaN"),
            ("directional-test", {"x": math.inf}, "config field 'x' must be a finite number, got Infinity"),
            ("directional-test", {"x": -math.inf}, "config field 'x' must be a finite number, got -Infinity"),
            (
                "extremal-index",
                {"expected_theta": math.nan},
                "config field 'expected_theta' must be a finite number, got NaN",
            ),
            ("extremal-index", {"gamma_in": 10**400}, f"config field 'gamma_in' must be a finite number, got {10 ** 400}"),
            (
                "simulate",
                {"model": {"kind": "gaussian_separable", "gamma1": math.nan}},
                "model field 'gamma1' must be a finite number, got NaN",
            ),
        ],
    )
    def test_non_finite_number(self, tmp_path, capsys, command, payload, message):
        # beta at level NaN reported beta 0.0 and directional-test gave verdicts at x = Infinity
        cfg = write_cfg(tmp_path, payload)
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, key",
        [("extremal-index", "tol"), ("directional-test", "tol_final"), ("directional-test", "separation_factor")],
    )
    def test_negative_tolerance(self, tmp_path, capsys, command, key):
        # a negative tolerance was a failed or vacuous verdict (exit 2), not an input error
        cfg = write_cfg(tmp_path, {key: -1})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: config field {key!r} must be nonnegative, got -1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "curve, message",
        [
            ({"kind": "table"}, "curve field 'table' must be a nonempty list of equal-length"),
            ({"kind": "table", "table": [[1, 1], [2]]}, "curve field 'table' must be a nonempty list of equal-length"),
            ({"kind": "diagonal", "dd": 3}, "curve field 'dd' is not used by curve kind diagonal"),
            ({"kind": "diagonal", "d": "x"}, "curve field 'd' must be a nonnegative integer"),
            ({"kind": "spiral"}, "curve kind must be one of diagonal, psi_example, table"),
            ({"kind": "table", "table": [[4, 4], [1, 1], [2, 2]]}, "table curve decreases at row 2: [1, 1] after [4, 4]"),
            ({"kind": "diagonal", "d": 0}, "diagonal curve needs d >= 1, got 0"),
            ({"kind": "table", "table": [[0, 0], [1, 1], [2, 2]]}, "table curve has a coordinate below 1 at row 1: [0, 0]"),
        ],
    )
    def test_bad_curve_field(self, tmp_path, capsys, curve, message):
        # a missing table was a KeyError traceback, "dd" ran silently with d = 2,
        # d: "x" failed without naming the field, a decreasing table ran at
        # its last point, d = 0 reported beta 0.0 on a 0-dimensional box, and a
        # row with a 0 coordinate ran on a box of 0 cells (with an iid model and
        # level null, a ZeroDivisionError traceback)
        cfg = write_cfg(tmp_path, {"curve": curve})
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sectorial-test", "directional-test", "berman"])
    @pytest.mark.parametrize("gammas", [(-1, -1), (0.9, 0.9)])
    def test_infeasible_gamma_pair(self, tmp_path, capsys, command, gammas):
        # directional-test ran both: -1, -1 exited 0 with every verdict true
        cfg = write_cfg(tmp_path, {"gamma1": gammas[0], "gamma2": gammas[1]})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma pair ") and err.endswith(" fails the feasibility chain\n")
        assert not (tmp_path / "o").exists()

    def test_usage_error_exits_1(self, tmp_path, capsys):
        # --workers is gone; a stale flag is an input error, not a failed verdict (exit 2)
        assert run(["sectorial-test", "--workers", "2", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --workers 2")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_version_embedded(self, tmp_path):
        run(["extremal-index", "--out", str(tmp_path / "o")])
        import phantomfields

        assert read_summary(tmp_path / "o")["version"] == phantomfields.__version__


# the nested objects of each command's default config, every default filled in
RESOLVED_DEFAULTS = {
    "simulate": {"model": {"kind": "gaussian_separable", "gamma1": 0.26, "gamma2": 0.10}},
    "extremal-index": {"model": {"kind": "moving_max", "window": [2, 2], "innovations": {"kind": "uniform"}}},
    "beta": {
        "model": {
            "kind": "moving_max",
            "window": [2, 2],
            "innovations": {"kind": "two_atom", "lo": 0.0, "hi": 1.0, "p_lo": 0.5},
        },
        "curve": {"kind": "diagonal", "d": 2},
    },
}


@pytest.mark.parametrize("key, kind", [(key, kind) for key, kinds in KINDS.items() for kind in kinds])
def test_every_kind_builds_from_its_defaults(key, kind):
    """Each kind of each nested object builds, from its defaults alone, an object that works."""
    given = {"kind": kind, "table": [[1, 1], [2, 3]]} if kind == "table" else {"kind": kind}
    built = _build(key, _checked(key, given, {}))
    if key == "model":
        assert built.name == kind
        assert built.sample_values((3, 2), np.random.default_rng(0)).shape == (3, 2)
    elif key == "innovations":
        assert built.rvs(size=(2, 3), random_state=np.random.default_rng(0)).shape == (2, 3)
    else:
        assert len(built(built.n_min)) == built.d


@pytest.mark.parametrize("command", list(COMMANDS))
def test_default_config_is_resolved(command):
    """No file and no flags: the config summary.json records, to the byte."""
    defaults = COMMANDS[command][1]
    cfg = _load_config(None, defaults, argparse.Namespace(seed=None, reps=None))
    expected = {**defaults, **RESOLVED_DEFAULTS.get(command, {})}
    if "gamma1" in defaults:  # the example field's pair, shared with the library's default
        expected.update(gamma1=0.26, gamma2=0.10)
    assert json.dumps(cfg, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize(
    "command, payload, key, recorded",
    [
        ("simulate", {"model": {"kind": "iid"}, "dims": [2, 2]}, "model", {"kind": "iid", "marginal": "uniform"}),
        (
            "simulate",
            {"model": {"kind": "moving_max", "innovations": {"kind": "two_atom", "lo": 0}}, "dims": [2, 2]},
            "model",
            {"kind": "moving_max", "window": [2, 2], "innovations": {"kind": "two_atom", "lo": 0, "hi": 1.0, "p_lo": 0.5}},
        ),
        ("beta", {"curve": {}}, "curve", {"kind": "diagonal", "d": 2}),
    ],
)
def test_partial_nested_config_records_defaults(tmp_path, command, payload, key, recorded):
    # summary.json recorded the object as given, not the config that ran
    cfg = write_cfg(tmp_path, payload)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert read_summary(tmp_path / "o")["config"][key] == recorded


def test_startup_leaves_out_heavy_scipy(tmp_path):
    """Importing the CLI loads no scipy, and no command loads scipy or numpy.ma.

    The normal law comes from the standard library, the Schur products from
    numpy and the circulant axes from numpy.fft, so no draw needs scipy;
    only the adaptive quadrature oracle does, and no command runs it.
    scipy.stats, scipy.integrate, scipy.optimize and scipy.fft cost 0.2-0.5 s
    of start-up each, and scipy.linalg, whose array-API layer runs
    ``from numpy import *``, loads numpy.ma (16-19 ms, which the first
    ``np.unique`` call pays too). Each command runs in its own fresh
    interpreter, because the test session has imported all of these already.
    """
    runs = {
        "extremal-index": ["extremal-index"],
        "beta": ["beta"],
        "directional-test": ["directional-test"],
        # 2000 replications per square at defaults; 20 keep the test short
        "sectorial-test": ["sectorial-test", "--reps", "20"],
        "berman": ["berman", "--reps", "20"],
    }
    models = {
        "gaussian": {"kind": "gaussian_separable"},
        "iid-uniform": {"kind": "iid", "marginal": "uniform"},
        "iid-normal": {"kind": "iid", "marginal": "normal"},
        "moving-max-uniform": {"kind": "moving_max", "innovations": {"kind": "uniform"}},
    }
    for name, model in models.items():
        cfg = write_cfg(tmp_path, {"model": model}, f"{name}.json")
        runs[f"simulate {name}"] = ["simulate", "--config", cfg]
    # axis 0 through its circulant embedding, axis 1 through its Schur factor
    cfg = write_cfg(tmp_path, {"dims": [2019, 9]}, "gaussian-circulant.json")
    runs["simulate gaussian-circulant"] = ["simulate", "--config", cfg]
    # two Schur axes of 200, each longer than a tile of the product
    cfg = write_cfg(tmp_path, {"dims": [200, 200]}, "gaussian-large.json")
    runs["simulate gaussian-large"] = ["simulate", "--config", cfg]
    # the Monte-Carlo table reduces its rectangles through _corner_maxes
    cfg = write_cfg(tmp_path, {"mode": "mc", "reps": 200}, "beta-mc.json")
    runs["beta mc"] = ["beta", "--config", cfg]
    code = (
        "import json, sys\n"
        "import phantomfields.cli\n"
        "heavy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma')\n"
        "at_import = heavy()\n"
        "print(json.dumps([at_import, phantomfields.cli.main(sys.argv[1:]), heavy()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(phantomfields.__file__)))
    for name, argv in runs.items():
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(tmp_path / name)],
            env=env, capture_output=True, text=True, check=True,
        )
        at_import, exit_code, loaded = json.loads(proc.stdout)
        assert at_import == [], name
        # directional-test exits 2 by design: its non-Gumbel separation verdict fails at defaults
        assert exit_code == (2 if name == "directional-test" else 0), name
        assert loaded == [], name


# the fields of each kind of each nested object, besides "kind"
MODEL_FIELDS, INNOVATION_FIELDS, CURVE_FIELDS = (
    {kind: tuple(fields) for kind, (_, fields) in KINDS[what].items()} for what in ("model", "innovations", "curve")
)

# one config field replaced by an arbitrary small JSON value
SCALARS = st.one_of(
    st.integers(-2, 4),
    st.floats(-2, 4, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
)
JSON_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))


def kind_objects(fields_by_kind, values):
    """Objects with a valid kind and a few of its fields (or a foreign one), each with an arbitrary value."""

    def with_fields(kind):
        keys = st.sampled_from(fields_by_kind[kind] + ("extra",))
        return st.dictionaries(keys, values, max_size=2).map(lambda d: {"kind": kind, **d})

    return st.sampled_from(sorted(fields_by_kind)).flatmap(with_fields)


INNOVATIONS = kind_objects(INNOVATION_FIELDS, JSON_VALUES)
MODELS = kind_objects(MODEL_FIELDS, st.one_of(JSON_VALUES, INNOVATIONS))
CURVES = kind_objects(CURVE_FIELDS, st.one_of(JSON_VALUES, st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3)))


def field_values(default):
    """Values shaped like ``default`` first (so the search reaches past the type check), then any."""
    if isinstance(default, dict):
        near = MODELS if default["kind"] in MODEL_FIELDS else CURVES
    elif isinstance(default, list):
        near = st.lists(st.integers(-2, 4), max_size=3)
    else:
        near = SCALARS
    return st.one_of(near, JSON_VALUES, MODELS, CURVES)


@pytest.mark.parametrize(
    "command, key", [(command, key) for command, (_, defaults) in COMMANDS.items() for key in defaults]
)
@settings(max_examples=10, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz_exits_cleanly(tmp_path, capsys, command, key, data):
    """Any one config field set to a small JSON value: exit 0, 1 or 2, and an input error is one line."""
    defaults = COMMANDS[command][1]
    cfg = write_cfg(tmp_path, {key: data.draw(field_values(defaults[key]), label="value")})
    reps = ["--reps", "2"] if "reps" in defaults else []
    code = main([command, "--config", cfg, *reps, "--out", str(tmp_path / "o")])
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz_several_fields(tmp_path, capsys, command, data):
    """Two or three config fields set together: exit 0, 1 or 2, and an input error is one line."""
    defaults = COMMANDS[command][1]
    keys = data.draw(st.lists(st.sampled_from(list(defaults)), min_size=2, max_size=3, unique=True), label="keys")
    cfg = write_cfg(tmp_path, {key: data.draw(field_values(defaults[key]), label=key) for key in keys})
    reps = ["--reps", "2"] if "reps" in defaults else []
    code = main([command, "--config", cfg, *reps, "--out", str(tmp_path / "o")])
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
