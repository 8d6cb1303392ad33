import importlib
import json
import math

import numpy as np
import pytest

from volterra_deviations.cli import config_hash, read_paths_binary, run


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


BERGOMI_REC = {"variant": "rough_bergomi", "a": 0.5, "rho": -0.5, "y0": -3.2, "hurst": 0.1}


class TestKernelsCommand:
    def test_regularity_report(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "k.json",
            {
                "kernel": {"kind": "power_law", "hurst": 0.1},
                "gamma_claim": 0.2,
                "h_grid": [2.0**-j for j in range(4, 11)],
            },
        )
        assert run(["kernels", "--config", cfg, "--deterministic"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True
        assert rep["fitted_slope"] == pytest.approx(0.2, abs=0.03)
        assert "timestamp" not in rep["_meta"]


class TestSimulateCommand:
    def test_binary_round_trip(self, tmp_path):
        cfg = write(
            tmp_path,
            "sim.json",
            {
                "model": BERGOMI_REC,
                "regime": {"kind": "small_time_ldp", "eps": 0.25},
                "grid": {"horizon": 1.0, "n_steps": 16},
            },
        )
        out = str(tmp_path / "paths.bin")
        assert run(["simulate", "--config", cfg, "--paths", "50", "--seed", "3", "--out", out]) == 0
        arr = read_paths_binary(out)
        assert arr.shape == (50, 17, 2)
        assert np.isfinite(arr).all()

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "bad.json",
            {
                "model": {
                    "variant": "rough_heston",
                    "kappa": 1.0,
                    "theta": 0.04,
                    "xi": 0.3,
                    "rho": -0.7,
                    "y0": 0.04,
                    "hurst": 0.7,
                },
                "regime": {"kind": "small_time_ldp", "eps": 0.25},
                "grid": {"horizon": 1.0, "n_steps": 16},
            },
        )
        assert run(["simulate", "--config", cfg, "--paths", "10", "--seed", "1"]) == 2
        assert "hurst" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "extra.json",
            {
                "model": BERGOMI_REC,
                "regime": {"kind": "small_time_ldp", "eps": 0.25},
                "grid": {"horizon": 1.0, "n_steps": 16},
                "bogus": 1,
            },
        )
        assert run(["simulate", "--config", cfg, "--paths", "10", "--seed", "1"]) == 2

    def test_seed_outside_stream_range_exit_1(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "sim.json",
            {
                "model": BERGOMI_REC,
                "regime": {"kind": "small_time_ldp", "eps": 0.25},
                "grid": {"horizon": 1.0, "n_steps": 16},
            },
        )
        for seed in ("-1", str(2**63)):
            assert run(["simulate", "--config", cfg, "--paths", "10", "--seed", seed]) == 1
            assert "seed" in capsys.readouterr().err

    def test_bad_thread_count_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = write(
            tmp_path,
            "sim.json",
            {
                "model": BERGOMI_REC,
                "regime": {"kind": "small_time_ldp", "eps": 0.25},
                "grid": {"horizon": 1.0, "n_steps": 8},
            },
        )
        for threads in ("0", "-3"):
            argv = ["simulate", "--config", cfg, "--paths", "10", "--seed", "1"]
            assert run(argv + ["--threads", threads]) == 2
            assert "threads" in capsys.readouterr().err
        monkeypatch.setenv("VD_THREADS", "abc")
        assert run(["simulate", "--config", cfg, "--paths", "10", "--seed", "1"]) == 2
        assert "VD_THREADS" in capsys.readouterr().err

    def test_idempotent_deterministic_output(self, tmp_path):
        cfg = write(
            tmp_path,
            "sim.json",
            {
                "model": BERGOMI_REC,
                "regime": {"kind": "small_time_ldp", "eps": 0.25},
                "grid": {"horizon": 1.0, "n_steps": 8},
            },
        )
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            assert (
                run(
                    [
                        "simulate",
                        "--config",
                        cfg,
                        "--paths",
                        "20",
                        "--seed",
                        "9",
                        "--out",
                        out,
                        "--deterministic",
                    ]
                )
                == 0
            )
        assert open(a).read() == open(b).read()
        first = open(a).readline()
        assert first.startswith("# config_hash=")
        assert "seed=9" in first


    def test_header_reports_the_bump_and_the_stream_range(self, tmp_path):
        header = {}
        for hurst in (0.1, 0.5):
            cfg = write(
                tmp_path,
                "sim.json",
                {
                    "model": dict(BERGOMI_REC, hurst=hurst),
                    "regime": {"kind": "small_time_ldp", "eps": 0.25},
                    "grid": {"horizon": 1.0, "n_steps": 8},
                },
            )
            out = str(tmp_path / "paths.csv")
            argv = ["simulate", "--config", cfg, "--paths", "20", "--seed", "9"]
            assert run(argv + ["--out", out, "--deterministic"]) == 0
            header[hurst] = dict(f.split("=") for f in open(out).readline()[2:].split())
        assert header[0.1]["regularized"] == "0.0"
        # H = 1/2 makes the joint covariance singular (Z = W), so it is bumped
        assert float(header[0.5]["regularized"]) > 0.0
        assert header[0.1]["paths"] == header[0.5]["paths"] == "0..19"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--deterministic", "simulate", "--paths", "10", "--seed", "1"],
            ["--threads", "3", "simulate", "--paths", "10", "--seed", "1"],
            ["kernels", "--threads", "3"],
        ],
    )
    def test_a_flag_off_its_subcommand_is_rejected(self, tmp_path, capsys, argv):
        # a flag its subcommand does not read fails instead of being dropped
        cfg = write(tmp_path, "cfg.json", {})
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--config", cfg])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestRateCommand:
    def test_minimize_zero_terminal(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "m.json",
            {"model": BERGOMI_REC, "grid": {"horizon": 1.0, "n_steps": 64}},
        )
        assert run(["rate", "minimize", "--model", cfg, "--terminal", "x=0", "--deterministic"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["value"] == 0.0
        assert rep["converged"] is True

    def test_eval_on_path_csv(self, tmp_path, capsys):
        n = 256
        t = np.linspace(0.0, 1.0, n + 1)
        vphi = -3.2 + 0.5 * t**0.6
        lines = ["t,phi,vphi"] + [
            f"{float(t[i])!r},0.0,{float(vphi[i])!r}" for i in range(n + 1)
        ]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines))
        rec = dict(BERGOMI_REC, rho=0.0)
        cfg = write(tmp_path, "m.json", {"model": rec, "family": "small_time"})
        assert run(["rate", "eval", "--model", cfg, "--path", str(path), "--deterministic"]) == 0
        rep = json.loads(capsys.readouterr().out)
        from scipy.special import gamma as gamma_fn

        want = 0.5 * 0.25 * gamma_fn(1.6) ** 2
        assert rep["value"] == pytest.approx(want, rel=1e-6)

    def test_eval_on_a_path_with_a_nan_sample_is_a_domain_error(self, tmp_path, capsys):
        n = 64
        t = np.linspace(0.0, 1.0, n + 1)
        y0 = math.log(0.04)
        rows = [f"{x!r},{0.1 * x!r},{y0 + 0.2 * x**0.6!r}" for x in map(float, t)]
        rows[21] = rows[21].rsplit(",", 1)[0] + ",nan"
        path = tmp_path / "p.csv"
        path.write_text("t,phi,vphi\n" + "\n".join(rows) + "\n")
        cfg = write(tmp_path, "m.json", {"model": dict(BERGOMI_REC, y0=y0), "family": "small_time"})
        assert run(["rate", "eval", "--model", cfg, "--path", str(path)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_eval_on_a_one_row_path_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("t,phi,vphi\n0.0,0.0,-3.2\n")
        cfg = write(tmp_path, "m.json", {"model": BERGOMI_REC})
        assert run(["rate", "eval", "--model", cfg, "--path", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


    @pytest.mark.parametrize("bad_row", [9, 4])
    def test_eval_on_a_path_with_a_typo_names_the_line(self, tmp_path, capsys, bad_row):
        # a 9-row path on [0, 1]; the file's first line is the header
        rows = [f"{i / 8!r},0.0,-2.7" for i in range(9)]
        rows[bad_row - 1] = rows[bad_row - 1].replace("0.0", "0.O")
        path = tmp_path / "p.csv"
        path.write_text("# a comment\nt,phi,vphi\n" + "\n".join(rows) + "\n")
        cfg = write(tmp_path, "m.json", {"model": BERGOMI_REC})
        assert run(["rate", "eval", "--model", cfg, "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"line {bad_row + 2}:" in err and "0.O" in err

    def test_eval_reports_regularization_not_a_solver_certificate(self, tmp_path, capsys):
        from volterra_deviations.kernels import GridFunction, TimeGrid
        from volterra_deviations.rate_functions import heston_rate
        from volterra_deviations.sve_sim import RoughHeston

        n = 64
        t = np.linspace(0.0, 1.0, n + 1)
        vphi = 0.04 + 0.02 * t**0.6
        lines = ["t,phi,vphi"] + [
            f"{float(t[i])!r},0.0,{float(vphi[i])!r}" for i in range(n + 1)
        ]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines))
        params = {"kappa": 1.0, "theta": 0.04, "xi": 0.3, "rho": 0.0, "y0": 0.04, "hurst": 0.1}
        models = {
            "heston": dict(params, variant="rough_heston"),
            "bergomi": dict(BERGOMI_REC, rho=0.0),
        }
        reports = {}
        for name, rec in models.items():
            cfg = write(
                tmp_path, f"{name}.json", {"model": rec, "family": "small_time", "delta": 1e-3}
            )
            argv = ["rate", "eval", "--model", cfg, "--path", str(path), "--deterministic"]
            assert run(argv) == 0
            reports[name] = json.loads(capsys.readouterr().out)
        for rep in reports.values():
            assert "converged" not in rep
            assert "constraint_violation" not in rep
        grid = TimeGrid(1.0, n)
        want = heston_rate(
            RoughHeston(**params),
            GridFunction(grid, np.zeros(n + 1)),
            GridFunction(grid, vphi),
            delta=1e-3,
        )
        assert reports["heston"]["regularization_delta"] == 1e-3
        assert reports["heston"]["richardson_value"] == pytest.approx(
            want.richardson_value, rel=1e-12
        )
        assert reports["bergomi"]["regularization_delta"] is None
        assert reports["bergomi"]["richardson_value"] is None

    def test_minimize_reports_iterations_and_starts(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "m.json",
            {"model": BERGOMI_REC, "grid": {"horizon": 1.0, "n_steps": 32}},
        )
        argv = ["rate", "minimize", "--model", cfg, "--terminal", "x=0.1", "--deterministic"]
        assert run(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["converged"] is True
        assert [s["level"] for s in rep["starts"]] == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert rep["iterations"] == sum(s["iterations"] for s in rep["starts"]) > 0
        assert rep["value"] == min(s["energy"] for s in rep["starts"])
        assert all(s["violation"] <= 1e-4 for s in rep["starts"])
        assert all(s["evaluations"] >= s["iterations"] for s in rep["starts"])
        assert all(s["D"] > 0.0 for s in rep["starts"])
        # each start says why its L-BFGS run ended
        assert all(s["stop"] in ("gtol", "ftol") for s in rep["starts"])

    @pytest.mark.parametrize("terminal", ["x=nan", "x=inf", "y=-inf", "x=abc"])
    def test_minimize_rejects_non_finite_terminal(self, tmp_path, terminal):
        cfg = write(
            tmp_path,
            "m.json",
            {"model": BERGOMI_REC, "grid": {"horizon": 1.0, "n_steps": 16}},
        )
        argv = ["rate", "minimize", "--model", cfg, "--terminal", terminal, "--deterministic"]
        assert run(argv) == 2

    def test_minimize_converged_is_the_best_starts_status(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "m.json",
            {"model": BERGOMI_REC, "grid": {"horizon": 1.0, "n_steps": 32}},
        )
        argv = ["rate", "minimize", "--model", cfg, "--terminal", "x=0.1", "--deterministic"]
        assert run(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        best = min(rep["starts"], key=lambda s: s["energy"])
        assert rep["converged"] is best["converged"] is True
        assert rep["constraint_violation"] <= 1e-12
        for s in rep["starts"]:
            assert s["skipped"] is None
            assert math.isfinite(s["grad_norm"]) and s["lam"] > 0.0

class TestSmileCommand:
    def test_mdp_smile_csv(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "m.json",
            {
                "model": {
                    "variant": "rough_heston",
                    "kappa": 1.0,
                    "theta": 0.04,
                    "xi": 0.25,
                    "rho": -0.6,
                    "y0": 0.04,
                    "hurst": 0.1,
                },
                "smile": {"maturity": 0.02, "strikes": [0.5, 1.0], "beta": 0.05},
            },
        )
        assert run(["smile", "--model", cfg, "--regime", "mdp", "--deterministic"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "t,k,sigma_hat,stderr"
        assert float(out[2].split(",")[2]) == pytest.approx(0.2)


    def test_mc_smile_passes_threads_to_simulate(self, tmp_path, capsys, monkeypatch):
        # the package re-exports the function implied_vol under the module's name
        implied_vol = importlib.import_module("volterra_deviations.implied_vol")
        seen = []
        simulate = implied_vol.simulate

        def recording(*args, threads=None, **kw):
            ens = simulate(*args, threads=threads, **kw)
            seen.append((threads, ens.components.tolist(), ens.paths.shape))
            return ens

        monkeypatch.setattr(implied_vol, "simulate", recording)
        cfg = write(
            tmp_path,
            "m.json",
            {
                "model": BERGOMI_REC,
                "smile": {"maturity": 0.1, "strikes": [0.0, 0.05], "paths": 2000, "n_steps": 16},
            },
        )
        assert run(["smile", "--model", cfg, "--regime", "mc", "--threads", "3"]) == 0
        # one volatility-only run: (m, v) per path, no log price
        assert seen == [(3, [1], (2000, 2))]
        header, columns, *rows = capsys.readouterr().out.splitlines()
        bump = float(header.split(" regularized=")[1])
        assert bump >= 0.0
        assert columns == "t,k,sigma_hat,stderr,control_coef,variance_ratio"
        for row in rows:
            beta, ratio = map(float, row.split(",")[4:])
            assert math.isfinite(beta) and ratio >= 1.0


    # json reads NaN and +-Infinity, and a NaN passes every schema bound
    @pytest.mark.parametrize(
        "blk, constant",
        [({"maturity": math.nan, "strikes": [0.05]}, "NaN"),
         ({"maturity": 0.1, "strikes": [math.nan]}, "NaN"),
         ({"maturity": 0.1, "strikes": [-math.inf]}, "-Infinity")],
    )
    def test_non_finite_constants_exit_2(self, tmp_path, capsys, blk, constant):
        cfg = write(tmp_path, "m.json", {"model": BERGOMI_REC, "smile": dict(blk, paths=2000)})
        out = str(tmp_path / "s.csv")
        assert run(["smile", "--model", cfg, "--regime", "mc", "--out", out]) == 2
        assert constant in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("regime, fn", [("ldp", "smile_ldp"), ("tail", "smile_tail")])
    @pytest.mark.parametrize("n_steps", [None, 24])
    def test_solver_smiles_take_n_steps(self, tmp_path, monkeypatch, regime, fn, n_steps):
        implied_vol = importlib.import_module("volterra_deviations.implied_vol")
        seen = []

        def recording(*args, **kw):
            seen.append(kw)
            return implied_vol.SmilePoint(0.1, 0.2, 0.3, "stub", attained=0.25)

        monkeypatch.setattr(implied_vol, fn, recording)
        blk = {"maturity": 0.1, "strikes": [0.2]}
        if n_steps is not None:
            blk["n_steps"] = n_steps
        cfg = write(tmp_path, "m.json", {"model": BERGOMI_REC, "smile": blk})
        out = str(tmp_path / "s.csv")
        assert run(["smile", "--model", cfg, "--regime", regime, "--out", out]) == 0
        # absent, the function keeps its own default grid
        assert seen == [{} if n_steps is None else {"n_steps": n_steps}]
        lines = open(out).read().splitlines()
        assert lines[1] == "t,k,sigma_hat,stderr,k_attained"
        assert float(lines[2].split(",")[4]) == 0.25

    def test_ldp_smile_csv_reports_the_attained_strike(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "m.json",
            {"model": BERGOMI_REC, "smile": {"maturity": 0.01, "strikes": [-0.1], "n_steps": 32}},
        )
        assert run(["smile", "--model", cfg, "--regime", "ldp", "--deterministic"]) == 0
        out = capsys.readouterr().out.splitlines()
        t, k, sig, se, att = map(float, out[2].split(","))
        assert sig > 0.0 and math.isnan(se)
        assert att == pytest.approx(k, abs=1e-12)


class TestLimitCommand:
    def test_small_time_family_csv(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "lim.json",
            {
                "model": dict(BERGOMI_REC, rho=0.0),
                "grid": {"horizon": 1.0, "n_steps": 64},
                "family": "small_time",
                "control": {"v": {"constant": 0.5}},
            },
        )
        assert run(["limit", "solve", "--config", cfg, "--deterministic"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "t,phi,vphi"
        from scipy.special import gamma as gamma_fn

        last = lines[-1].split(",")
        want = -3.2 + 0.5 / gamma_fn(1.6)
        assert float(last[2]) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("family", ["small_time", "tail", "mdp"])
    def test_header_states_the_picard_certificate(self, tmp_path, capsys, family):
        from volterra_deviations.volterra_det import TOL_SINGULAR

        ss = {"variant": "rough_stein_stein", "kappa": 0.5, "theta": 0.1, "xi": 0.4,
              "rho": -0.3, "y0": 0.3, "hurst": 0.1}
        cfg = write(
            tmp_path,
            "lim.json",
            {
                "model": ss,
                "grid": {"horizon": 1.0, "n_steps": 64},
                "family": family,
                "control": {"v": {"constant": 0.5}, "u": {"constant": 0.2}},
            },
        )
        outs = []
        for _ in range(2):
            assert run(["limit", "solve", "--config", cfg, "--deterministic"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        fields = dict(f.split("=", 1) for f in outs[0].splitlines()[0][2:].split())
        assert int(fields["picard_iterations"]) >= 1
        assert 0.0 <= float(fields["residual"]) <= TOL_SINGULAR


    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert run(["limit", "solve", "--config", missing, "--deterministic"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "lim.json"
        cfg.write_text('{"model": {"variant": "rough_bergomi",')
        assert run(["limit", "solve", "--config", str(cfg), "--deterministic"]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("n_values", [65, 64, 66, 1])
    def test_control_values_must_match_the_grid(self, tmp_path, capsys, n_values):
        # "values" gives the control at every node of the 64-step grid
        values = list(np.linspace(0.0, 0.5, n_values))
        cfg = write(
            tmp_path,
            "lim.json",
            {
                "model": dict(BERGOMI_REC, rho=0.0),
                "grid": {"horizon": 1.0, "n_steps": 64},
                "family": "small_time",
                "control": {"v": {"values": values}},
            },
        )
        code = run(["limit", "solve", "--config", cfg, "--deterministic"])
        if n_values == 65:
            assert code == 0
            rows = capsys.readouterr().out.splitlines()[2:]
            assert len(rows) == 65
        else:
            assert code == 2
            assert f"control/v/values has {n_values} samples" in capsys.readouterr().err


class TestVerifyCommand:
    def test_end_to_end_gaussian(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "exp.json",
            {
                "model": {"variant": "rough_bergomi", "a": 0.0, "rho": 0.0, "y0": -3.2, "hurst": 0.1},
                "event": {"component": 1, "level": -2.2},
                "epsilons": [0.4 ** 10, 0.3 ** 10, 0.2 ** 10],
                "regime": "small_time_ldp",
                "paths": 20000,
                "seed": 4,
                "grid": {"horizon": 1.0, "n_steps": 32},
                "importance_sampling": True,
                "reference_rate": 0.2217693553924176,
            },
        )
        assert run(["verify", "--experiment", cfg, "--deterministic"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["relative_gap"] < 0.25
        assert len(rep["p_hats"]) == 3
        assert rep["used_importance_sampling"] is True
        # per-level importance-weight diagnostics
        assert len(rep["ess"]) == len(rep["max_weight_shares"]) == 3
        assert all(1.0 < e < 20000 for e in rep["ess"])
        assert all(1.0 / 20000 < s < 1.0 for s in rep["max_weight_shares"])
        decays, fs = rep["second_moment_decays"], rep["f_values"]
        assert len(decays) == 3 and all(2.0 * f <= d < f for d, f in zip(decays, fs))
        assert rep["normals_per_path"] == [1, 1, 1]  # the terminal node's normal alone

    def test_reports_each_level_cholesky_bump(self, tmp_path, capsys):
        bumps = {}
        for hurst in (0.1, 0.5):
            rec = {
                "model": dict(BERGOMI_REC, a=0.0, hurst=hurst),
                "event": {"component": 1, "level": BERGOMI_REC["y0"]},
                "epsilons": [0.5, 0.25],
                "regime": "small_time_ldp",
                "paths": 1000,
                "seed": 3,
                "grid": {"horizon": 1.0, "n_steps": 8},
            }
            cfg = write(tmp_path, f"exp{hurst}.json", rec)
            assert run(["verify", "--experiment", cfg, "--deterministic"]) == 0
            out = json.loads(capsys.readouterr().out)
            bumps[hurst] = out["regularized"]
            assert out["ess"] is None and out["max_weight_shares"] is None  # no weights
            assert out["second_moment_decays"] is None
            assert out["normals_per_path"] == [1, 1]
        assert bumps[0.1] == [0.0, 0.0]
        # H = 1/2 makes the joint covariance singular (Z = W), so it is bumped
        assert len(bumps[0.5]) == 2 and bumps[0.5][0] == bumps[0.5][1] > 0.0

    @pytest.mark.parametrize(
        "change",
        [
            {"epsilons": [0.01, 0.02]},
            {"epsilons": [0.02, -0.01]},
            {"epsilons": [0.02]},
            {"regime": "small_time_mdp"},
        ],
    )
    def test_bad_sweep_is_a_config_error_before_any_work(self, tmp_path, capsys, monkeypatch, change):
        from volterra_deviations import mc_verify

        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the experiment was checked")

        for name in ("build_is_control", "simulate", "simulate_controlled"):
            monkeypatch.setattr(mc_verify, name, forbidden)
        rec = {
            "model": BERGOMI_REC,
            "event": {"component": 1, "level": -2.2},
            "epsilons": [0.02, 0.01],
            "regime": "small_time_ldp",
            "paths": 1000,
            "seed": 0,
            "grid": {"horizon": 1.0, "n_steps": 8},
            "importance_sampling": True,
        }
        cfg = write(tmp_path, "exp.json", dict(rec, **change))
        assert run(["verify", "--experiment", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


    def test_a_component_the_model_lacks_fails_before_drawing(self, tmp_path, capsys, monkeypatch):
        from volterra_deviations import sve_sim

        monkeypatch.setattr(sve_sim, "_normal_block", None)  # any draw would fail
        rec = {
            "model": BERGOMI_REC,
            "event": {"component": 2, "level": -2.2},
            "epsilons": [0.02, 0.01],
            "regime": "small_time_ldp",
            "paths": 1000,
            "seed": 0,
            "grid": {"horizon": 1.0, "n_steps": 8},
        }
        cfg = write(tmp_path, "exp.json", rec)
        assert run(["verify", "--experiment", cfg]) == 1
        assert "components" in capsys.readouterr().err


class TestConfigHash:
    def test_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
