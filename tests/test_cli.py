import json
import math
from dataclasses import replace

import pytest

from signalmfg.cli import (
    CSV_COLUMNS,
    ConfigError,
    emit_csv,
    load_config,
    main,
    read_config,
    run_experiment,
)

FAST_SOLVER = {"tol": 1e-8, "max_iter": 500, "damping": 1.0}


def fast_config(**extra):
    raw = {"quadrature": {"nodes": 64, "L": 8.0}, "solver": FAST_SOLVER}
    raw.update(extra)
    return load_config(raw)


class TestConfig:
    def test_defaults_reproduce_case_study(self):
        cfg = load_config({})
        m = cfg.market
        assert (m.r, m.kappa, m.sigma0, m.sigma_hat, m.lam) == (0.0, 0.08, 0.3, 0.1, 10.0)
        assert cfg.reference.types[0].p_s == 0.5
        assert cfg.sweep_parameter == "p_s_B"
        assert cfg.horizon == 1.0

    def test_horizon_has_one_source(self):
        cfg = load_config({"horizon": 2.5})
        assert cfg.horizon == cfg.solver.horizon == 2.5
        moved = replace(cfg, solver=replace(cfg.solver, horizon=0.5))
        assert moved.horizon == 0.5
        with pytest.raises(TypeError):
            replace(cfg, horizon=3.0)

    def test_unknown_sweep_parameter_rejected(self):
        with pytest.raises(ConfigError, match="sweep parameter"):
            load_config({"sweep": {"parameter": "alpha_B"}})

    def test_unknown_type_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config({"reference": {"A": {"x_0": 1.0}}})

    def test_invalid_reference_rejected(self):
        with pytest.raises(ConfigError, match="invalid reference"):
            load_config({"reference": {"A": {"alpha": 1.0}}})

    def test_missing_file_reports_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config("/nonexistent/config.json")

    def test_invalid_json_reports_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            read_config(str(p))


class TestEmitCsv:
    def test_empty_table_is_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv([], out)
        assert out.read_bytes() == (",".join(CSV_COLUMNS) + "\n").encode()

    def test_row_count(self, tmp_path):
        rows = [
            {c: (i if c == "iterations" else (i % 2 == 0) if c == "converged" else 0.1 * i) for c in CSV_COLUMNS}
            for i in range(5)
        ]
        out = tmp_path / "five.csv"
        emit_csv(rows, out)
        text = out.read_text()
        assert text.endswith("\n") and "\r" not in text
        assert len(text.splitlines()) == 6

    def test_round_trip_within_format_precision(self, tmp_path):
        value = 1.0100501670841681
        rows = [{c: value for c in CSV_COLUMNS}]
        rows[0]["iterations"] = 3
        rows[0]["converged"] = True
        out = tmp_path / "rt.csv"
        emit_csv(rows, out)
        cell = out.read_text().splitlines()[1].split(",")[1]
        assert float(cell) == pytest.approx(value, abs=abs(value) * 1e-11)


class TestRunExperiment:
    def test_reference_grid_point_has_unit_ce(self):
        cfg = fast_config(sweep={"parameter": "p_s_B", "grid": [0.5]})
        rows, notes = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0]["converged"]
        assert rows[0]["certainty_equivalent"] == pytest.approx(1.0, abs=1e-9)

    def test_p_s_clamped_below_one(self):
        cfg = fast_config(sweep={"parameter": "p_s_B", "grid": [1.0]})
        rows, notes = run_experiment(cfg)
        assert rows[0]["sweep_value"] == pytest.approx(1.0 - 1e-6)
        assert any("clamped" in n for n in notes)

    def test_weak_peer_signal_quality_converges(self):
        # rho_B = 0.03 ran all 500 iterations with a golden-section best response
        rows, notes = run_experiment(load_config({"sweep": {"parameter": "rho_B", "grid": [0.03]}}))
        assert rows[0]["converged"], notes
        assert rows[0]["iterations"] < 50

    def test_certainty_equivalent_uses_horizon(self):
        cfg = fast_config(horizon=2.0, sweep={"parameter": "p_s_B", "grid": [0.0]})
        row = run_experiment(cfg)[0][0]
        assert row["certainty_equivalent"] == pytest.approx(
            math.exp(2.0 * (row["M_A_alt"] - row["M_A_ref"])), rel=1e-14
        )

    def test_non_convergence_flagged_not_raised(self):
        cfg = fast_config(solver={"tol": 1e-8, "max_iter": 1, "damping": 1.0},
                          sweep={"parameter": "theta_B", "grid": [0.9]})
        rows, _ = run_experiment(cfg)
        assert rows and not rows[0]["converged"]


class TestMain:
    def test_solve_exit_zero(self, capsys, tmp_path):
        cfg = {"quadrature": {"nodes": 64}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "solve"]) == 0
        out = capsys.readouterr().out
        assert "converged=True" in out

    def test_sweep_writes_csv_and_is_deterministic(self, tmp_path):
        cfg = {
            "quadrature": {"nodes": 64},
            "sweep": {"parameter": "theta_B", "grid": [0.25, 0.75]},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", str(p), "--out", str(out1), "sweep"]) == 0
        assert main(["--config", str(p), "--out", str(out2), "sweep"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 3

    def test_sweep_nonconvergence_exit_two(self, tmp_path):
        cfg = {
            "quadrature": {"nodes": 64},
            "solver": {"max_iter": 1},
            "sweep": {"parameter": "theta_B", "grid": [0.9]},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "--out", str(tmp_path / "x.csv"), "sweep"]) == 2

    def test_bad_config_exit_one(self, capsys):
        assert main(["--config", "/nope.json", "solve"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("parameter, value", [("rho_B", 1.0), ("theta_B", 1.5), ("p_s_B", -0.1)])
    def test_invalid_sweep_point_exit_one(self, capsys, tmp_path, parameter, value):
        # An invalid grid point stops the run before any solve, with one error line.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"sweep": {"parameter": parameter, "grid": [0.5, value]}}))
        assert main(["--config", str(p), "--out", str(tmp_path / "x.csv"), "sweep"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: invalid sweep point {parameter}={value}:")
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "x.csv").exists()

    def test_simulate_runs_small(self, capsys, tmp_path):
        cfg = {
            "quadrature": {"nodes": 64},
            "mc": {"n_paths": 2000, "seed": 5},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "simulate"]) == 0
        out = capsys.readouterr().out
        assert "closed-form" in out and "gap" in out

    def test_seed_and_nodes_overrides(self, tmp_path, capsys):
        cfg = {"mc": {"n_paths": 1000, "seed": 1}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "--seed", "2", "--nodes", "64", "simulate"]) == 0
