"""Command-line front end: outputs, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from ecoplatoon.cli import EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_OK, main


@pytest.fixture
def fast_scenario(tmp_path):
    """Collector-style scenario coarsened for test speed."""
    raw = {
        "name": "fast",
        "road": {"preset": "collector"},
        "platoon": {
            "n_vehicles": 3,
            "target_speed": {"value": 45, "units": "mph"},
            "speed_limit": {"value": 75, "units": "mph"},
            "ds_m": 1.0,
            "route_length_m": 800.0,
        },
        "weights": {
            "q1": 500, "q2": 0.01, "q3": 50000, "r1": 60, "qv": 200000,
            "power_floor": 0.0,
        },
        "baseline": {"dt_s": 0.05},
        "initial_time_errors_s": [0.0, 0.4, -0.3],
        "perturbation": {"magnitude_mps": 0.5, "shape": "step"},
    }
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(raw))
    return path


def read_bytes_map(outdir: Path):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


class TestSimulate:
    def test_writes_expected_files(self, fast_scenario, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(fast_scenario), "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("trajectories.csv", "fuel_series.csv", "summary.json",
                     "solve_report.json", "plot_results.py"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["fuel_total_L"]["eco"] > 0
        assert "max_violation" in summary
        assert "wall_time" in summary
        header = (out / "trajectories.csv").read_text().splitlines()[0]
        assert header.startswith("step,s_m,t1_s,v1_mps,a1_mps2,aeq1_mps2")
        n_rows = len((out / "trajectories.csv").read_text().splitlines()) - 1
        assert n_rows == 801  # one row per spatial step

    def test_missing_scenario_exits_config(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "gone.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "gone.json" in capsys.readouterr().err

    def test_nan_weight_exits_config(self, fast_scenario, tmp_path, capsys):
        raw = json.loads(fast_scenario.read_text())
        raw["weights"]["q1"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(raw))
        assert '"q1": NaN' in bad.read_text()
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "q1" in capsys.readouterr().err

    def test_nan_gravity_exits_config(self, fast_scenario, tmp_path, capsys):
        raw = json.loads(fast_scenario.read_text())
        raw["platoon"]["gravity"] = float("nan")
        bad = tmp_path / "nan_gravity.json"
        bad.write_text(json.dumps(raw))
        assert '"gravity": NaN' in bad.read_text()
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "gravity" in capsys.readouterr().err

    def test_non_convergence_exit_code(self, fast_scenario, tmp_path):
        raw = json.loads(fast_scenario.read_text())
        raw["solver"] = {"max_inner": 1, "max_outer": 1}
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(strict), "--out", str(tmp_path / "o2")])
        assert rc == EXIT_NO_CONVERGENCE

    def test_reruns_byte_identical(self, fast_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(fast_scenario), "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(fast_scenario), "--out", str(out2)]) == 0
        m1, m2 = read_bytes_map(out1), read_bytes_map(out2)
        assert m1.keys() == m2.keys()
        for name in m1:
            if name.endswith(".csv"):
                assert m1[name] == m2[name], name

    def test_overwrite_is_atomic_and_clean(self, fast_scenario, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(fast_scenario), "--out", str(out)]) == 0
        first = read_bytes_map(out)
        assert main(["simulate", "--scenario", str(fast_scenario), "--out", str(out)]) == 0
        second = read_bytes_map(out)
        assert first.keys() == second.keys()
        assert not list(out.glob("*.tmp"))


class TestCompare:
    def test_savings_reported(self, fast_scenario, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--scenario", str(fast_scenario), "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fuel_total_L"]["baseline"] > 0
        assert summary["savings_pct"] is not None
        assert (out / "segment_deltas.csv").exists()
        assert (out / "speed_series.csv").exists()
        lines = (out / "segment_deltas.csv").read_text().splitlines()
        assert len(lines) == 9  # header + 8 terrain segments

    def test_ecology_ablation_near_zero_savings(self, fast_scenario, tmp_path):
        raw = json.loads(fast_scenario.read_text())
        raw["weights"]["q2"] = 0.0
        ablated = tmp_path / "ablated.json"
        ablated.write_text(json.dumps(raw))
        out = tmp_path / "abl"
        assert main(["compare", "--scenario", str(ablated), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["savings_pct"]) < 3.0


class TestStability:
    def test_gamma_table_written(self, fast_scenario, tmp_path):
        out = tmp_path / "stab"
        rc = main(["stability", "--scenario", str(fast_scenario), "--out", str(out)])
        assert rc == EXIT_OK
        stab = json.loads((out / "stability.json").read_text())
        assert stab["stable"] is True
        assert (out / "gamma.csv").exists()
        assert (out / "following_errors.csv").exists()
        assert (out / "deviations.csv").exists()

    def test_missing_perturbation_is_config_error(self, fast_scenario, tmp_path):
        raw = json.loads(fast_scenario.read_text())
        del raw["perturbation"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(raw))
        rc = main(["stability", "--scenario", str(bare), "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG


class TestBench:
    def test_timing_table(self, fast_scenario, tmp_path):
        out = tmp_path / "bench"
        rc = main([
            "bench", "--scenario", str(fast_scenario), "--out", str(out),
            "--ds-sweep", "1.0", "--window-sweep", "20", "40",
            "--max-executions", "5",
        ])
        assert rc == EXIT_OK
        rows = json.loads((out / "timings.json").read_text())
        assert len(rows) == 2
        assert all(r["mean_s"] > 0 and r["max_s"] >= r["mean_s"] for r in rows)
        # larger window never solves faster on average
        assert rows[1]["mean_s"] >= rows[0]["mean_s"] * 0.8
