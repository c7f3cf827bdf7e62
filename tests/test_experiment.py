import json
import time

import numpy as np
import pytest

import faircluster.experiment as experiment
import faircluster.fair as fair
import faircluster.instance as instance_mod
from faircluster.cli import main as cli_main
from faircluster.config import config_from_mapping
from faircluster.datasets import write_synthetic_csv


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    write_synthetic_csv(path, n=80, seed=5)
    return path


def make_config(csv_path, outdir, **kw):
    data = {
        "dataset_path": str(csv_path),
        "coordinate_columns": ["x", "y"],
        "sensitive_attributes": ["sex", "married"],
        "k_values": [2, 3],
        "p": 2,
        "delta_values": [0.2, "vacuous"],
        "seed": 4,
        "output_dir": str(outdir),
    }
    data.update(kw)
    return config_from_mapping(data)


def test_grid_run_outputs(small_csv, tmp_path):
    cfg = make_config(small_csv, tmp_path / "out", run_aflp=True, run_oracle=False)
    summary = experiment.run_experiment(cfg)
    assert summary.all_ok
    report = json.loads(summary.report_path.read_text())
    assert len(report["cells"]) == 4
    hard = report["ingest"]["violation_hard_bound"]
    assert hard == 11  # Delta = 2
    for cell in report["cells"]:
        assert cell["status"] == "ok"
        assert cell["lambda_max"] <= hard
        assert sum(cell["cluster_sizes"].values()) == report["ingest"]["n"]
        if cell["delta"] == "vacuous":
            assert cell["cost_of_fairness"] == pytest.approx(1.0)
            assert cell["lambda_max"] == 0.0
        else:
            assert cell["aflp_cost"] <= cell["fair_cost"] * (1 + 1e-9) + 1e-9
        assert len(cell["largest_clusters"]) == min(3, len(cell["cluster_sizes"]))

    cells_lines = summary.cells_path.read_text().splitlines()
    assert len(cells_lines) == 5  # header + 4 cells
    clusters_head = summary.clusters_path.read_text().splitlines()[0]
    assert clusters_head.startswith("k,delta,facility,size,balance,top3,count_")


def test_determinism_byte_identical(small_csv, tmp_path):
    cfg_a = make_config(small_csv, tmp_path / "a")
    cfg_b = make_config(small_csv, tmp_path / "b")
    sa = experiment.run_experiment(cfg_a)
    sb = experiment.run_experiment(cfg_b)
    assert sa.cells_path.read_bytes() == sb.cells_path.read_bytes()
    assert sa.clusters_path.read_bytes() == sb.clusters_path.read_bytes()


def test_jobs_parallel_matches_serial(small_csv, tmp_path):
    serial = experiment.run_experiment(make_config(small_csv, tmp_path / "s", jobs=1))
    parallel = experiment.run_experiment(make_config(small_csv, tmp_path / "p", jobs=3))
    assert serial.cells_path.read_bytes() == parallel.cells_path.read_bytes()


def test_cell_failure_is_isolated(small_csv, tmp_path, monkeypatch):
    real = experiment.fair_clustering
    calls = {"n": 0}

    def flaky(vanilla, profile):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic cell failure")
        return real(vanilla, profile)

    monkeypatch.setattr(experiment, "fair_clustering", flaky)
    cfg = make_config(small_csv, tmp_path / "out")
    summary = experiment.run_experiment(cfg)
    assert not summary.all_ok
    statuses = list(summary.statuses)
    assert statuses.count("ok") == 3
    assert any("synthetic cell failure" in s for s in statuses)


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_vanilla_solve_per_k(small_csv, tmp_path, monkeypatch, jobs):
    real = fair.solve_vanilla
    solved = []

    def counting(instance, solver, seed=0):
        solved.append(instance.k)
        return real(instance, solver, seed)

    monkeypatch.setattr(fair, "solve_vanilla", counting)
    cfg = make_config(small_csv, tmp_path / "out", jobs=jobs,
                      delta_values=[0.1, 0.2, "vacuous"])
    summary = experiment.run_experiment(cfg)
    assert summary.all_ok
    assert sorted(solved) == [2, 3]
    report = json.loads(summary.report_path.read_text())
    for k in (2, 3):
        cells = [c for c in report["cells"] if c["k"] == k]
        assert len(cells) == 3
        # every delta cell of a k reports the k's one solve
        assert len({c["timings_ms"]["vanilla"] for c in cells}) == 1
        assert len({c["vanilla_cost"] for c in cells}) == 1
        assert all(set(c["timings_ms"]) == {"vanilla", "fair_assignment"} for c in cells)


def test_vanilla_time_charged_to_first_cell_of_k(small_csv, tmp_path, monkeypatch):
    real = fair.solve_vanilla

    def slow(instance, solver, seed=0):
        time.sleep(0.25)
        return real(instance, solver, seed)

    monkeypatch.setattr(fair, "solve_vanilla", slow)
    cfg = make_config(small_csv, tmp_path / "out", k_values=[2],
                      delta_values=["vacuous", "vacuous"])
    first, second = json.loads(experiment.run_experiment(cfg).report_path.read_text())["cells"]
    assert first["timings_ms"]["vanilla"] == second["timings_ms"]["vanilla"] >= 250.0
    # so the cells' wall_ms still add up to the run: the solve counts once
    assert first["wall_ms"] >= 250.0 > second["wall_ms"]


def test_vanilla_failure_fails_only_that_k(small_csv, tmp_path, monkeypatch):
    real = fair.solve_vanilla

    def failing_k3(instance, solver, seed=0):
        if instance.k == 3:
            raise RuntimeError("synthetic vanilla failure")
        return real(instance, solver, seed)

    monkeypatch.setattr(fair, "solve_vanilla", failing_k3)
    summary = experiment.run_experiment(make_config(small_csv, tmp_path / "out"))
    report = json.loads(summary.report_path.read_text())
    statuses = {(c["k"], c["delta"]): c["status"] for c in report["cells"]}
    assert statuses == {
        (2, 0.2): "ok", (2, "vacuous"): "ok",
        (3, 0.2): "failed: synthetic vanilla failure",
        (3, "vacuous"): "failed: synthetic vanilla failure",
    }


def test_one_distance_matrix_per_run(small_csv, tmp_path, monkeypatch):
    real = instance_mod.cdist
    shapes = []

    def counting(a, b, *args, **kwargs):
        shapes.append((len(a), len(b)))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(instance_mod, "cdist", counting)
    cfg = make_config(small_csv, tmp_path / "out", delta_values=[0.1, 0.2, "vacuous"])
    assert experiment.run_experiment(cfg).all_ok
    assert shapes == [(80, 80)]


def test_lp_floor_warning_recorded(tmp_path, monkeypatch):
    # same geometry as the rounding-undercut fixture: the rounded cost drops
    # below the LP value, which must surface as a warning, not a failure
    csv = tmp_path / "tiny.csv"
    csv.write_text("x,y,g\n0.0,0.0,a\n0.0,0.0,b\n4.0,0.0,b\n")
    cfg = make_config(csv, tmp_path / "out", sensitive_attributes=["g"],
                      k_values=[2], delta_values=[0.2], p=1)
    import faircluster.instance as instance_mod

    def forced_profile(inst, delta):
        return instance_mod.FairnessProfile(alpha=(0.4, 1.0), beta=(0.2, 0.0))

    monkeypatch.setattr(experiment, "delta_to_profile", forced_profile)
    summary = experiment.run_experiment(cfg)
    assert summary.all_ok
    report = json.loads(summary.report_path.read_text())
    cell = report["cells"][0]
    assert cell["fair_cost"] == pytest.approx(0.0)
    assert cell["lp_objective"] == pytest.approx(4.0 / 3.0)
    assert any("below LP floor" in w for w in cell["warnings"])


def test_lb_report(small_csv, tmp_path):
    cfg = make_config(small_csv, tmp_path / "out", k_values=[2], max_points=30,
                      L=5)
    path = experiment.run_lb(cfg)
    rows = json.loads(path.read_text())["rows"]
    assert rows[0]["status"] == "ok"
    assert all(size >= 5 for size in rows[0]["cluster_sizes"].values())
    assert 1 <= rows[0]["subsets_solved"] <= rows[0]["subsets_evaluated"] == 3


def test_vacuous_k_center_radius_is_reported(small_csv, tmp_path):
    cfg = make_config(small_csv, tmp_path / "out", k_values=[2], p="inf", max_points=30,
                      delta_values=[0.2, "vacuous"])
    report = json.loads(experiment.run_experiment(cfg).report_path.read_text())
    cells = {c["delta"]: c for c in report["cells"]}
    assert cells["vacuous"]["status"] == "ok"
    assert cells["vacuous"]["radius"] == cells["vacuous"]["fair_cost"]
    assert cells[0.2]["fair_cost"] <= cells[0.2]["radius"]


def test_oracle_report(small_csv, tmp_path):
    cfg = make_config(small_csv, tmp_path / "out", k_values=[2], max_points=9,
                      delta_values=[0.5])
    path = experiment.run_oracle(cfg)
    rows = json.loads(path.read_text())["rows"]
    assert rows[0]["status"] == "ok"
    assert rows[0]["opt_vnll"] <= rows[0]["opt_fair"] + 1e-9


class TestCli:
    def write_cfg(self, tmp_path, csv_path, **kw):
        lines = [
            f"dataset_path: {csv_path}",
            "coordinate_columns: [x, y]",
            "sensitive_attributes: [sex, married]",
            "k_values: [2]",
            "p: 2",
            "delta_values: [0.2]",
            f"output_dir: {tmp_path / 'out'}",
        ]
        lines += [f"{k}: {v}" for k, v in kw.items()]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("\n".join(lines) + "\n")
        return cfg

    def test_run_exit_zero(self, small_csv, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, small_csv, max_points=40)
        assert cli_main(["run", "--config", str(cfg), "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "cells.csv" in out

    def test_config_error_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert cli_main(["run", "--config", str(missing)]) == 1

    def test_bad_override_exit_one(self, small_csv, tmp_path):
        cfg = self.write_cfg(tmp_path, small_csv)
        assert cli_main(["run", "--config", str(cfg), "--override", "p=7"]) == 1

    def test_lb_command(self, small_csv, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, small_csv, max_points=25)
        assert cli_main(["lb", "--config", str(cfg), "--L", "4"]) == 0
        assert "lb_report" in capsys.readouterr().out

    def test_lb_bad_L_exit_one(self, small_csv, tmp_path):
        cfg = self.write_cfg(tmp_path, small_csv, max_points=25)
        assert cli_main(["lb", "--config", str(cfg), "--L", "0"]) == 1
        assert cli_main(["lb", "--config", str(cfg)]) == 1

    def test_oracle_command(self, small_csv, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, small_csv, max_points=9)
        assert cli_main(["oracle", "--config", str(cfg)]) == 0
        assert "oracle_report" in capsys.readouterr().out

    def test_partial_failure_exit_two(self, small_csv, tmp_path, monkeypatch):
        real = experiment.fair_clustering
        calls = {"n": 0}

        def flaky(vanilla, profile):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return real(vanilla, profile)

        monkeypatch.setattr(experiment, "fair_clustering", flaky)
        cfg = self.write_cfg(tmp_path, small_csv, max_points=40)
        assert cli_main(["run", "--config", str(cfg)]) == 2
