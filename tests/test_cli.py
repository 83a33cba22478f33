import argparse
import contextlib
import dataclasses
import functools
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srdf_kit
from srdf_kit import cli
from srdf_kit.cli import _write_csv, main
from srdf_kit.srdf import RATE_CAP_BITS

from conftest import knot_simpson, reference_optimize_set_table

REPO = Path(__file__).parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).parent / "golden"


MODEL = "model:\n  sigma: [[1.0, 0.5], [0.5, 1.0]]\n"
FIELD = "field:\n  kernel: {type: gauss-markov, p: 0.5}\n"
GRID = "grid: {min: 1.0, max: 1.5, count: 2}\n"
# the fixed-var-corr family of sigma2 1 on [0.2, 0.8], spelled as an affine one
AFFINE_CORR_FAMILY = {"template": "affine", "base": [[1.0, 0.0], [0.0, 1.0]], "directions": [[[0.0, 1.0], [1.0, 0.0]]],
                      "box": [[0.2, 0.8]]}
FAMILY = "family: {template: fixed-var-corr, sigma2: 1.0, box: [[0.2, 0.8]], prior: uniform, grid_res: 3}\nsampling: [1]\n"
AFFINE = ("family: {template: affine, base: [[1.0, 0.3], [0.3, 1.0]], directions: [[[1.0, 0.0], [0.0, 0.0]]],"
          " box: [[0.0, 0.4]], prior: uniform, grid_res: 3}\nsampling: [1]\n")


def run(task, config, out, extra=()):
    return main([task, "--config", str(config), "--out", str(out), *extra])


def at_9_digits(value):
    """A JSON value with each float written to 9 significant digits, as the golden CSVs hold them."""
    if isinstance(value, dict):
        return {key: at_9_digits(v) for key, v in value.items()}
    if isinstance(value, list):
        return [at_9_digits(v) for v in value]
    return f"{value:.9g}" if isinstance(value, float) else value


def write_mesh(path, n, p=0.5):
    """Write the p^|s-u| kernel tabulated on an n-knot mesh in the mesh CSV format."""
    lines = [str(n)] + [f"{i},{j},{p ** (abs(i - j) / (n - 1))!r}" for i in range(n) for j in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestArtifacts:
    def test_srdf_outputs(self, tmp_path):
        assert run("srdf", CONFIGS / "three_component_srdf.yaml", tmp_path) == 0
        curve = (tmp_path / "curve.csv").read_text(encoding="utf-8")
        assert curve.splitlines()[0] == "delta,rate_bits"
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["tool"] == "srdf-kit"
        assert summary["task"] == "srdf"
        assert summary["delta_min"] == pytest.approx(1.66)
        assert summary["delta_max"] == pytest.approx(3.0)
        assert len(summary["eigenvalues"]) == 1

    def test_srdf_matches_golden(self, tmp_path):
        run("srdf", CONFIGS / "three_component_srdf.yaml", tmp_path)
        got = (tmp_path / "curve.csv").read_bytes()
        assert got == (GOLDEN / "three_component_srdf_curve.csv").read_bytes()

    def test_distrate_outputs(self, tmp_path):
        assert run("distrate", CONFIGS / "three_component_distrate.yaml", tmp_path) == 0
        lines = (tmp_path / "curve.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rate_bits,delta"
        assert len(lines) == 18

    def test_distrate_at_huge_rates_reads_the_floor_without_overflow(self, tmp_path):
        # 2 * rate overflowed before the cap was applied, from both the CLI and the inverse waterfill
        cfg = yaml.safe_load((CONFIGS / "three_component_distrate.yaml").read_text(encoding="utf-8"))
        cfg["grid"]["max"] = 1.0e308
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            assert run("distrate", config, tmp_path / "out") == 0
            assert srdf_kit.waterfill_inverse([1.0, 2.0], 1e308) == 0.0
        floor = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))["delta_min"]
        rows = np.loadtxt(tmp_path / "out" / "curve.csv", delimiter=",", skiprows=1)
        capped = rows[rows[:, 0] >= RATE_CAP_BITS]
        assert len(capped) == 16 and (capped[:, 1] == float(f"{floor:.9g}")).all()

    def test_gmf_outputs(self, tmp_path):
        assert run("gmf-srdf", CONFIGS / "exp_field_srdf.yaml", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["delta_min"] == pytest.approx(0.2786524795553, abs=1e-9)
        assert summary["delta_max"] == pytest.approx(1.0, abs=1e-9)

    def test_bayes_matches_golden(self, tmp_path):
        assert run("usrdf-bayes", CONFIGS / "corr_family_bayes.yaml", tmp_path) == 0
        got = (tmp_path / "curve.csv").read_bytes()
        assert got == (GOLDEN / "corr_family_bayes_curve.csv").read_bytes()
        assert (tmp_path / "allocation.csv").exists()

    @pytest.mark.parametrize(
        "task,config,artifact",
        [
            ("distrate", "three_component_distrate", "curve.csv"),
            ("gmf-srdf", "exp_field_srdf", "curve.csv"),
            ("usrdf-bayes", "corr_family_bayes", "allocation.csv"),
            ("optimize-set", "subset_search", "table.csv"),
            ("place", "exp_field_place", "points.csv"),
        ],
    )
    def test_shipped_csv_matches_golden(self, tmp_path, task, config, artifact):
        assert run(task, CONFIGS / f"{config}.yaml", tmp_path) == 0
        assert (tmp_path / artifact).read_bytes() == (GOLDEN / f"{config}_{artifact}").read_bytes()

    @pytest.mark.parametrize("task,config", [("simulate", "two_step_sim"), ("usim", "corr_family_usim")])
    def test_shipped_report_matches_golden(self, tmp_path, task, config):
        # the keys exactly, and every number to 9 significant digits
        assert run(task, CONFIGS / f"{config}.yaml", tmp_path) == 0
        got = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        want = json.loads((GOLDEN / f"{config}_report.json").read_text(encoding="utf-8"))
        assert at_9_digits(got) == at_9_digits(want)

    def test_bayes_golden_is_the_one_atom_closed_form(self):
        # one atom with a single mode 1.25 above the floor 0.75, so R = log2(1.25 / (delta - 0.75)) / 2
        lines = (GOLDEN / "corr_family_bayes_curve.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 11
        for line in lines[1:]:
            delta, rate = line.split(",")
            assert rate == f"{0.5 * math.log2(1.25 / (float(delta) - 0.75)):.9g}"

    def test_nonbayes_matches_golden(self, tmp_path):
        assert run("usrdf-nonbayes", CONFIGS / "corr_family_nonbayes.yaml", tmp_path) == 0
        got = (tmp_path / "curve.csv").read_bytes()
        assert got == (GOLDEN / "corr_family_nonbayes_curve.csv").read_bytes()

    def test_affine_spelling_of_the_correlation_family_matches_the_nonbayes_golden(self, tmp_path):
        # the worst-case closed form is read from the matrices, not from the template that built them
        cfg = yaml.safe_load((CONFIGS / "corr_family_nonbayes.yaml").read_text(encoding="utf-8"))
        cfg["family"] = {**AFFINE_CORR_FAMILY, "prior": "uniform", "grid_res": 33}
        config = tmp_path / "affine.yaml"
        config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run("usrdf-nonbayes", config, tmp_path / "out") == 0
        got = (tmp_path / "out" / "curve.csv").read_bytes()
        assert got == (GOLDEN / "corr_family_nonbayes_curve.csv").read_bytes()

    def test_optimize_set_outputs(self, tmp_path):
        assert run("optimize-set", CONFIGS / "subset_search.yaml", tmp_path) == 0
        lines = (tmp_path / "table.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "subset,delta_min,rate_bits"
        assert len(lines) == 7  # header + C(4,2)
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["best_subset"] == [2, 3]

    def test_closing_line_names_the_output_directory(self, tmp_path, monkeypatch, capsys):
        # an absolute path, made without resolving it; a relative --out is taken from the working directory
        monkeypatch.chdir(tmp_path)
        assert run("srdf", CONFIGS / "three_component_srdf.yaml", "out") == 0
        assert capsys.readouterr().out == f"wrote {Path.cwd() / 'out'}\n"

    def test_place_outputs(self, tmp_path):
        assert run("place", CONFIGS / "exp_field_place.yaml", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        pts = summary["points"]
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert pts[1] == pytest.approx(0.5, abs=1e-2)

    @pytest.mark.parametrize("task", ["gmf-srdf", "place"])
    @pytest.mark.parametrize("kernel", ["gauss-markov", "tabulated"])
    def test_summary_names_the_integration_path(self, tmp_path, task, kernel):
        write_mesh(tmp_path / "mesh.csv", 2)
        block = {"gauss-markov": "{type: gauss-markov, p: 0.5}",
                 "tabulated": "{type: tabulated, mesh_csv: mesh.csv}"}[kernel]
        body = "points: [0.5]\n" + GRID if task == "gmf-srdf" else "placement: {k: 1, restarts: 1}\n"
        cfg = tmp_path / "field.yaml"
        cfg.write_text(f"field:\n  kernel: {block}\n  quad_points: 512\n{body}", encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["integrals"] == {"gauss-markov": "closed-form", "tabulated": "mesh-simpson"}[kernel]
        # both paths are exact, so the accepted quad_points is never reported
        assert "quad_points" not in summary
        if task == "place":
            # the Gauss-Markov floor is minimized exactly; restarts only counts for the search
            solver = "exact" if kernel == "gauss-markov" else "search"
            assert summary["solver"] == solver
            assert summary.get("restarts") == (1 if solver == "search" else None)
            # so do the search's evaluations and per-restart values, steps and gradient norms;
            # here the start, the centre of a symmetric mesh, is already stationary
            per_restart = ("restart_values", "restart_iterations", "restart_gradient_norms")
            if solver == "search":
                assert isinstance(summary["objective_calls"], int) and summary["objective_calls"] >= 1
                assert summary["restart_values"] == [summary["value"]]
                assert summary["restart_iterations"] == [0] and summary["restart_gradient_norms"] == [0.0]
            else:
                assert all(key not in summary for key in ("objective_calls", *per_restart))

    @pytest.mark.parametrize("seed_line, argv, want", [
        pytest.param(", seed: 1552545901", (), 1552545901, id="config"),
        pytest.param(", seed: 1552545901", ("--seed", "7"), 7, id="override"),
        pytest.param("", (), 0, id="default"),
    ])
    def test_place_summary_records_the_search_seed(self, tmp_path, seed_line, argv, want):
        # the search draws its restarts from --seed, else placement.seed, else 0, and says which
        cfg = tmp_path / "place.yaml"
        cfg.write_text(FIELD + f"placement: {{k: 3, objective: min_rate_at, delta: 0.3, restarts: 3{seed_line}}}\n",
                       encoding="utf-8")
        assert run("place", cfg, tmp_path / "out", argv) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["solver"] == "search" and summary["seed"] == want
        # the recorded seed reruns the same search
        bare = tmp_path / "bare.yaml"
        bare.write_text(FIELD + "placement: {k: 3, objective: min_rate_at, delta: 0.3, restarts: 3}\n",
                        encoding="utf-8")
        assert run("place", bare, tmp_path / "again", ("--seed", str(want))) == 0
        again = json.loads((tmp_path / "again" / "summary.json").read_text(encoding="utf-8"))
        assert again == summary
        assert (tmp_path / "again" / "points.csv").read_bytes() == (tmp_path / "out" / "points.csv").read_bytes()

    @pytest.mark.parametrize("argv, want", [((), None), (("--seed", "7"), 7)])
    def test_exact_placement_records_only_a_given_seed(self, tmp_path, argv, want):
        # the exact solver draws nothing: the summary keeps what the command line gave
        cfg = tmp_path / "place.yaml"
        cfg.write_text(FIELD + "placement: {k: 3, seed: 5}\n", encoding="utf-8")
        assert run("place", cfg, tmp_path / "out", argv) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["solver"] == "exact" and summary["seed"] == want

    def test_free_rate_placement_leaves_an_infeasible_equispaced_start(self, tmp_path, capsys):
        # the equispaced start (0.25, 0.75) has floor 0.1347, above delta
        cfg = tmp_path / "place.yaml"
        cfg.write_text(FIELD + "placement: {k: 2, objective: min_rate_at, delta: 0.1336, restarts: 4}\n",
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("place", cfg, tmp_path / "out") == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["value"] == pytest.approx(8.87, abs=5e-3)
        assert len(summary["restart_values"]) == 4 and summary["value"] in summary["restart_values"]
        assert len(summary["restart_iterations"]) == len(summary["restart_gradient_norms"]) == 4

    def test_determined_tabulated_field_is_resolved(self, tmp_path):
        # two samples on one mesh cell leave a floor of rounding noise
        write_mesh(tmp_path / "mesh.csv", 2)
        cfg = tmp_path / "cell.yaml"
        cfg.write_text("field:\n  kernel: {type: tabulated, mesh_csv: mesh.csv}\n  quad_points: 512\n"
                       "points: [0.25, 0.75]\ngrid: {min: 0.2, max: 0.6, count: 2}\n", encoding="utf-8")
        assert run("gmf-srdf", cfg, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["delta_min"] == pytest.approx(0.0, abs=1e-12)

    def test_off_mesh_tabulated_field_is_exact(self, tmp_path):
        write_mesh(tmp_path / "mesh.csv", 17)
        cfg = tmp_path / "off.yaml"
        cfg.write_text("field:\n  kernel: {type: tabulated, mesh_csv: mesh.csv}\n  quad_points: 2048\n"
                       "points: [0.23, 0.61]\ngrid: {min: 0.2, max: 0.6, count: 2}\n", encoding="utf-8")
        assert run("gmf-srdf", cfg, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        # oracle: a fine Simpson rule with knots at the mesh lines, where the integrands crease
        kernel = srdf_kit.TabulatedKernel.from_mesh_csv(tmp_path / "mesh.csv")
        mass, variance = knot_simpson(kernel, [0.23, 0.61], np.linspace(0.0, 1.0, 17), panels=64)
        floor = variance - float(np.trace(np.linalg.solve(summary["gram"], mass)))
        assert summary["delta_min"] == pytest.approx(floor, rel=1e-12)
        assert summary["delta_max"] == pytest.approx(variance, rel=1e-12)

    def test_simulate_outputs(self, tmp_path):
        assert run("simulate", CONFIGS / "two_step_sim.yaml", tmp_path) == 0
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        rep = payload["report"]
        assert rep["kind"] == "fixed"
        assert rep["eval_blocks"] == 5000
        assert rep["total_mse"]["mean"] > rep["delta_min"]

    def test_usim_outputs(self, tmp_path):
        assert run("usim", CONFIGS / "corr_family_usim.yaml", tmp_path) == 0
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        rep = payload["report"]
        assert rep["kind"] == "universal"
        assert 0.0 <= rep["estimator_hit_rate"] <= 1.0
        assert rep["grid_size"] == 1

    def test_seed_override_recorded(self, tmp_path):
        assert run("simulate", CONFIGS / "two_step_sim.yaml", tmp_path, ("--seed", "99")) == 0
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert payload["seed"] == 99
        assert payload["report"]["seed"] == 99

    def test_srdf_writes_rate_zero_at_the_delta_max_of_its_summary(self, tmp_path):
        # modes small beside the floor: the spectrum's own delta_min + total rounds short of delta_max
        cfg = tmp_path / "small.yaml"
        cfg.write_text("model: {sigma: [[1.0e-8, 1.0e-9], [1.0e-9, 1.0]]}\nsampling: [1]\n"
                       "grid: {min: 1.000000005, max: 1.00000001, count: 2}\n", encoding="utf-8")
        assert run("srdf", cfg, tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        last = (tmp_path / "curve.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
        assert float(last[0]) == summary["delta_max"] == 1.00000001
        assert last[1] == "0"

    @pytest.mark.parametrize(
        "task,tail",
        [("usrdf-bayes", GRID), ("usrdf-nonbayes", GRID),
         ("usim", "sim: {n: 1, rate_bits: 1.0, eval_blocks: 20, est_length: 64, lbg_iters: 5}\n")],
    )
    def test_one_reduction_serves_every_atom(self, tmp_path, monkeypatch, task, tail):
        # the first variance moves along the box, so each of the three nodes is its own atom
        cfg = tmp_path / "three.yaml"
        cfg.write_text("family: {template: affine, base: [[1.0, 0.3], [0.3, 1.0]], directions: [[[1.0, 0.0], [0.0, 0.0]]],"
                       f" box: [[0.0, 0.4]], prior: uniform, grid_res: 3}}\nsampling: [1]\n{tail}", encoding="utf-8")
        shapes = []
        srdf_core = importlib.import_module("srdf_kit.srdf")   # the package's `srdf` is the function
        spectrum = srdf_core._spectrum
        monkeypatch.setattr(srdf_core, "_spectrum", lambda floor, s: shapes.append(s.shape) or spectrum(floor, s))
        assert run(task, cfg, tmp_path) == 0
        assert shapes == [(3, 1, 1)]


class TestDeterminism:
    @pytest.mark.parametrize(
        "task,config",
        [
            ("srdf", "three_component_srdf.yaml"),
            ("usrdf-bayes", "corr_family_bayes.yaml"),
            ("simulate", "two_step_sim.yaml"),
            ("usim", "corr_family_usim.yaml"),
            # with those, every shipped config: reruns in one process share one parser
            ("distrate", "three_component_distrate.yaml"),
            ("gmf-srdf", "exp_field_srdf.yaml"),
            ("optimize-set", "subset_search.yaml"),
            ("place", "exp_field_place.yaml"),
            ("usrdf-nonbayes", "corr_family_nonbayes.yaml"),
        ],
    )
    def test_reruns_are_byte_identical(self, tmp_path, task, config):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run(task, CONFIGS / config, d1) == 0
        assert run(task, CONFIGS / config, d2) == 0
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_usim_artifacts_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        # three atoms, so chunks gather; a budget of 3 trials is 1 trial per chunk on two workers
        cfg = tmp_path / "three.yaml"
        cfg.write_text("family: {template: affine, base: [[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]],"
                       " directions: [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]], box: [[0.0, 0.4]],"
                       " prior: uniform, grid_res: 3}\nsampling: [1, 2]\n"
                       "sim: {n: 1, rate_bits: 2.0, eval_blocks: 90, est_length: 64, lbg_iters: 10, trace: true}\n",
                       encoding="utf-8")
        simulate = importlib.import_module("srdf_kit.simulate")
        monkeypatch.setattr(simulate, "TRIAL_CHUNK_FLOATS", 3 * 64 * 4)   # a trial's distances: 64 blocks, 4 words
        for workers in (1, 2):
            monkeypatch.setattr(simulate, "_trial_workers", lambda: workers)
            assert run("usim", cfg, tmp_path / f"w{workers}") == 0
        for name in ("report.json", "trace.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    def test_search_placement_reruns_are_byte_identical(self, tmp_path):
        # the search's summary carries its objective calls and per-restart values
        cfg = tmp_path / "place.yaml"
        cfg.write_text(FIELD + "placement: {k: 3, objective: min_rate_at, delta: 0.3, restarts: 3, seed: 4}\n",
                       encoding="utf-8")
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run("place", cfg, d1) == 0 and run("place", cfg, d2) == 0
        assert "restart_values" in json.loads((d1 / "summary.json").read_text(encoding="utf-8"))
        for name in ("points.csv", "summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def shipped_config(stem: str) -> dict:
    """The shipped config ``stem``, its covariance inlined where it names a CSV, so that a copy runs anywhere."""
    cfg = yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text(encoding="utf-8"))
    if "sigma_csv" in cfg.get("model", {}):
        cfg["model"] = {"sigma": np.loadtxt(CONFIGS / cfg["model"]["sigma_csv"], delimiter=",").tolist()}
    return cfg


RERUN_SIM = {"n": 1, "rate_bits": 1.0, "est_length": 4, "train_blocks": 40, "lbg_iters": 2, "trace": True, "seed": 3}
# edits to each task's shipped config that make its artifacts long, and short
RERUN_SIZES = {
    "long": {"grid": {"count": 200}, "search": {"k": 2, "objective": "min_delta_min"}, "placement": {"k": 12},
             "sim": {**RERUN_SIM, "eval_blocks": 40}},
    "short": {"grid": {"count": 5}, "search": {"k": 1, "objective": "min_delta_min"}, "placement": {"k": 2},
              "sim": {**RERUN_SIM, "eval_blocks": 3}},
}


class TestRerunInPlace:
    """A rerun into an existing ``--out`` writes over each artifact in place and trims it, so every file
    must end with a fresh run's bytes whether the old one was longer or shorter."""

    @pytest.mark.parametrize("task,config", [
        ("srdf", "three_component_srdf"), ("distrate", "three_component_distrate"), ("gmf-srdf", "exp_field_srdf"),
        ("optimize-set", "subset_search"), ("place", "exp_field_place"), ("usrdf-bayes", "corr_family_bayes"),
        ("usrdf-nonbayes", "corr_family_nonbayes"), ("simulate", "two_step_sim"), ("usim", "corr_family_usim"),
    ])
    @pytest.mark.parametrize("first,then", [("long", "short"), ("short", "long")],
                             ids=["long then short", "short then long"])
    def test_a_rerun_writes_a_fresh_runs_bytes(self, tmp_path, task, config, first, then):
        configs = {}
        for size, edits in RERUN_SIZES.items():
            cfg = shipped_config(config)
            cfg.update((block, {**cfg[block], **edit}) for block, edit in edits.items() if block in cfg)
            configs[size] = tmp_path / f"{size}.yaml"
            configs[size].write_text(yaml.safe_dump(cfg), encoding="utf-8")
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        assert run(task, configs[first], rerun) == 0
        old = {path.name: path.stat().st_size for path in rerun.iterdir()}
        assert run(task, configs[then], rerun) == 0
        assert run(task, configs[then], fresh) == 0
        names = sorted(old)
        assert sorted(path.name for path in fresh.iterdir()) == sorted(path.name for path in rerun.iterdir()) == names
        for name in names:
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name
        # some artifact really changed length in the direction the case names
        new = {name: (fresh / name).stat().st_size for name in names}
        assert any(new[name] < old[name] if then == "short" else new[name] > old[name] for name in names)

    @pytest.mark.parametrize("first, then, stale", [
        (("simulate", "two_step_sim", True), ("simulate", "two_step_sim", False), "trace.csv"),
        (("usrdf-bayes", "corr_family_bayes", None), ("usrdf-nonbayes", "corr_family_nonbayes", None),
         "allocation.csv"),
    ], ids=["trace", "allocation"])
    def test_a_file_the_rerun_does_not_write_is_left_as_it_was(self, tmp_path, first, then, stale):
        # the default --out is the working directory, so a rerun deletes nothing it did not write
        def run_into_out(task, config, trace):
            cfg = shipped_config(config)
            if trace is not None:
                cfg["sim"] = {**RERUN_SIM, "eval_blocks": 3, "trace": trace}
            path = tmp_path / "config.yaml"
            path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            assert run(task, path, tmp_path / "out") == 0

        run_into_out(*first)
        before = (tmp_path / "out" / stale).read_bytes()
        run_into_out(*then)
        assert (tmp_path / "out" / stale).read_bytes() == before

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_an_artifact_linked_to_dev_null_is_written_and_left_alone(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("curve.csv", "summary.json"):
            (out / name).symlink_to("/dev/null")
        assert run("srdf", CONFIGS / "three_component_srdf.yaml", out) == 0
        assert all((out / name).is_symlink() for name in ("curve.csv", "summary.json"))
        assert Path("/dev/null").is_char_device() and Path("/dev/null").read_bytes() == b""

    @pytest.mark.parametrize("write, want", [
        (lambda path: cli._write_json(path, {"x": object()}), b""),
        # the second block of rows fails to format, after the first was handed to the file
        (lambda path: _write_csv(path, ["n"], "%d", [np.array([1] * cli.CSV_BLOCK_ROWS + ["x"], dtype=object)]),
         b"n\n" + b"1\n" * cli.CSV_BLOCK_ROWS),
    ], ids=["json", "csv"])
    def test_a_write_that_fails_midway_leaves_only_what_it_wrote(self, tmp_path, write, want):
        path = tmp_path / "artifact"
        path.write_bytes(b"old, longer artifact\n" * 1000)
        with pytest.raises(TypeError):
            write(path)
        assert path.read_bytes() == want


# one shipped config per task
TASK_CONFIGS = [
    ("srdf", "three_component_srdf.yaml"),
    ("distrate", "three_component_distrate.yaml"),
    ("gmf-srdf", "exp_field_srdf.yaml"),
    ("optimize-set", "subset_search.yaml"),
    ("place", "exp_field_place.yaml"),
    ("usrdf-bayes", "corr_family_bayes.yaml"),
    ("usrdf-nonbayes", "corr_family_nonbayes.yaml"),
    ("simulate", "two_step_sim.yaml"),
    ("usim", "corr_family_usim.yaml"),
]
LIBYAML = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="pyyaml is built without libyaml")


def typed(value):
    """``value`` with each scalar paired with its type; floats by repr, so NaN and -0.0 compare."""
    if isinstance(value, dict):
        return {typed(k): typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [typed(v) for v in value]
    return (repr(value) if isinstance(value, float) else value, type(value))


def both_loaders(text):
    return [typed(yaml.load(text, Loader=loader)) for loader in (yaml.CSafeLoader, yaml.SafeLoader)]


yaml_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
yaml_trees = st.recursive(
    yaml_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=4),
    max_leaves=24,
)


class TestConfigLoading:
    @LIBYAML
    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_loaders_agree_on_shipped_configs(self, config):
        libyaml, pure = both_loaders(config.read_text(encoding="utf-8"))
        assert libyaml == pure

    @LIBYAML
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.dictionaries(st.text(min_size=1, max_size=6), yaml_trees, max_size=6), st.booleans())
    def test_loaders_agree_on_random_configs(self, cfg, flow):
        text = yaml.safe_dump(cfg, sort_keys=False, default_flow_style=flow)
        libyaml, pure = both_loaders(text)
        assert libyaml == pure == typed(cfg)

    @pytest.mark.parametrize("task,config", TASK_CONFIGS, ids=[task for task, _ in TASK_CONFIGS])
    def test_pure_python_loader_writes_identical_artifacts(self, tmp_path, monkeypatch, task, config):
        assert run(task, CONFIGS / config, tmp_path / "default") == 0
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert run(task, CONFIGS / config, tmp_path / "pure") == 0
        names = sorted(p.name for p in (tmp_path / "default").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pure").iterdir()) and names
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "pure" / name).read_bytes()

    @pytest.mark.parametrize("libyaml", [pytest.param(True, marks=LIBYAML), False], ids=["libyaml", "pure"])
    @pytest.mark.parametrize(
        "text",
        [b"model: [[1.0, 0.5]\n", b"model:\n  sigma: [[1.0]]\n sampling: [1]\n", b"a: b: c\n",
         b"model: \"\x01\"\n", b"model: [[1.0]]\nmodel: [[2.0]]\n- 1\n", b"model: \xff\xfe\n", b"- [1.0]\n"],
        ids=["unclosed", "indent", "nested-colon", "control-char", "mixed", "not-utf8", "not-a-mapping"],
    )
    def test_malformed_yaml_is_config_parse(self, tmp_path, monkeypatch, capsys, libyaml, text):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(text)
        assert run("srdf", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [cli.config_parse]"), err
        assert "Traceback" not in err


def per_cell_csv(header, rows) -> bytes:
    """The CSV the writer wrote cell by cell before its body became one formatted write."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else f"{float(c):.9g}" for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


csv_numbers = (
    st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                       2.2250738585072014e-308])
    | st.integers(-(2 ** 62), 2 ** 62)
    | st.floats(width=32).map(np.float32)
    | st.floats().map(np.float64)
)


@st.composite
def csv_tables(draw):
    """(header, labels, rows): each column either numbers of every kind above or strings (a label), 0-12 rows."""
    labels = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    cells = [st.text(max_size=5) if is_label else csv_numbers for is_label in labels]
    rows = draw(st.lists(st.tuples(*cells), max_size=12))
    return [f"c{i}" for i in range(len(labels))], labels, rows


class TestCsvWriter:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(csv_tables(), st.sampled_from([1, 5, cli.CSV_BLOCK_ROWS]))
    @example((["delta", "rate_bits"], [False, False], []), cli.CSV_BLOCK_ROWS)   # zero rows: the header alone
    def test_matches_the_per_cell_writer(self, table, block_rows):
        # strings stay objects: a NumPy string array would drop their trailing NULs
        header, labels, rows = table
        template = ",".join("%s" if is_label else "%.9g" for is_label in labels)
        columns = [np.array([row[i] for row in rows], dtype=object if is_label else None)
                   for i, is_label in enumerate(labels)]
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
            path = Path(tmp) / "t.csv"
            _write_csv(path, header, template, columns)
            assert path.read_bytes() == per_cell_csv(header, rows)

    def test_special_values(self, tmp_path):
        values = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, 7, np.float32(0.1), np.float64(0.1)]
        _write_csv(tmp_path / "t.csv", ["x", "label"], "%.9g,%s", [values, ["a b"] * len(values)])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()[1:] == [
            "inf,a b", "-inf,a b", "nan,a b", "-0,a b", "4.94065646e-324,a b", "1e+308,a b", "7,a b",
            "0.100000001,a b", "0.1,a b",
        ]

    def test_a_two_dimensional_column_fills_a_run_of_cells(self, tmp_path):
        subsets = np.array([[1, 2], [1, 3], [2, 3]])
        _write_csv(tmp_path / "t.csv", ["subset", "x"], "%d %d,%.9g", [subsets, [0.5, 1.0 / 3.0, 2.0]])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "subset,x\n1 2,0.5\n1 3,0.333333333\n2 3,2\n"


def optimize_set_config(path, sigma, k, delta=None):
    """Write an optimize-set config (JSON, which YAML reads) for ``sigma``; the floor objective without a delta."""
    search = {"k": k, "objective": "min_delta_min"}
    if delta is not None:
        search.update(objective="min_rate_at", delta=delta)
    path.write_text(json.dumps({"model": {"sigma": sigma.tolist()}, "search": search}), encoding="utf-8")
    return path


class TestOptimizeSetTable:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([1, 2, 3, 512]))
    def test_matches_the_per_row_writer(self, seed, rate_objective, chunk):
        # at the median floor about half the subsets are infeasible, so their rates read inf
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 10))
        k = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, m + 1))
        sigma = a @ a.T + 0.1 * np.eye(m)
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(srdf_kit.setopt, "SUBSET_CHUNK", chunk)
            tmp = Path(tmp)
            model = srdf_kit.CovarianceModel(sigma)
            delta = None
            if rate_objective:
                floors = srdf_kit.best_fixed_set(model, k).delta_min
                delta = float(np.median(floors))
                if delta <= floors.min():   # every floor equal, as with k = m: none may be infeasible
                    delta += 0.5 * (float(np.trace(sigma)) - delta)
            objective = "min_delta_min" if delta is None else ("min_rate_at", delta)
            result = srdf_kit.best_fixed_set(model, k, objective)
            cfg = optimize_set_config(tmp / "c.yaml", sigma, k, delta)
            assert run("optimize-set", cfg, tmp / "out") == 0
            reference_optimize_set_table(tmp / "want.csv", result)
            assert (tmp / "out" / "table.csv").read_bytes() == (tmp / "want.csv").read_bytes()

    def test_peak_memory_holds_no_row_objects(self, tmp_path):
        # C(20, 5) = 15504 rows.  The result arrays hold 0.87 MB; solving one stack of
        # SUBSET_CHUNK = 512 subsets takes about 1.1 MB more, and one stack's text about
        # 18 KB.  The per-row writer, with one SubsetRow and one joined string per
        # subset, peaked at 7.8 MB on this input; the array path peaks near 2.0 MB.
        rng = np.random.default_rng(5)
        m, k = 20, 5
        a = rng.standard_normal((m, m))
        sigma = a @ a.T / m + 0.5 * np.eye(m)
        delta = 0.9 * float(np.trace(sigma))
        result = srdf_kit.best_fixed_set(srdf_kit.CovarianceModel(sigma), k, ("min_rate_at", delta))
        arrays = result.subsets.nbytes + result.delta_min.nbytes + result.rate_bits.nbytes
        cfg = optimize_set_config(tmp_path / "c.yaml", sigma, k, delta)
        tracemalloc.start()
        try:
            assert run("optimize-set", cfg, tmp_path / "out") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "out" / "table.csv").read_bytes().splitlines()) == 1 + 15504
        assert peak < arrays + 1.5 * 2**20, (peak, arrays)


class TestExitCodes:
    def test_missing_config_is_validation(self, tmp_path, capsys):
        assert run("srdf", tmp_path / "nope.yaml", tmp_path) == 2
        assert "cli.config_parse" in capsys.readouterr().err

    def test_bad_model_is_validation(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(
            "model:\n  sigma: [[1.0, 2.0], [2.0, 1.0]]\nsampling: [1]\ngrid: {min: 1.0, max: 2.0, count: 3}\n",
            encoding="utf-8",
        )
        assert run("srdf", cfg, tmp_path) == 2
        assert "model.not_positive_definite" in capsys.readouterr().err

    def test_infeasible_grid_is_validation(self, tmp_path):
        cfg = tmp_path / "low.yaml"
        cfg.write_text(
            "model:\n  sigma: [[1.0, 0.5], [0.5, 1.0]]\nsampling: [1]\ngrid: {min: 0.1, max: 0.5, count: 3}\n",
            encoding="utf-8",
        )
        assert run("srdf", cfg, tmp_path) == 2

    def test_nearly_coincident_samples_are_numerical(self, tmp_path, capsys):
        # two samples 1e-11 apart: the weighted spectrum rounds to a negative eigenvalue
        cfg = tmp_path / "twin.yaml"
        cfg.write_text(f"{FIELD}points: [0.3, 0.30000000001]\n{GRID}", encoding="utf-8")
        assert run("gmf-srdf", cfg, tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith("error [srdf.eigen_failure]"), err
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("block", ["{k: 6}", "{k: 6, objective: min_rate_at, delta: 0.3}"],
                             ids=["min_delta_min", "min_rate_at"])
    def test_more_points_than_mesh_knots_are_refused_before_any_evaluation(self, tmp_path, capsys, monkeypatch,
                                                                          block):
        # a bilinear kernel's Gram matrix has rank at most the mesh's knot count
        calls = []
        monkeypatch.setattr(srdf_kit.field, "_field_reduce", lambda *args: calls.append(args))
        write_mesh(tmp_path / "mesh.csv", 5)
        cfg = tmp_path / "place.yaml"
        cfg.write_text(f"field:\n  kernel: {{type: tabulated, mesh_csv: mesh.csv}}\nplacement: {block}\n",
                       encoding="utf-8")
        assert run("place", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [field.domain_error]"), err
        assert "5 mesh knots" in err and "rank at most 5" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "points.csv").exists()
        assert calls == []

    @pytest.mark.parametrize("task", ["srdf", "distrate"])
    @pytest.mark.parametrize("bounds", ["min: .nan, max: 2.0", "min: 0.5, max: .inf"])
    def test_non_finite_grid_bounds(self, tmp_path, capsys, task, bounds):
        cfg = tmp_path / "nan.yaml"
        cfg.write_text(
            "model:\n  sigma: [[1.0, 0.5], [0.5, 1.0]]\nsampling: [1]\n"
            f"grid: {{{bounds}, count: 3}}\n",
            encoding="utf-8",
        )
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [cli.config_parse]"), err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "curve.csv").exists()

    @pytest.mark.parametrize("box", ["[[-1.0e+308, 1.0e+308]]", "[[0.0, .inf]]"])
    def test_unbounded_family_box_is_refused_without_a_warning(self, tmp_path, capsys, box):
        # the node weights used to turn NaN, warn, and end in model.not_positive_definite
        cfg = tmp_path / "box.yaml"
        cfg.write_text("family: {template: affine, base: [[1.0, 0.3], [0.3, 1.0]], directions: [[[0.0, 0.0],"
                       f" [0.0, 0.0]]], box: {box}, prior: uniform, grid_res: 3}}\nsampling: [1]\n{GRID}",
                       encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("usrdf-bayes", cfg, tmp_path / "out") == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error [universal.unbounded_box]"), err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("task", ["usrdf-bayes", "usrdf-nonbayes", "usim"])
    @pytest.mark.parametrize("c", [1.0, 1.001, 1.05, math.sqrt(2.0)])
    def test_a_family_of_oblique_fibres_is_refused_without_a_warning(self, tmp_path, capsys, task, c):
        # the grid used to answer from coincidences: at c = 1.001 every node was its own atom, 0.021 bits low
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(task, oblique_config(tmp_path, c), tmp_path / "out") == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error [universal.unsupported_family]: directions [1, 2]"), err
        assert "oblique fibres" in err and "Traceback" not in err

    @pytest.mark.parametrize("task, path", [("usrdf-bayes", ("atoms",)), ("usim", ("report", "grid_size"))])
    def test_an_unseen_second_direction_gives_one_atom_per_grid_value(self, tmp_path, task, path):
        assert run(task, oblique_config(tmp_path, 0.0), tmp_path / "out") == 0
        name = "summary.json" if task == "usrdf-bayes" else "report.json"
        report = json.loads((tmp_path / "out" / name).read_text(encoding="utf-8"))
        assert functools.reduce(lambda tree, key: tree[key], path, report) == 5

    @pytest.mark.parametrize("entry", ["1.7e+308", "-1.0e+308"])
    def test_covariance_whose_sums_overflow_is_refused_without_a_warning(self, tmp_path, capsys, entry):
        # symmetrizing the matrix, or taking its trace, overflowed on the way to exit 2
        cfg = tmp_path / "huge.yaml"
        cfg.write_text(f"model: {{sigma: [[1.7e+308, {entry}], [{entry}, 1.7e+308]]}}\nsampling: [1]\n{GRID}",
                       encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("srdf", cfg, tmp_path / "out") == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error [validation]: max |entry| = 1.700e+308"), err
        assert "overflows" in err and "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "out" / "curve.csv").exists()

    @pytest.mark.parametrize("task", ["srdf", "usrdf-bayes"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_overflowing_grid_span_is_config_parse(self, tmp_path, capsys, task, count):
        # max - min overflows to inf: np.linspace would warn and hand the solver NaN points
        head = f"{MODEL}sampling: [1]\n" if task == "srdf" else FAMILY
        cfg = tmp_path / "span.yaml"
        cfg.write_text(f"{head}grid: {{min: -1.0e+308, max: 1.0e+308, count: {count}}}\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(task, cfg, tmp_path / "out") == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error [cli.config_parse]"), err
        assert "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "out" / "curve.csv").exists()

    @pytest.mark.parametrize(
        "task,config",
        [
            pytest.param("usrdf-bayes", "family: {template: fixed-var-corr, sigma2: 1.0, box: [[0.2, 0.8]],"
                         f" prior: uniform, grid_res: many}}\nsampling: [1]\n{GRID}", id="family.grid_res"),
            pytest.param("gmf-srdf", f"{FIELD}  quad_points: lots\npoints: [0.5]\n{GRID}", id="field.quad_points"),
            pytest.param("optimize-set", f"{MODEL}search: {{k: two}}\n", id="search.k"),
            pytest.param("place", f"{FIELD}placement: {{k: 2, restarts: few}}\n", id="placement.restarts"),
            pytest.param("place", f"{FIELD}placement: {{k: 2, restarts: 0}}\n", id="placement.restarts-zero"),
            pytest.param("place", f"{FIELD}placement: {{k: 2, restarts: -3}}\n", id="placement.restarts-negative"),
            pytest.param("place", f"{FIELD}placement: {{k: 2, seed: soon}}\n", id="placement.seed"),
            pytest.param("optimize-set", f"{MODEL}search: {{k: 1, objective: min_rate_at, delta: big}}\n",
                         id="objective.delta"),
            pytest.param("gmf-srdf", f"{FIELD}points: [0.2, abc]\n{GRID}", id="points"),
            pytest.param("srdf", f"{MODEL}sampling: [one]\n{GRID}", id="sampling"),
            pytest.param("srdf", f"{MODEL}sampling: [1.5]\n{GRID}", id="sampling-fraction"),
            pytest.param("srdf", f"model:\n  sigma: [[1.0, 0.5], [0.5]]\nsampling: [1]\n{GRID}", id="model.sigma"),
            pytest.param("srdf", f"model:\n  sigma: [[.nan, 0.0], [0.0, 1.0]]\nsampling: [1]\n{GRID}",
                         id="model.sigma-nan"),
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{rate_bits: .nan}}\n", id="sim.rate_bits"),
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{lbg_iters: 2.5}}\n", id="sim.lbg_iters"),
            pytest.param("srdf", f"{MODEL}sampling: [1]\ngrid: {{min: 1.0, max: 1.5, count: 2.7}}\n", id="grid.count"),
            pytest.param("place", f"{FIELD}placement: {{k: 3, pin_endpoints: 'false'}}\n", id="placement.pin_endpoints"),
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{trace: 'no'}}\n", id="sim.trace"),
            pytest.param("usrdf-bayes", "family: {template: affine, base: [[1.0, 0.3], [0.3, 1.0]],"
                         " directions: [[[1.0]]], box: [[0.0, 0.4]], prior: uniform, grid_res: 3}\n"
                         f"sampling: [1]\n{GRID}", id="family.directions"),
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{seed: -1}}\n", id="sim.seed-negative"),
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{seed: null}}\n", id="sim.seed-null"),
            pytest.param("place", f"{FIELD}placement: {{k: 2, seed: -5}}\n", id="placement.seed-negative"),
            pytest.param("optimize-set", f"{MODEL}search: {{k: true}}\n", id="search.k-bool"),
            pytest.param("place", f"{FIELD}placement: {{k: 2, restarts: true}}\n", id="placement.restarts-bool"),
            pytest.param("srdf", f"{MODEL}sampling: [true]\n{GRID}", id="sampling-bool"),
            pytest.param("srdf", f"{MODEL}sampling: [1]\ngrid: {{min: 1.0, max: 1.5, count: true}}\n",
                         id="grid.count-bool"),
            pytest.param("srdf", f"{MODEL}sampling: [1]\ngrid: {{min: true, max: 1.5, count: 2}}\n",
                         id="grid.min-bool"),
            pytest.param("optimize-set", f"{MODEL}search: {{k: 1, objective: min_rate_at, delta: true}}\n",
                         id="objective.delta-bool"),
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{rate_bits: true}}\n", id="sim.rate_bits-bool"),
            pytest.param("usim", f"{FAMILY}sim: {{grid_delta: true}}\n", id="sim.grid_delta-bool"),
            pytest.param("usrdf-bayes", "family: {template: affine, base: 5, directions: [5], box: [[0.0, 0.4]],"
                         f" prior: uniform, grid_res: 3}}\nsampling: [1]\n{GRID}", id="family.base-scalar"),
            # the fixed-var-corr family has one parameter, so its box is one [lo, hi] pair
            *(pytest.param("usrdf-bayes", FAMILY.replace("[[0.2, 0.8]]", box) + GRID, id=f"family.box-{key}")
              for key, box in (("triple", "[[0.2, 0.8, 7.0]]"), ("two-pairs", "[[0.2, 0.8], [0.0, 1.0]]"))),
            # an integer past the float range, where a float is read
            pytest.param("srdf", f"{MODEL}sampling: [1]\ngrid: {{min: 1.0, max: {10 ** 400}, count: 2}}\n",
                         id="grid.max-huge-int"),
            pytest.param("gmf-srdf", f"{FIELD}points: [{10 ** 400}]\n{GRID}", id="points-huge-int"),
            pytest.param("srdf", f"model: {{sigma: [[{10 ** 400}, 0.5], [0.5, 2.0]]}}\nsampling: [1]\n{GRID}",
                         id="model.sigma-huge-int"),
        ],
    )
    def test_malformed_config_value_is_validation(self, tmp_path, capsys, task, config):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(config, encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error ["), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("task,config", [
        pytest.param("srdf", f"model: {{sigma: [[true, 0.5], [0.5, 2.0]]}}\nsampling: [1]\n{GRID}",
                     id="model.sigma-bool"),
        pytest.param("gmf-srdf", f"{FIELD}points: [true]\n{GRID}", id="points-bool"),
        pytest.param("gmf-srdf", f"field:\n  kernel: {{type: gauss-markov, p: true}}\npoints: [0.5]\n{GRID}",
                     id="field.p-bool"),
        pytest.param("usrdf-bayes", FAMILY.replace("sigma2: 1.0", "sigma2: true") + GRID, id="family.sigma2-bool"),
        pytest.param("usrdf-bayes", FAMILY.replace("[[0.2, 0.8]]", "[[0.2, true]]") + GRID, id="family.box-bool"),
        *(pytest.param("usrdf-bayes", f"family: {{template: affine, base: {base}, directions: [{direction}],"
                       f" box: {box}, prior: uniform, grid_res: 3}}\nsampling: [1]\n{GRID}", id=f"affine.{key}-bool")
          for key, base, direction, box in (
              ("box", "[[2.0, 0.3], [0.3, 1.5]]", "[[1.0, 0.0], [0.0, 0.0]]", "[[false, true]]"),
              ("base", "[[true, 0.0], [0.0, 1.5]]", "[[1.0, 0.0], [0.0, 0.0]]", "[[0.0, 0.4]]"),
              ("directions", "[[2.0, 0.3], [0.3, 1.5]]", "[[true, 0.0], [0.0, 0.0]]", "[[0.0, 0.4]]"))),
    ])
    def test_yaml_boolean_is_not_a_number(self, tmp_path, capsys, task, config):
        # true/false in a matrix, a point list, a box, sigma2 or a kernel parameter was read as 1.0/0.0
        cfg = tmp_path / "bool.yaml"
        cfg.write_text(config, encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [cli.config_parse]"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("task,config", [
        pytest.param("gmf-srdf", f"{FIELD}points: [[0.2], [0.8]]\n{GRID}", id="points-nested"),
        pytest.param("gmf-srdf", f"{FIELD}points: 0.5\n{GRID}", id="points-scalar"),
        pytest.param("gmf-srdf", f"{FIELD}points: [0.5, null]\n{GRID}", id="points-null"),
        pytest.param("usrdf-bayes", AFFINE.replace("[[0.0, 0.4]]", "[[0.0]]") + GRID, id="affine.box-short-pair"),
        pytest.param("usrdf-bayes", AFFINE.replace("[[0.0, 0.4]]", "[0.0, 0.4]") + GRID, id="affine.box-flat"),
        pytest.param("usrdf-bayes", AFFINE.replace("[[0.0, 0.4]]", "[[null, 0.4]]") + GRID, id="affine.box-null"),
        pytest.param("usrdf-bayes", AFFINE.replace(" box: [[0.0, 0.4]],", "") + GRID, id="affine.box-missing"),
        pytest.param("usrdf-bayes", FAMILY.replace(" box: [[0.2, 0.8]],", "") + GRID, id="family.box-missing"),
        pytest.param("usrdf-bayes", FAMILY.replace("[[0.2, 0.8]]", "[[0.2, null]]") + GRID, id="family.box-null"),
        pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{bogus: 1}}\n", id="sim.unknown-key"),
    ])
    def test_malformed_point_list_box_or_sim_key_is_config_parse(self, tmp_path, capsys, task, config):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(config, encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [cli.config_parse]"), err
        assert "Traceback" not in err

    def test_empty_affine_box_is_refused_by_the_family(self, tmp_path, capsys):
        # no pair at all is a well-formed box, and the family names its count against the directions
        cfg = tmp_path / "empty.yaml"
        cfg.write_text(AFFINE.replace("[[0.0, 0.4]]", "[]") + GRID, encoding="utf-8")
        assert run("usrdf-bayes", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [universal.unsupported_family]: got 1 direction matrices for a 0-dimensional box")

    @pytest.mark.parametrize("task,config", [
        pytest.param("srdf", f"model:\n  sigma: [[1.0, null], [0.5, 1.0]]\nsampling: [1]\n{GRID}", id="model.sigma"),
        pytest.param("usrdf-bayes", AFFINE.replace("base: [[1.0,", "base: [[null,") + GRID, id="affine.base"),
        pytest.param("usrdf-bayes", AFFINE.replace("directions: [[[1.0,", "directions: [[[null,") + GRID,
                     id="affine.directions"),
    ])
    def test_null_matrix_entry_is_config_parse(self, tmp_path, capsys, task, config):
        # a null in a matrix was read as NaN and refused as model.not_positive_definite, unlike one in a list
        cfg = tmp_path / "null.yaml"
        cfg.write_text(config, encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [cli.config_parse]") and "got null" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", [".inf", "-.inf"])
    def test_non_finite_affine_direction_is_refused_without_a_warning(self, tmp_path, capsys, entry):
        # the box holds 0, and the node there formed 0 * inf, which warned before the node was refused
        cfg = tmp_path / "direction.yaml"
        cfg.write_text(AFFINE.replace("directions: [[[1.0,", f"directions: [[[{entry},") + GRID, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("usrdf-bayes", cfg, tmp_path / "out") == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err == "error [model.not_positive_definite]: covariance has a non-finite entry\n", err

    @pytest.mark.parametrize("family", [
        "{template: affine, base: [[1.0, 0.0], [0.0, 1.0]], directions: [[[1.0e+308, 0.0], [0.0, 0.0]]],"
        " box: [[0.0, 10.0]], prior: uniform, grid_res: 3}",
        "{template: fixed-var-corr, sigma2: .inf, box: [[-0.5, 0.5]], prior: uniform, grid_res: 3}",
        "{template: fixed-var-corr, sigma2: 1.0e+182, box: [[0.2, 1.0e+308]], prior: uniform, grid_res: 3}",
    ], ids=["affine-overflow", "corr-inf-times-zero", "corr-overflow"])
    @pytest.mark.parametrize("task", ["usrdf-bayes", "usrdf-nonbayes", "usim"])
    def test_a_node_that_overflows_is_refused_without_a_warning(self, tmp_path, capsys, family, task):
        # t * D overflowed, or met 0 * inf, and warned before the node was refused
        cfg = tmp_path / "family.yaml"
        cfg.write_text(f"family: {family}\nsampling: [1]\n{GRID}", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == "error [model.not_positive_definite]: covariance has a non-finite entry\n", err

    @pytest.mark.parametrize("task, sigma2, box, grid_res", [
        ("usrdf-bayes", "5.0e-324", "[[-0.4, 0.4]]", 33), ("usrdf-bayes", "5.0e-324", "[[0.0, 0.2]]", 33),
        ("usim", "5.0e-324", "[[0.2, 0.8]]", 1), ("usrdf-bayes", "1.0e-316", "[[0.1, 0.9]]", 9),
    ])
    def test_a_subnormal_family_is_validation(self, tmp_path, capsys, task, sigma2, box, grid_res):
        # its pivot floor underflowed to 0, so it passed validation and failed later, exit 3
        cfg = tmp_path / "family.yaml"
        cfg.write_text(f"family: {{template: fixed-var-corr, sigma2: {sigma2}, box: {box}, prior: uniform,"
                       f" grid_res: {grid_res}}}\nsampling: [1]\n{GRID}sim: {json.dumps(MUTATION_SIM)}\n",
                       encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [validation]: max |entry| = {float(sigma2):.3e} is below 4.450e-308"), err

    @pytest.mark.parametrize("key,value", [
        pytest.param(f.name, value, id=f"{f.name}={value!r}")
        for f in dataclasses.fields(srdf_kit.SimConfig)
        # a number for the bool field; true for a number field, and a fraction for an int one
        for value in ((1,) if f.type == "bool" else (True, 2.5) if f.type.startswith("int") else (True,))
    ])
    def test_sim_value_of_the_wrong_kind_is_config_parse(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(f"{MODEL}sampling: [1]\nsim: {{{key}: {json.dumps(value)}}}\n", encoding="utf-8")
        assert run("simulate", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [cli.config_parse]: '{key}' must be"), err

    @pytest.mark.parametrize(
        "task,config",
        [
            ("usrdf-bayes", FAMILY.replace("[1]", "[3]") + GRID),
            ("usrdf-nonbayes", FAMILY.replace("[1]", "[3]") + GRID),
            ("usim", FAMILY.replace("[1]", "[5]") + "sim: {eval_blocks: 10}\n"),
        ],
    )
    def test_sampling_label_above_the_family_is_validation(self, tmp_path, capsys, task, config):
        cfg = tmp_path / "far.yaml"
        cfg.write_text(config, encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [model.index_out_of_range]"), err
        assert "exceeds model dimension m=2" in err and "Traceback" not in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("task,config", [("simulate", "two_step_sim.yaml"), ("usim", "corr_family_usim.yaml")])
    def test_negative_seed_override_is_config_parse(self, tmp_path, capsys, task, config):
        assert run(task, CONFIGS / config, tmp_path / "out", ("--seed", "-3")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [cli.config_parse]"), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "task,config",
        [
            pytest.param("srdf", f"{MODEL}sampling: [1]\ngrid: {{min: 1.0, max: 1.5, count: 100000000000}}\n",
                         id="grid.count"),
            pytest.param("place", f"{FIELD}placement: {{k: 100000, pin_endpoints: true}}\n", id="placement.k"),
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{eval_blocks: 100000000000}}\n", id="sim.eval_blocks"),
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{train_blocks: 100000000000}}\n",
                         id="sim.train_blocks"),
            pytest.param("usim", f"{FAMILY}sim: {{est_length: 100000000000}}\n", id="usim.est_length"),
            pytest.param("usim", f"{FAMILY}sim: {{eval_blocks: 100000000000}}\n", id="usim.eval_blocks"),
            pytest.param("place", f"{FIELD}placement: {{k: 2, restarts: 1000000000}}\n", id="placement.restarts"),
            # integers past the float range meet the same caps, compared by value
            *(pytest.param(task, f"{pre}sim: {{{key}: {10 ** 400}}}\n", id=f"{task}.{key}-huge")
              for task, pre in (("simulate", f"{MODEL}sampling: [1]\n"), ("usim", FAMILY))
              for key in ("n", "train_blocks", "eval_blocks")),
            pytest.param("usim", f"{FAMILY}sim: {{est_length: {10 ** 400}}}\n", id="usim.est_length-huge"),
            # 40 x 40 nodes, each its own ambiguity atom: one codebook each would train
            pytest.param("usim", "family: {template: affine, base: [[2.0, 0.3], [0.3, 1.5]], directions: "
                         "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]], box: [[0.0, 1.0], [0.0, 1.0]], "
                         "prior: uniform, grid_res: 40}\nsampling: [1, 2]\nsim: {eval_blocks: 10, est_length: 8}\n",
                         id="usim.atoms"),
            # 4300 digits parse, but eval_blocks * n * m has 4301, past the digit limit of str(int)
            pytest.param("simulate", f"{MODEL}sampling: [1]\nsim: {{eval_blocks: 9{'0' * 4299}}}\n",
                         id="sim.eval_blocks-digit-limit"),
        ],
    )
    def test_oversized_size_is_rejected_before_allocation(self, tmp_path, capsys, task, config):
        cfg = tmp_path / "big.yaml"
        cfg.write_text(config, encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [universal.grid_too_large]"), err
        assert "exceeds the" in err and "Traceback" not in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("task,config", [("simulate", f"{MODEL}sampling: [1]\n"), ("usim", FAMILY)])
    def test_huge_rate_is_refused_before_any_draw(self, tmp_path, capsys, task, config):
        # 2 ** (n * rate_bits) would be a 10^12-bit integer
        cfg = tmp_path / "rate.yaml"
        cfg.write_text(f"{config}sim: {{rate_bits: 1.0e+12}}\n", encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [simulate.codebook_too_large]"), err
        assert "exceeds the cap" in err and "Traceback" not in err
        assert not any((tmp_path / "out").iterdir())

    def test_integer_past_the_digit_limit_is_config_parse(self, tmp_path, capsys):
        cfg = tmp_path / "digits.yaml"
        cfg.write_text(f"{MODEL}sampling: [1]\nsim: {{eval_blocks: 1{'0' * 5000}}}\n", encoding="utf-8")
        assert run("simulate", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [cli.config_parse]"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("task,config", [("simulate", f"{MODEL}sampling: [1]\n"), ("usim", FAMILY)])
    def test_huge_seed_runs(self, tmp_path, task, config):
        cfg = tmp_path / "seed.yaml"
        cfg.write_text(f"{config}sim: {{seed: {10 ** 400}, eval_blocks: 20, est_length: 64}}\n", encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["seed"] == report["report"]["seed"] == 10 ** 400

    def test_negative_mesh_size_is_validation(self, tmp_path, capsys):
        (tmp_path / "mesh.csv").write_text("-2\n0,0,1.0\n0,1,0.5\n1,0,0.5\n1,1,1.0\n", encoding="utf-8")
        cfg = tmp_path / "mesh.yaml"
        cfg.write_text(f"field:\n  kernel: {{type: tabulated, mesh_csv: mesh.csv}}\npoints: [0.5]\n{GRID}",
                       encoding="utf-8")
        assert run("gmf-srdf", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [field.domain_error]"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry,value", [((0, 2), "nan"), ((1, 1), "inf")], ids=["nan", "inf"])
    def test_non_finite_mesh_value_is_validation(self, tmp_path, capsys, entry, value):
        write_mesh(tmp_path / "mesh.csv", 3)
        rows = (tmp_path / "mesh.csv").read_text(encoding="utf-8").splitlines()
        for i, j in {entry, entry[::-1]}:
            rows[1 + 3 * i + j] = f"{i},{j},{value}"
        (tmp_path / "mesh.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = tmp_path / "mesh.yaml"
        cfg.write_text(f"field:\n  kernel: {{type: tabulated, mesh_csv: mesh.csv}}\npoints: [0.5]\n{GRID}",
                       encoding="utf-8")
        assert run("gmf-srdf", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [field.domain_error]"), err
        assert "finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_missing_mesh_file_is_validation(self, tmp_path, capsys):
        cfg = tmp_path / "mesh.yaml"
        cfg.write_text(f"field:\n  kernel: {{type: tabulated, mesh_csv: nope.csv}}\npoints: [0.5]\n{GRID}",
                       encoding="utf-8")
        assert run("gmf-srdf", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [field.domain_error]"), err
        assert "nope.csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "task,config,code",
        [
            pytest.param("place", f"{FIELD}  quad_points: 256\n"
                         "placement: {k: 2, restarts: 1, objective: min_rate_at, delta: .nan}\n",
                         "cli.config_parse", id="place-nan-delta"),
            pytest.param("optimize-set", f"{MODEL}search: {{k: 1, objective: min_rate_at, delta: 0.1}}\n",
                         "srdf.infeasible_distortion", id="optimize-set-below-every-floor"),
            pytest.param("place", f"{FIELD}  quad_points: 256\n"
                         "placement: {k: 2, restarts: 1, objective: min_rate_at, delta: 0.01}\n",
                         "srdf.infeasible_distortion", id="place-below-every-floor"),
        ],
    )
    def test_unmet_objective_writes_nothing(self, tmp_path, capsys, task, config, code):
        cfg = tmp_path / "target.yaml"
        cfg.write_text(config, encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{code}]"), err
        assert "Traceback" not in err
        assert not any((tmp_path / "out").iterdir())

    def test_unknown_family_template(self, tmp_path):
        cfg = tmp_path / "fam.yaml"
        cfg.write_text(
            "family: {template: mystery}\nsampling: [1]\ngrid: {min: 1.0, max: 1.5, count: 2}\n",
            encoding="utf-8",
        )
        assert run("usrdf-bayes", cfg, tmp_path) == 2

    @pytest.mark.parametrize("out, blocked", [("file", "file"), ("file/out", "file/out"), ("out", "out/summary.json")],
                             ids=["a file", "under a file", "summary.json is a directory"])
    def test_unwritable_out_is_validation(self, tmp_path, capsys, out, blocked):
        (tmp_path / "file").write_text("", encoding="utf-8")
        if blocked.endswith("summary.json"):
            (tmp_path / blocked).mkdir(parents=True)
        assert run("srdf", CONFIGS / "three_component_srdf.yaml", tmp_path / out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [validation]"), err
        assert str(tmp_path / blocked) in err and "Traceback" not in err


SCRIPT = "srdf-kit"
DEMOS = sorted((REPO / "demos").glob("*.py"))


def child_env():
    """Environment whose PYTHONPATH puts this suite's copy of srdf_kit first."""
    env = dict(os.environ)
    src = str(Path(srdf_kit.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def declared_script(name):
    """(module, attr) of the `name` entry of [project.scripts] in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"[project.scripts] declares no {name!r}"
    module, _, attr = scripts[name].partition(":")
    assert all(part.isidentifier() for part in module.split(".")) and attr.isidentifier(), (
        f"{name} = {scripts[name]!r} is not of the form module:attr"
    )
    return module, attr


def run_declared_script(name, args):
    """Run the declared entry point in a child process as its generated wrapper does."""
    module, attr = declared_script(name)
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.argv[0] = {name!r}\nsys.exit({attr}())\n"
    return subprocess.run(
        [sys.executable, "-c", wrapper, *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


USAGE = (
    "usage: srdf-kit [-h] --config CONFIG [--out OUT] [--seed SEED]\n"
    "                {srdf,distrate,gmf-srdf,optimize-set,place,usrdf-bayes,usrdf-nonbayes,simulate,usim}\n"
)


class TestParser:
    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "made, init = [], argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **kw: made.append(1) or init(self, *a, **kw)\n"
            "import srdf_kit.cli\n"
            "print(len(made), srdf_kit.cli._parser.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        made, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **kw: made.append(1) or init(self, *a, **kw))
        srdf_kit.cli._parser.cache_clear()
        try:
            config = CONFIGS / "three_component_srdf.yaml"
            assert run("srdf", config, tmp_path / "a") == 0
            assert run("distrate", CONFIGS / "three_component_distrate.yaml", tmp_path / "b") == 0
            assert made == [1]
        finally:
            srdf_kit.cli._parser.cache_clear()

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["bogus", "--config", "x.yaml"], "srdf-kit: error: argument task: invalid choice: "),
            (["srdf"], "srdf-kit: error: the following arguments are required: --config\n"),
        ],
        ids=["bad-task", "missing-config"],
    )
    def test_bad_arguments_exit_2_with_the_usage(self, monkeypatch, capsys, argv, error):
        monkeypatch.setenv("COLUMNS", "80")   # argparse wraps the usage to the terminal width
        srdf_kit.cli._parser.cache_clear()
        texts = []
        for _ in range(2):   # the first call builds the parser, the second reuses it
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            texts.append(captured.err)
        assert texts[0] == texts[1]
        assert texts[0].startswith(USAGE + error), texts[0]

    def test_help_is_unchanged_by_reuse(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        srdf_kit.cli._parser.cache_clear()
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(USAGE + "\nRate distortion curves and coding experiments")
        assert "--seed SEED" in texts[0] and "override the config seed" in texts[0]


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        config = CONFIGS / "three_component_srdf.yaml"
        proc = run_declared_script(SCRIPT, ["srdf", "--config", str(config), "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "curve.csv").exists()

        missing = tmp_path / "no_such_config.yaml"
        proc = run_declared_script(SCRIPT, ["srdf", "--config", str(missing), "--out", str(tmp_path)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error [cli.config_parse]"), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(shutil.which(SCRIPT) is None, reason="srdf-kit is not installed on PATH")
    def test_installed_console_script(self, tmp_path):
        proc = subprocess.run(
            [
                SCRIPT,
                "srdf",
                "--config",
                str(CONFIGS / "three_component_srdf.yaml"),
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "curve.csv").exists()

    def test_cli_import_leaves_out_removed_dependencies(self):
        probe = "import sys, srdf_kit.cli; print([m for m in ('scipy', 'concurrent.futures') if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("task, config, front_ends", [
        ("srdf", "three_component_srdf.yaml", []),
        ("gmf-srdf", "exp_field_srdf.yaml", ["field"]),
        ("optimize-set", "subset_search.yaml", ["setopt"]),
        ("usrdf-bayes", "corr_family_bayes.yaml", ["universal"]),
        ("usim", "corr_family_usim.yaml", ["simulate", "universal"]),   # simulate imports universal
    ])
    def test_a_task_imports_only_its_front_ends(self, tmp_path, task, config, front_ends):
        # the package and the CLI load the core alone; a task then loads the front ends it runs
        probe = ("import sys, srdf_kit.cli, srdf_kit\n"
                 "def loaded(): print(sorted(m[9:] for m in sys.modules if m.startswith('srdf_kit.')))\n"
                 "loaded(); code = srdf_kit.cli.main(sys.argv[1:]); loaded(); sys.exit(code)")
        argv = [task, "--config", str(CONFIGS / config), "--out", str(tmp_path)]
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        core = ["cli", "errors", "model", "srdf"]
        assert lines[0] == str(core)
        assert lines[-1] == str(sorted(core + front_ends))

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "srdf_kit.cli",
                "srdf",
                "--config",
                str(CONFIGS / "three_component_srdf.yaml"),
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


# Small Monte Carlo sizes, chosen as test data: the harness asks how a run ends, not how well it codes,
# and 400 grid nodes at these sizes still train in well under a second
MUTATION_SIM = {"n": 1, "rate_bits": 1.0, "eval_blocks": 8, "est_length": 4, "train_blocks": 40, "lbg_iters": 2,
                "seed": 3}
MUTATION_GRID = {"min": 1.0, "max": 1.9, "count": 3}
AFFINE_FAMILY = {"template": "affine", "base": [[1.0, 0.3], [0.3, 1.0]], "directions": [[[1.0, 0.0], [0.0, 0.0]]],
                 "box": [[0.0, 0.4]], "prior": "uniform", "grid_res": 3}


def oblique_family(c):
    """The family config base [[2, .5], [.5, 1]] + t1 [[1, 0], [0, 0]] + t2 [[c, .3], [.3, 0]] on [0, 1]^2, 5 x 5
    nodes: sampled at [1], its sampled block stays fixed along the lines t1 + c t2 = const."""
    return {"template": "affine", "base": [[2.0, 0.5], [0.5, 1.0]],
            "directions": [[[1.0, 0.0], [0.0, 0.0]], [[c, 0.3], [0.3, 0.0]]], "box": [[0.0, 1.0], [0.0, 1.0]],
            "prior": "uniform", "grid_res": 5}


def oblique_config(tmp_path, c):
    path = tmp_path / "oblique.yaml"
    path.write_text(yaml.safe_dump({"family": oblique_family(c), "sampling": [1], "grid": MUTATION_GRID,
                                    "sim": MUTATION_SIM}), encoding="utf-8")
    return path


def mutation_cases():
    """{name: (task, config)}: the shipped fixed-var-corr configs and one affine family through every family
    task, the affine spelling of the correlation family through the worst case, the shipped simulate config,
    each with the small sim sizes and a short grid, and the shipped configs of the other five tasks, the
    subset search's covariance inlined."""
    cases = {}
    families = {path.stem: yaml.safe_load(path.read_text(encoding="utf-8"))["family"]
                for path in sorted(CONFIGS.glob("corr_family_*.yaml"))}
    for name, family in {**families, "affine": AFFINE_FAMILY}.items():
        for task in ("usrdf-bayes", "usrdf-nonbayes", "usim"):
            cases[f"{name}:{task}"] = (task, {"family": family, "sampling": [1], "grid": MUTATION_GRID,
                                              "sim": MUTATION_SIM})
    # the correlation family spelled as an affine one, which takes the worst-case closed form too
    cases["affine_corr:usrdf-nonbayes"] = ("usrdf-nonbayes", {
        "family": {**AFFINE_CORR_FAMILY, "prior": "uniform", "grid_res": 3}, "sampling": [1], "grid": MUTATION_GRID})
    model = yaml.safe_load((CONFIGS / "two_step_sim.yaml").read_text(encoding="utf-8"))
    cases["two_step_sim:simulate"] = ("simulate", {**model, "sim": MUTATION_SIM})
    for stem, task in (("three_component_srdf", "srdf"), ("three_component_distrate", "distrate"),
                       ("exp_field_srdf", "gmf-srdf"), ("exp_field_place", "place"),
                       ("subset_search", "optimize-set")):
        cases[f"{stem}:{task}"] = (task, shipped_config(stem))
    return cases


MUTATION_CASES = mutation_cases()
# the shipped field curve on a tabulated kernel, p^|s-u| on a 5-knot mesh; the test writes the mesh beside the
# config as mesh.csv, from its upper triangle (row i from column i on), so that a mutation keeps it symmetric
MESH_CASES = {"tabulated_mesh:gmf-srdf": ("gmf-srdf", {
    **shipped_config("exp_field_srdf"), "field": {"kernel": {"type": "tabulated", "mesh_csv": "mesh.csv"}},
    "mesh": [[0.5 ** ((j - i) / 4) for j in range(i, 5)] for i in range(5)]})}


def numeric_paths(tree, path=()):
    """Paths to every number of ``tree`` and to every list that holds one, in document order."""
    if isinstance(tree, (bool, str)):
        return []
    if isinstance(tree, (int, float)):
        return [path]
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    below = [p for key, value in items for p in numeric_paths(value, path + (key,))]
    return ([path] if isinstance(tree, list) and below else []) + below


def mutated(tree, path, mutation):
    """``tree`` with the subtree at ``path`` set to a value, or each of its numbers scaled by 10^k or negated."""
    if path:
        copy = dict(tree) if isinstance(tree, dict) else list(tree)
        copy[path[0]] = mutated(tree[path[0]], path[1:], mutation)
        return copy
    if mutation[0] == "value":
        return mutation[1]
    if isinstance(tree, list):
        return [mutated(value, (), mutation) for value in tree]
    return tree * 10.0 ** mutation[1] if mutation[0] == "scale" else -tree


SCALINGS = st.integers(-300, 300).map(lambda k: ("scale", k)) | st.just(("negate",))
MUTATIONS = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0, 5e-324]).map(
    lambda x: ("value", x)) | SCALINGS
# the integer sizes and seeds, drawn whole: a float there is refused before anything runs
SIZE_KEYS = {"grid_res", "k", "restarts", "count", "quad_points", "seed"}
SIZES = st.sampled_from([0, 1, 2, 400, 10 ** 6]).map(lambda x: ("value", x))
MUTATED_BLOCKS = ("model", "family", "grid", "field", "points", "placement", "search", "mesh")


@st.composite
def config_mutations(draw, cases=MUTATION_CASES):
    """(case name, [(path, mutation), ...]): one to three mutations of the numbers in the model, family,
    grid, field, points, placement, search and mesh blocks of one of ``cases``; a list keeps its shape, so
    that every path stays a path."""
    name = draw(st.sampled_from(sorted(cases)))
    cfg = cases[name][1]
    tree = {block: cfg[block] for block in MUTATED_BLOCKS if block in cfg}
    edits = []
    for path in draw(st.lists(st.sampled_from(numeric_paths(tree)), min_size=1, max_size=3)):
        leaf = functools.reduce(lambda sub, key: sub[key], path, tree)
        kind = SCALINGS if isinstance(leaf, list) else SIZES if path[-1] in SIZE_KEYS else MUTATIONS
        edits.append((path, draw(kind)))
    return name, edits


def finite_artifacts(out: Path) -> list[str]:
    """Every number in the CSV and JSON files under ``out`` that is not finite, as "file: value"; a subset's
    labels are space-separated, and ``table.csv`` writes an infeasible subset's rate as inf."""
    bad = []
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=lambda token: bad.append(f"{path.name}: {token}"))
            continue
        for line in text.splitlines()[1:]:
            cells = line.replace(" ", ",").split(",")
            if path.name == "table.csv" and cells[-1] == "inf":
                cells.pop()
            bad += [f"{path.name}: {cell}" for cell in cells if not math.isfinite(float(cell))]
    return bad


class TestFamilyMutations:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(config_mutations())
    # each run that warned before it was refused, or wrote Infinity into its report
    @example(("corr_family_bayes:usrdf-bayes", [(("family", "sigma2"), ("value", math.inf)),
                                                (("family", "box", 0), ("value", [-0.5, 0.5])),
                                                (("family", "grid_res"), ("value", 3))]))
    @example(("corr_family_bayes:usrdf-bayes", [(("family", "sigma2"), ("value", 1e182)),
                                                (("family", "box", 0, 1), ("value", 1e308))]))
    @example(("affine:usrdf-bayes", [(("family", "directions", 0, 0, 0), ("value", 1e308)),
                                     (("family", "box", 0, 1), ("value", 10.0))]))
    @example(("two_step_sim:simulate", [(("model", "sigma"), ("value", [[1e186, 5e185], [5e185, 1e186]]))]))
    @example(("corr_family_usim:usim", [(("family", "sigma2"), ("scale", 186))]))
    @example(("affine:usim", [(("family", "base"), ("scale", 180)), (("family", "directions"), ("scale", 180))]))
    # the oblique family at c = 1.001, whose grid gave every node its own atom, as if the parameter were known
    @example(("affine:usrdf-bayes", [(("family",), ("value", oblique_family(1.001)))]))
    @example(("affine:usrdf-nonbayes", [(("family",), ("value", oblique_family(1.001)))]))
    @example(("affine:usim", [(("family",), ("value", oblique_family(1.001)))]))
    # each subnormal family that passed validation and then failed as a numerical error
    @example(("corr_family_bayes:usrdf-bayes", [(("family", "sigma2"), ("value", 5e-324)),
                                                (("family", "box", 0), ("value", [-0.4, 0.4]))]))
    @example(("corr_family_bayes:usrdf-bayes", [(("family", "sigma2"), ("value", 5e-324)),
                                                (("family", "box", 0), ("value", [0.0, 0.2]))]))
    @example(("corr_family_usim:usim", [(("family", "sigma2"), ("value", 5e-324)),
                                        (("family", "grid_res"), ("value", 1))]))
    # a subnormal model, refused by the same check
    @example(("three_component_srdf:srdf", [(("model", "sigma"), ("value", (np.eye(3) * 5e-324).tolist()))]))
    # a huge rate overflowed in the inverse waterfill
    @example(("three_component_distrate:distrate", [(("grid", "max"), ("value", 1e308))]))
    def test_every_run_ends_in_an_exit_code_without_a_warning(self, case):
        self.check_run(MUTATION_CASES, case)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(config_mutations(MESH_CASES))
    # a huge mesh value overflowed symmetrizing the mesh, and a huge mesh the field integrals
    @example(("tabulated_mesh:gmf-srdf", [(("mesh", 0, 0), ("value", 1e308))]))
    @example(("tabulated_mesh:gmf-srdf", [(("mesh",), ("scale", 160))]))
    # a tiny mesh lost the integrals' digits: 9.5% off at 1e-160, eigen_failure (exit 3) at 1e-180
    @example(("tabulated_mesh:gmf-srdf", [(("mesh",), ("scale", -160))]))
    @example(("tabulated_mesh:gmf-srdf", [(("mesh",), ("scale", -180))]))
    def test_every_tabulated_field_run_ends_in_an_exit_code_without_a_warning(self, case):
        self.check_run(MESH_CASES, case)

    @staticmethod
    def check_run(cases, case):
        name, edits = case
        task, cfg = cases[name]
        for path, mutation in edits:
            cfg = mutated(cfg, path, mutation)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.yaml"
            if "mesh" in cfg:   # mirrored from its upper triangle
                upper, n = cfg["mesh"], len(cfg["mesh"])
                rows = [f"{i},{j},{upper[min(i, j)][abs(i - j)]!r}" for i in range(n) for j in range(n)]
                (Path(tmp) / "mesh.csv").write_text("\n".join([str(n), *rows]) + "\n", encoding="utf-8")
                cfg = {key: value for key, value in cfg.items() if key != "mesh"}
            config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = run(task, config, Path(tmp) / "out")
            assert code in (0, 2, 3)
            if code:
                assert err.getvalue().startswith("error ["), err.getvalue()
            else:
                assert finite_artifacts(Path(tmp) / "out") == []
