import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import srdf_kit
from srdf_kit.cli import main

from conftest import knot_simpson

REPO = Path(__file__).parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).parent / "golden"


MODEL = "model:\n  sigma: [[1.0, 0.5], [0.5, 1.0]]\n"
FIELD = "field:\n  kernel: {type: gauss-markov, p: 0.5}\n"
GRID = "grid: {min: 1.0, max: 1.5, count: 2}\n"


def run(task, config, out, extra=()):
    return main([task, "--config", str(config), "--out", str(out), *extra])


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

    def test_optimize_set_outputs(self, tmp_path):
        assert run("optimize-set", CONFIGS / "subset_search.yaml", tmp_path) == 0
        lines = (tmp_path / "table.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "subset,delta_min,rate_bits"
        assert len(lines) == 7  # header + C(4,2)
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["best_subset"] == [2, 3]

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
            # so do the search's objective calls and per-restart values
            if solver == "search":
                assert isinstance(summary["objective_calls"], int) and summary["objective_calls"] > 1
                assert summary["restart_values"] == [summary["value"]]
            else:
                assert "objective_calls" not in summary and "restart_values" not in summary

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


class TestDeterminism:
    @pytest.mark.parametrize(
        "task,config",
        [
            ("srdf", "three_component_srdf.yaml"),
            ("usrdf-bayes", "corr_family_bayes.yaml"),
            ("simulate", "two_step_sim.yaml"),
            ("usim", "corr_family_usim.yaml"),
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
        ],
    )
    def test_malformed_config_value_is_validation(self, tmp_path, capsys, task, config):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(config, encoding="utf-8")
        assert run(task, cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error ["), err
        assert "Traceback" not in err

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
