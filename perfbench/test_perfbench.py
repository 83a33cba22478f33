"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from srdf_kit.cli import TASKS, main  # noqa: E402

CONFIGS = ROOT / "configs"


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(tmp_path, workload):
    a = workloads.generate(workload, 7, tmp_path / "a", CONFIGS)
    b = workloads.generate(workload, 7, tmp_path / "b", CONFIGS)
    workloads.generate(workload, 8, tmp_path / "c", CONFIGS)
    assert [(j.name, j.task) for j in a] == [(j.name, j.task) for j in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_every_task_has_an_oracle(tmp_path):
    assert set(oracles.ORACLES) == set(TASKS)
    used = {j.task for w in workloads.WORKLOADS for j in workloads.generate(w, 1, tmp_path / w, CONFIGS)}
    assert used == set(TASKS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_run_and_pass_their_oracles(tmp_path, workload):
    for job in workloads.generate(workload, 3, tmp_path / "in", CONFIGS):
        out = tmp_path / "out" / job.name
        assert main(job.argv(out)) == 0, job.name
        assert oracles.check(job, out, ROOT) == [], job.name


def _shipped(tmp_path, task, config, golden=None):
    job = workloads.Job(Path(config).stem, task, CONFIGS / config, golden)
    out = tmp_path / job.name
    assert main(job.argv(out)) == 0
    assert oracles.check(job, out, ROOT) == []
    return job, out


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_corrupted_curve_is_a_failure(tmp_path):
    job, out = _shipped(tmp_path, "srdf", "three_component_srdf.yaml", "three_component_srdf_curve.csv")
    lines = (out / "curve.csv").read_text(encoding="utf-8").splitlines()
    delta, rate = lines[5].split(",")
    lines[5] = f"{delta},{float(rate) * (1 + 1e-6):.9g}"
    (out / "curve.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert oracles.check(job, out, ROOT)


def test_swallowed_infinite_placement_is_a_failure(tmp_path):
    job, out = _shipped(tmp_path, "place", "exp_field_place.yaml")
    _edit_json(out / "summary.json", lambda s: s.update(value=float("inf")))
    assert oracles.check(job, out, ROOT)


def test_coincident_placement_points_are_a_failure(tmp_path):
    # the recomputed objective raises on a singular Gram matrix; that is a problem, not a crash
    job, out = _shipped(tmp_path, "place", "exp_field_place.yaml")
    _edit_json(out / "summary.json", lambda s: s.update(points=[0.5] * len(s["points"])))
    assert any("malformed" in found for found in oracles.check(job, out, ROOT))


def test_broken_mse_split_is_a_failure(tmp_path):
    job, out = _shipped(tmp_path, "simulate", "two_step_sim.yaml")
    # a total that forgot the estimation floor
    _edit_json(out / "report.json",
               lambda r: r["report"]["total_mse"].update(mean=r["report"]["weighted_mse"]["mean"]))
    assert oracles.check(job, out, ROOT)


def test_missing_artifact_is_a_failure(tmp_path):
    job, out = _shipped(tmp_path, "usrdf-bayes", "corr_family_bayes.yaml", "corr_family_bayes_curve.csv")
    (out / "allocation.csv").unlink()
    assert oracles.check(job, out, ROOT)


def test_artifacts_that_change_between_repeats_are_a_failure(tmp_path):
    job = workloads.Job("shipped-three_component_srdf", "srdf", CONFIGS / "three_component_srdf.yaml")
    calls = []

    def flaky_main(argv):
        code = main(argv)
        calls.append(1)
        with open(Path(argv[-1]) / "summary.json", "a", encoding="utf-8") as fh:
            fh.write(" " * len(calls))
        return code

    runner = run.Runner([job], tmp_path, flaky_main, calibration.Clock())
    runner.run(job)
    runner.run(job)
    assert any("differ" in p for p in run.job_problems(runner, job))


def test_clock_scales_by_the_calibrations_around_a_time():
    clock = calibration.Clock()
    before = clock.last
    scaled = clock.scaled(1.0)
    assert scaled == 1.0 * calibration.CAL_REF_S / (0.5 * (before + clock.last))
    assert clock.cal == [before, clock.last]
