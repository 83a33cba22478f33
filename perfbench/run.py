#!/usr/bin/env python3
"""srdf-kit benchmark: seeded CLI workloads, checked artifacts, optional trace.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run generates its workload's inputs from ``--seed``, then runs the job set
in passes: every job is ``srdf_kit.cli.main([...])`` called in-process on a
generated config.  Passes repeat until ``--seconds`` have gone by (at least
two, so that every job is repeated and its artifacts can be compared byte for
byte).  After timing, every job's artifacts go through its oracle.

Times are reported in reference seconds (``calibration.py``): a fixed
calibration kernel runs after every job, and a job's time is scaled by
``CAL_REF_S`` over the mean of the calibrations on either side of it.  Each
set-up probe runs the kernel in its own interpreter, after the timed import,
and is scaled by that.  The raw job times are kept in ``result.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run then makes one more pass with span wrappers around the
package's public functions, plus a threads probe on the search tasks, and
reports the per-layer metrics instead.  Everything the run writes goes under
``.perfbench/<workload>/`` at the root of the checkout.
"""

import os

# Single-threaded baseline: pinned before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SRDF_KIT_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import yaml  # noqa: E402

import oracles  # noqa: E402
from calibration import CAL_REF_S, Clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15         # fresh-interpreter imports per run, spread over its passes
MEASURE_BUDGET_S = 110.0   # past the minimum passes, never start one that would run past this
MIN_PASSES = 2             # so that every job is repeated and its artifacts can be compared
MIN_EXECUTIONS = 100       # so that ten executions lie beyond the p90
# The import is timed first; the calibration, median of three, runs after it on the same CPU.
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import srdf_kit.cli, srdf_kit; "
                "dt = time.perf_counter() - t0; import statistics, sys; sys.path.insert(0, sys.argv[1]); "
                "from calibration import calibrate; "
                "print(dt, statistics.median(calibrate() for _ in range(3)), srdf_kit.__file__)")


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Time to import srdf_kit.cli in a fresh interpreter, from the checkout's sources,
    in reference seconds."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], cwd=ROOT, env=_env_with_src(),
                          capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        _die(f"importing srdf_kit.cli failed:\n{proc.stderr}")
    seconds, cal, where = proc.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        _die(f"srdf_kit imported from {where}, not from {SRC}")
    return float(seconds) * CAL_REF_S / float(cal)


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    """Runs jobs through the CLI and keeps, per job, latencies (reference and raw
    seconds), digests and errors."""

    def __init__(self, jobs, out_root: Path, cli_main, clock: Clock):
        self.jobs = jobs
        self.out_root = out_root
        self.cli_main = cli_main
        self.clock = clock
        self.lat = {j.name: [] for j in jobs}
        self.raw = {j.name: [] for j in jobs}
        self.digests = {j.name: [] for j in jobs}
        self.errors = {j.name: [] for j in jobs}
        self.attempted = 0

    def out(self, job) -> Path:
        return self.out_root / job.name

    def run(self, job) -> float:
        """Runs the job once; its latency in raw seconds."""
        sink = io.StringIO()
        self.attempted += 1
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli_main(job.argv(self.out(job)))
            except (Exception, SystemExit) as exc:   # a crash is a failed job, not a dead run
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if rc == 0:
            self.digests[job.name].append(_digest(self.out(job)))
        else:
            self.errors[job.name].append(f"exit {rc}: {sink.getvalue().strip()[-300:]}")
        return dt

    def timed(self, job) -> float:
        """Runs the job once; its latency in reference seconds."""
        return self.clock.scaled(self.run(job))

    def timed_passes(self, seconds: float, between=None) -> int:
        """Whole passes over the job set until ``seconds`` have elapsed.  The first
        MIN_PASSES passes, and as many as MIN_EXECUTIONS executions take, always run;
        MEASURE_BUDGET_S only stops the passes after those.

        ``between`` runs after each pass, outside the timed region."""
        passes = 0
        start = time.perf_counter()
        while True:
            for job in self.jobs:
                dt = self.run(job)
                self.raw[job.name].append(dt)
                self.lat[job.name].append(self.clock.scaled(dt))
            passes += 1
            elapsed = time.perf_counter() - start
            if between:
                between()
            if passes < MIN_PASSES or passes * len(self.jobs) < MIN_EXECUTIONS:
                continue
            if elapsed >= seconds or elapsed * (passes + 1) / passes > MEASURE_BUDGET_S:
                return passes


def end_to_end(runner: Runner, failed_jobs: set, setup_s: float) -> dict:
    """Throughput and median from each job's median latency, so that a burst of load on
    the machine during one pass does not move them.  The p90 is over every timed
    execution, so that at least ten executions lie beyond it; with 27-57 jobs per
    workload those are repeats of the 3-6 slowest jobs, not ten distinct jobs."""
    medians = [statistics.median(runner.lat[j.name]) for j in runner.jobs]
    verified = sum(1 for j in runner.jobs if j.name not in failed_jobs)
    lat = [x for j in runner.jobs for x in runner.lat[j.name]]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (verified / sum(medians), "1/s"),
        "job_p50_s": (statistics.median(medians), "s"),
        "job_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def threads_probe(runner: Runner, nproc: int) -> dict:
    """Re-run the search tasks once with SRDF_KIT_THREADS=nproc; speed-up per layer."""
    out = {}
    for task, metric in (("optimize-set", "setopt.threads_speedup"), ("place", "field.threads_speedup")):
        jobs = [j for j in runner.jobs if j.task == task]
        if not jobs:
            out[metric] = (0.0, "ratio")
            continue
        os.environ["SRDF_KIT_THREADS"] = str(nproc)
        try:
            threaded = sum(runner.timed(j) for j in jobs)
        finally:
            os.environ["SRDF_KIT_THREADS"] = "1"
        serial = sum(statistics.median(runner.lat[j.name]) for j in jobs)
        out[metric] = (serial / threaded, "ratio")
    return out


def job_problems(runner: Runner, job) -> list[str]:
    """Errors, differing artifacts across repeats (threaded ones too), then the oracle."""
    found = list(runner.errors[job.name])
    if len(set(runner.digests[job.name])) > 1:
        found.append(f"artifacts differ across {len(runner.digests[job.name])} repeats")
    if not runner.errors[job.name]:
        found += oracles.check(job, runner.out(job), ROOT)
    return found


def _artifacts(runner: Runner, job):
    """(config, summary or report, curve points) of a job, for the layer metrics;
    None in place of the summary when the job failed."""
    cfg = yaml.safe_load(job.config.read_text(encoding="utf-8"))
    out = runner.out(job)
    meta = out / ("report.json" if job.task in ("simulate", "usim") else "summary.json")
    if runner.errors[job.name] or not meta.exists():
        return cfg, None, 0
    curve = out / "curve.csv"
    points = len(curve.read_text(encoding="utf-8").splitlines()) - 1 if curve.exists() else 0
    return cfg, json.loads(meta.read_text(encoding="utf-8")), points


def run_workload(args) -> dict:
    if not (SRC / "srdf_kit" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        _die(f"no srdf_kit sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import srdf_kit.cli

    if not Path(srdf_kit.cli.__file__).resolve().is_relative_to(SRC):
        _die(f"srdf_kit imported from {srdf_kit.cli.__file__}, not from {SRC}")
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.generate(args.workload, args.seed, work / "inputs", ROOT / "configs")
    nproc = len(os.sched_getaffinity(0))
    env = {"blas_threads": 1, "srdf_kit_threads": 1, "nproc": nproc,
           "python": platform.python_version(), "numpy": numpy.__version__}
    clock = Clock()
    imports: list[float] = []
    if not args.trace:
        import_seconds()      # the first import after a checkout also compiles bytecode
        imports.append(import_seconds())

    # main is looked up on every call, so the trace wrappers apply once installed
    runner = Runner(jobs, work / "out", lambda argv: srdf_kit.cli.main(argv), clock)
    for job in jobs:
        if job.name.startswith("shipped-"):   # warm lazy imports and first-call paths
            runner.run(job)
    passes = runner.timed_passes(args.seconds, None if args.trace else lambda: imports.append(import_seconds()))
    while not args.trace and len(imports) < SETUP_SAMPLES:
        imports.append(import_seconds())

    if args.trace:
        recorder = tracing.SpanRecorder()
        traced_busy = 0.0
        with tracing.traced(recorder):
            for jid, job in enumerate(jobs):
                recorder.job_id = jid
                traced_busy += runner.timed(job)
        recorder.save(work / "spans.npz")
        probe = threads_probe(runner, nproc)

    problems = {job.name: found for job in jobs if (found := job_problems(runner, job))}
    if args.trace:
        metrics = tracing.layer_metrics(tracing.SpanTable(recorder), jobs, lambda j: _artifacts(runner, j))
        untraced = end_to_end(runner, set(problems), 0.0)["jobs_per_s"][0]
        traced = (len(jobs) - len(problems)) / traced_busy
        metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced / untraced), "%")
        metrics.update(probe)
    else:
        metrics = end_to_end(runner, set(problems), statistics.median(imports))

    # every execution of a job left either a digest or an error
    failed = sum(len(runner.digests[n]) + len(runner.errors[n]) for n in problems)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "passes": passes, "jobs": len(jobs), "problems": problems,
        "job_digests": {j.name: sorted(set(runner.digests[j.name])) for j in jobs},
        "job_latency_s": {j.name: runner.lat[j.name] for j in jobs},
        "job_latency_raw_s": {j.name: runner.raw[j.name] for j in jobs},
        "calibration_s": clock.cal, "calibration_ref_s": CAL_REF_S,
    }
    (work / "result.json").write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "env": env,
        "problems": problems,
        "passes": passes,
        "jobs": len(jobs),
    }


def _print_result(name: str, result: dict) -> None:
    print(f"[{name}] {result['jobs']} jobs x {result['passes']} passes;"
          f" failed {result['failed']} / attempted {result['attempted']}")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    layers = {k.split(".")[1]: m["value"] for k, m in result["metrics"].items() if k.startswith("layer.")}
    if sum(layers.values()) > 0:
        total = sum(layers.values())
        print("  self-time split: " + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in layers.items()))
    for job, found in result["problems"].items():
        print(f"  FAILED {job}: {'; '.join(found)[:500]}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": {f"{w}.{k}": v for w, r in combined.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    env = result.pop("env")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    _print_result(args.workload, result)
    for key in ("problems", "passes", "jobs"):
        result.pop(key)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
