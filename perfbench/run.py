"""Benchmark of the isocmc command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid1001-io --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the jobs of the workload run as users run them: one
fresh ``python -m isocmc.cli`` process per job, one job at a time (a closed
loop with a single client), repeated until ``--seconds`` have passed.
Fresh ``isocmc --version`` processes are timed between the jobs.  Every
job's outputs are checked by the numpy oracles in ``oracles.py``.  With
``--trace 1`` the first pass of the same jobs runs in this process through
``isocmc.cli.main``, each job once plain and once under the span tracer of
``tracer.py``, which gives the per-layer numbers and the tracing overhead.
The spans of the latest traced run of a workload are written to
``.perfbench-spans/<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the provenance and a table of every metric with unit and sample
count, including those reported only on the workloads that run them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SPANS = ROOT / ".perfbench-spans"
JOB_TIMEOUT_S = 150.0
# Share of the jobs' wall time spent on timing `isocmc --version` beside them.
SETUP_SHARE = 0.15
IMPORT_SAMPLES = 5
COMMANDS = ("lift", "analyze", "classify", "pde", "sweep", "vdist")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# The metrics the result line carries; BENCHMARK.json lists the same names.
# Per-subcommand medians and fail_ratio are printed in the table only: not
# every workload runs every subcommand, and fail_ratio is 0 on two of them.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"holo.{f}.{stat}": unit for f, stat, unit in (
        ("contour_integral", "s", "s"), ("contour_integral", "calls", "count"),
        ("evaluate", "s", "s"), ("evaluate", "calls", "count"), ("evaluate", "points", "count"),
        ("parse", "s", "s"), ("derivative", "s", "s"), ("antiderivative", "s", "s"),
        ("antiderivative", "none", "count"),
    )},
    "weierstrass.synthesize.s": "s",
    "weierstrass.synthesize.calls": "count",
    "weierstrass.synthesize.nodes": "count",
    "weierstrass.SurfaceSample.as_height_field.s": "s",
    "graphgeo.fd_mean_curvature.s": "s",
    "graphgeo.fd_gauss_curvature.s": "s",
    "graphgeo.pde_analyze.s": "s",
    "graphgeo.quadratic_test.s": "s",
    "graphgeo.quadratic_test.calls": "count",
    "classify.classify_sample.s": "s",
    "classify.label_from_constants.calls": "count",
    "vdist.sample_k_image.s": "s",
    "vdist.umbilic_scan.s": "s",
    "vdist.umbilic_scan.evaluate_calls": "count",
    "vdist.umbilic_scan.zeros": "count",
    **{f"io_mesh.{f}.{stat}": unit for f in ("write_grid", "export_obj", "read_grid")
       for stat, unit in (("s", "s"), ("bytes", "bytes"), ("calls", "count"))},
    "io_mesh.write_report.s": "s",
    "cli.import.s": "s",
    "cli.main.s": "s",
    **{f"{m}.lines": "lines" for m in MODULES},
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class Outcome:
    """What one run of a workload's jobs produced."""

    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)  # failures not a named known defect
    known: dict[str, int] = field(default_factory=dict)  # known defect -> failed jobs

    def record(self, job, code: int | None, problems: list[str], out: Path) -> None:
        """Count one job: it fails on a non-zero exit, a timeout or a failed check."""
        self.attempted += 1
        if code == 0 and not problems:
            return
        self.failed += 1
        defect = oracles.known_defect(job, out) if code == 0 else None
        if defect:
            self.known[defect] = self.known.get(defect, 0) + 1
        else:
            self.unexpected.append(f"{job.name} ({job.command}): {'; '.join(problems)}")


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], env: dict, tmp: Path):
    """Run one process to its end: (wall seconds, exit code, max RSS in MB).

    Wall time runs from spawn to exit.  The exit status and resource usage
    come from os.wait4, so ru_maxrss is the job's own peak.  A job past the
    timeout is killed and reported with exit code None.  Its standard error
    is left in tmp/stderr.txt.
    """
    with open(tmp / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=tmp)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, (code if code >= 0 else None), usage.ru_maxrss / 1024.0


def isocmc_argv(job_argv) -> list[str]:
    return [sys.executable, "-m", "isocmc.cli", *job_argv]


def provenance(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_head": rev,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def clear(directory: Path) -> None:
    for entry in directory.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


def warm_up(env: dict, tmp: Path) -> None:
    """One discarded job, so the page cache holds Python, numpy and isocmc."""
    spawn(isocmc_argv(["lift", "--h2", "z^2", "--omega", "1", "--grid", "21x21",
                       "--out-dir", str(tmp), "-o", "warmup"]), env, tmp)
    clear(tmp)


def run_untraced(args, tmp: Path) -> tuple[Outcome, dict, dict]:
    """Closed loop of fresh CLI processes; returns samples per metric."""
    env = job_env()
    out = tmp / "out"
    out.mkdir()
    warm_up(env, out)
    version = isocmc_argv(["--version"])
    setup: list[float] = []
    samples: dict[str, list[float]] = {"setup_s": setup}
    outcome = Outcome()
    deadline = time.perf_counter() + args.seconds
    iteration, jobs_s = 0, 0.0
    while True:
        pass_s = 0.0
        for job in workloads.jobs(args.workload, args.seed, iteration, str(out), args.scale):
            wall, code, rss = spawn(isocmc_argv(job.argv), env, tmp)
            samples.setdefault(f"{job.command}_s", []).append(wall)
            samples.setdefault("peak_rss_mb", []).append(rss)
            pass_s += wall
            jobs_s += wall
            if code == 0:
                problems = oracles.check(job, out)
            else:
                tail = (tmp / "stderr.txt").read_text(errors="replace").strip()[-300:]
                problems = [f"exit code {code}: {tail}"]
            outcome.record(job, code, problems, out)
            # Set-up samples after the jobs, in proportion to their time,
            # see the host as the jobs do all through the run.  They come
            # after the check, which reads the job's stderr.txt.
            while not setup or sum(setup) < SETUP_SHARE * jobs_s:
                setup.append(spawn(version, env, tmp)[0])
        samples.setdefault("run_s", []).append(pass_s)
        clear(out)
        iteration += 1
        if time.perf_counter() >= deadline:
            break
    values = {
        name: (max(v) if name == "peak_rss_mb" else statistics.median(v))
        for name, v in samples.items()
    }
    values["fail_ratio"] = outcome.failed / outcome.attempted
    counts = {name: len(v) for name, v in samples.items()}
    counts["fail_ratio"] = outcome.attempted
    return outcome, values, counts


def _run_in_process(job, out: Path, outcome: Outcome) -> float:
    """Run one job through isocmc.cli.main, check it, return its wall time."""
    from isocmc import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(list(job.argv))
        elapsed = time.perf_counter() - start
    problems = oracles.check(job, out) if code == 0 else [f"exit code {code}: {sink.getvalue()[-300:]}"]
    outcome.record(job, code, problems, out)
    return elapsed


def import_seconds(env: dict, tmp: Path) -> float:
    """Median time of `import isocmc.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import isocmc.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_SAMPLES):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp,
                             capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True)
        times.append(float(res.stdout))
    return statistics.median(times)


def run_traced(args, tmp: Path) -> tuple[Outcome, dict]:
    """Each job of the first pass, in this process, once plain and once traced.

    The two runs of a job follow each other, and which goes first
    alternates from job to job, so drift in host speed and warm caches fall
    on both sides alike.  The oracles check both; the summed wall times give
    the tracing overhead.
    """
    env = job_env()
    out = tmp / "out"
    out.mkdir()
    warm_up(env, out)
    values = {"cli.import.s": import_seconds(env, tmp)}
    sys.path.insert(0, str(SRC))
    outcome, tracer = Outcome(), Tracer()
    seconds = {False: 0.0, True: 0.0}
    for index, job in enumerate(workloads.jobs(args.workload, args.seed, 0, str(out), args.scale)):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                seconds[traced] += _run_in_process(job, out, outcome)
            finally:
                tracer.uninstall()
    clear(out)
    SPANS.mkdir(exist_ok=True)
    tracer.write(SPANS / f"{args.workload}.jsonl")  # the latest traced run
    layer = tracer.summary()
    values.update({name: layer.get(name, 0) for name in PER_LAYER if name not in values})
    for module in MODULES:
        values[f"{module}.lines"] = len((SRC / "isocmc" / f"{module}.py").read_text().splitlines())
    values["trace.untraced_s"] = seconds[False]
    values["trace.traced_s"] = seconds[True]
    values["trace.overhead"] = seconds[True] / seconds[False] - 1.0
    return outcome, values


def print_table(values: dict, units: dict, counts: dict) -> None:
    for name in sorted(values):
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:<46} {values[name]:>14.6g} {units.get(name, '')}{n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="grid sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "isocmc" / "cli.py").is_file():
        print(f"error: no isocmc sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    print("provenance:", json.dumps(provenance(args)))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as name:
        tmp = Path(name)
        if args.trace:
            outcome, values = run_traced(args, tmp)
            reported, units, counts = PER_LAYER, PER_LAYER, {}
        else:
            outcome, values, counts = run_untraced(args, tmp)
            reported = END_TO_END
            units = {**END_TO_END, **{f"{c}_s": "s" for c in COMMANDS}, "fail_ratio": "ratio"}
    print(f"{args.workload}: {outcome.attempted} jobs, {outcome.failed} failed")
    print_table(values, units, counts)
    for defect, n in sorted(outcome.known.items()):
        print(f"  known defect {defect}: {n} job(s)")
    for line in outcome.unexpected:
        print(f"  FAILED {line}")
    result = {
        "correct": not outcome.unexpected,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
