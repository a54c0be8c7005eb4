"""Self-tests of the benchmark, on tiny sizes of each workload.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    # Inside the checkout, like the benchmark's own run directories.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as name:
        yield Path(name)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_job(job: workloads.Job, out: Path) -> list[str]:
    from isocmc import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(job.argv)) == 0
    return oracles.check(job, out)


def tiny_job(workload: str, name: str, out: Path, seed: int = 3) -> workloads.Job:
    return next(j for j in workloads.jobs(workload, seed, 0, str(out), "tiny") if j.name == name)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    first = workloads.jobs(workload, 11, 2, "OUT")
    assert first == workloads.jobs(workload, 11, 2, "OUT")
    assert [j.argv for j in first] != [j.argv for j in workloads.jobs(workload, 12, 2, "OUT")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_accept_the_package_output(workload):
    res = result_line(bench("--workload", workload, "--seed", "5", "--seconds", "0",
                            "--trace", "0", "--scale", "tiny"))
    assert res["correct"] is True
    assert res["attempted"] == len(workloads.jobs(workload, 5, 0, "OUT"))
    # Only short-jobs reaches vdist, whose two known defects fail one job each.
    assert res["failed"] == (2 if workload == "short-jobs" else 0)
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    res = result_line(bench("--workload", workload, "--seed", "5", "--seconds", "0",
                            "--trace", "1", "--scale", "tiny"))
    metrics = {name: m["value"] for name, m in res["metrics"].items()}
    assert res["correct"] is True
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert (metrics["holo.contour_integral.calls"] > 0) == (workload == "quadrature")
    assert (metrics["io_mesh.read_grid.calls"] > 0) == (workload == "grid1001-io")
    assert (metrics["vdist.umbilic_scan.evaluate_calls"] > 0) == (workload == "short-jobs")
    assert metrics["cli.main.s"] > 0 and metrics["trace.traced_s"] > 0
    # The spans written when the run ended add up to the reported counts.
    rows = [json.loads(line) for line in (run.SPANS / f"{workload}.jsonl").read_text().splitlines()]
    names = [r["name"] for r in rows if "name" in r]
    assert names.count("cli.main") == len(workloads.jobs(workload, 5, 0, "OUT"))
    assert names.count("holo.contour_integral") == metrics["holo.contour_integral.calls"]
    assert names.count("io_mesh.read_grid") == metrics["io_mesh.read_grid.calls"]
    assert sum(r["calls"] for r in rows if r.get("aggregate") == "holo.evaluate") == metrics["holo.evaluate.calls"]


def test_tracer_restores_the_package():
    from isocmc import classify, graphgeo, holo

    before = (holo.evaluate, graphgeo.quadratic_test, classify.quadratic_test)
    tracer = run.Tracer()
    tracer.install()
    try:
        assert classify.quadratic_test is graphgeo.quadratic_test is not before[1]
        holo.evaluate(holo.parse("z^2"), {"z": 2j})
    finally:
        tracer.uninstall()
    assert (holo.evaluate, graphgeo.quadratic_test, classify.quadratic_test) == before
    assert tracer.summary()["holo.evaluate.calls"] == 1


@pytest.mark.parametrize("workload", ["grid1001-io", "quadrature"])
def test_perturbed_grid_value_is_flagged(workload, workdir):
    lift = tiny_job(workload, "lift", workdir)
    assert run_job(lift, workdir) == []
    path = workdir / "lift.grid"
    lines = path.read_text().splitlines()
    x, y, ell = lines[-5].split()
    lines[-5] = f"{x} {y} {float(ell) + 1e-6:.17g}"
    path.write_text("\n".join(lines) + "\n")
    problems = oracles.check(lift, workdir)
    assert problems and any("grid ell" in p for p in problems)


def test_perturbed_mesh_vertex_is_flagged(workdir):
    lift = tiny_job("short-jobs", "lift", workdir)
    assert run_job(lift, workdir) == []
    path = workdir / "lift.obj"
    path.write_text(path.read_text().replace("v -1 -1 ", "v -1 -0.99 ", 1))
    assert oracles.check(lift, workdir)


@pytest.mark.parametrize("family", ["linear", "power"])
def test_flipped_verdict_is_flagged(family, workdir):
    job = tiny_job("short-jobs", f"vdist_{family}", workdir)
    assert run_job(job, workdir) == []
    path = workdir / f"{job.name}.json"
    doc = json.loads(path.read_text())
    doc["vdist"]["verdict"] = "OpenBelowSup"
    path.write_text(json.dumps(doc))
    assert oracles.check(job, workdir)
    assert oracles.known_defect(job, workdir) is None


def test_flipped_label_is_flagged(workdir):
    job = tiny_job("short-jobs", "classify_hk", workdir)
    assert run_job(job, workdir) == []
    path = workdir / f"{job.name}.json"
    doc = json.loads(path.read_text())
    doc["classification"]["label"] = "NonQuadric"
    path.write_text(json.dumps(doc))
    assert oracles.check(job, workdir)


def test_sign_rule_table():
    assert oracles.sign_rule(0.0, 0.0) == "Plane"
    assert oracles.sign_rule(1.0, 0.0) == "Cylinder"
    assert oracles.sign_rule(0.0, -1.0) == "RectangularHyperbolicParaboloid"
    assert oracles.sign_rule(1.0, -1.0) == "HyperbolicParaboloid"
    assert oracles.sign_rule(1.0, 0.5) == "EllipticParaboloid"
    assert oracles.sign_rule(0.5, 0.25) == "CircularParaboloid"


def test_without_sources_it_fails_without_a_result(workdir):
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = bench("--workload", "short-jobs", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
