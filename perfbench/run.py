"""Benchmark for tropical-pants: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload exact|amoeba|periods --seed N --seconds S --trace 0|1

The package is imported from ``src/`` beside this directory; nothing is
installed.  The run is a closed loop of one client: it starts one job, waits
for it, and starts the next until ``--seconds`` have passed.  Every job is a fresh
interpreter running ``perfbench/job.py``.  Between the jobs, the package
import is timed in more fresh interpreters (``setup_s``).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` jobs alternate untraced and traced, and
it holds the per-layer metrics, including the tracing overhead.  Metric names
and units are those of ``BENCHMARK.json`` at the root.  Detailed records
(environment, every job, every span) go to ``.perfbench_work/``.
See ``perfbench/NOTES.md`` for why each workload exists and what it measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "tropical_pants"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
JOB = HERE / "job.py"

WORKLOADS = ("exact", "amoeba", "periods")
DEFAULT_SEED = 0
HELD_OUT_SEED = 2102
SETUP_SPAWNS = 5  # per round; a round runs before every job and after the last
RUN_BUDGET_S = 170.0  # the whole run, set-up and jobs, must end well within 180 s
MIN_JOBS = 2  # so that every run compares the artifacts of two jobs
# per-layer times that are not the sum of a library call's spans
DERIVED_LAYERS = ("subdivision.certify", "bench.self")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit for the mode, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def make_inputs(workload: str, seed: int) -> dict:
    """Job inputs from the seed; ``periods`` probes and windows are added by a ``gen`` child."""
    if workload == "exact":
        return {"d": 16, "d_identities": 9, "inv_lo": 5, "inv_hi": 50}
    if workload == "amoeba":
        rng = random.Random(f"amoeba:{seed}")
        o1, o2 = (0.0, 0.0) if seed == DEFAULT_SEED else (
            round(rng.uniform(-0.75, 0.75), 3) for _ in range(2)
        )
        return {
            "d": 8,
            "t_exps": [4, 8, 16],
            "x1": [-2.0 + o1, 8.0 + o1, 8],
            "x2": [-2.0 + o2, 8.0 + o2, 8],
            "n_theta": [6, 6],
        }
    return {
        "d": 8,
        "pairs": [[[1, 1, 1], [1, 1, 2]], [[1, 1, 1], [2, 1, 0]]] if seed == DEFAULT_SEED else None,
        "n": 64,
        "t_period_exp": 16,
        "fiber_t_exps": [4, 8, 16],
        "n_x": 5,
        "n_theta": 8,
        "max_relative_error": 1e-9,
    }


def nominal_units(workload: str, inp: dict) -> int:
    """Units one job attempts, from the inputs alone."""
    if workload == "exact":
        d, e = inp["d"], inp["d_identities"]
        points = math.comb(e + 3, 3)
        boundary = points - math.comb(e - 1, 3)
        return d**3 + e**3 + (e - 4) ** 3 * (points + boundary)
    if workload == "amoeba":
        per_t = inp["x1"][2] * inp["x2"][2] * inp["n_theta"][0] * inp["n_theta"][1]
        return len(inp["t_exps"]) * per_t
    fiber = len(inp["fiber_t_exps"]) * inp["n_x"] ** 2 * inp["n_theta"] ** 2
    return len(inp["probes"]) * inp["n"] ** 2 + fiber


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TROPICAL_PANTS_THREADS"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class JobError(Exception):
    """A child exited non-zero, timed out, or printed no record."""


def spawn(request: dict, env: dict, deadline: float) -> dict:
    """Run job.py in a fresh interpreter; returns its record plus wall and set-up time."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB), json.dumps(request)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"{request['mode']} timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise JobError(f"{request['mode']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.monotonic() - started
    if "imported_at" in record:
        record["setup_s"] = record["imported_at"] - started
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def deterministic(jobs: list[dict]) -> bool:
    """Every job of the run wrote the same artifacts, byte for byte."""
    digests = [{k: a["sha256"] for k, a in j["artifacts"].items()} for j in jobs]
    return all(d == digests[0] for d in digests)


def layer_metrics(jobs: list[dict], untraced: list[dict], layers: list[str]) -> dict:
    """Per-layer metrics: medians over traced jobs of per-job sums, shares and counts."""
    per_job = []
    for j in jobs:
        job_s = j["job_s"]
        sums = dict.fromkeys(layers, 0.0)
        for s in j["spans"]:
            if s["parent"] is None:
                continue
            if s["name"] not in sums:
                raise JobError(f"span {s['name']} has no metric in {SPEC.name}")
            sums[s["name"]] += s["end"] - s["start"]
        sums["bench.self"] = job_s - sum(sums.values())
        sums["subdivision.certify"] = j["certify_s"]
        c = j["counts"]

        def rate(count, layer):
            return c.get(count, 0) / sums[layer] if sums[layer] > 0 else 0.0

        m = {}
        for name, secs in sums.items():
            m[f"{name}.s"] = secs
            m[f"{name}.share"] = secs / job_s
        grid_points = c.get("amoeba.grid_points", 0)
        m.update(
            {
                "subdivision.cells": c["subdivision.cells"],
                "patchwork.identities": c.get("patchwork.identities", 0),
                "patchwork.identities_per_s": rate("patchwork.identities", "patchwork.identity_certificate"),
                "tropical.distance_many.points_per_s": rate("amoeba.samples", "tropical.distance_many"),
                "amoeba.sample_amoeba.points_per_s": rate("amoeba.grid_points", "amoeba.sample_amoeba"),
                "amoeba.grid_points": grid_points,
                "amoeba.samples": c.get("amoeba.samples", 0),
                "amoeba.failed_points": c.get("amoeba.failed_points", 0),
                "amoeba.rejected_roots": c.get("amoeba.rejected_roots", 0),
                "amoeba.full_root_ratio": c.get("amoeba.full_root_points", 0) / grid_points if grid_points else 0.0,
                "amoeba.period_integral.nodes_per_s": rate("amoeba.period_integral.nodes", "amoeba.period_integral"),
                "amoeba.limit_fiber_check.samples": c.get("amoeba.limit_fiber_check.samples", 0),
                "serialization.bytes": sum(a["bytes"] for a in j["artifacts"].values()),
                "trace.job_s": job_s,
            }
        )
        per_job.append(m)
    out = {k: median([m[k] for m in per_job]) for k in per_job[0]}
    out["trace.overhead_s"] = out["trace.job_s"] - median([j["job_s"] for j in untraced])
    out["bench.traced_jobs"] = len(jobs)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    begin = time.monotonic()
    deadline = begin + RUN_BUDGET_S
    env = child_env()
    WORK.mkdir(exist_ok=True)
    out_dir = WORK / f"out-{workload}"

    inputs = make_inputs(workload, seed)
    if workload == "periods":
        gen = spawn({"mode": "gen", "d": inputs["d"], "seed": seed, "pairs": inputs.pop("pairs")}, env, deadline)
        inputs["probes"] = gen["probes"]
    units = nominal_units(workload, inputs)
    declared = declared_metrics(trace)

    # the first spawn warms file and bytecode caches and is not counted; later
    # ones time a warm import, spread over the run so that the median does not
    # hang on one moment
    first = spawn({"mode": "setup"}, env, deadline)
    if Path(first["environment"]["package"]) != PACKAGE:
        raise JobError(f"imported {first['environment']['package']}, expected {PACKAGE}")
    setup = []

    def setup_round():
        setup.extend(spawn({"mode": "setup"}, env, deadline)["setup_s"] for _ in range(SETUP_SPAWNS))

    jobs, failures = [], []
    while True:
        setup_round()
        traced = trace and len(jobs) % 2 == 1
        request = {
            "mode": "job",
            "workload": workload,
            "trace": traced,
            "job_id": f"{workload}-{seed}-{len(jobs) + len(failures)}",
            "out_dir": str(out_dir),
            "inputs": inputs,
        }
        try:
            jobs.append(spawn(request, env, deadline))
        except JobError as exc:
            failures.append(str(exc))
            break
        jobs[-1]["traced"] = traced
        setup.append(jobs[-1]["setup_s"])
        measured = sum(j["wall_s"] for j in jobs)
        if time.monotonic() + median([j["wall_s"] for j in jobs]) > deadline or (
            measured >= seconds and len(jobs) >= MIN_JOBS
        ):
            break
    setup_round()

    for j in jobs:
        j["ok"] = all(j["checks"].values()) and j["units"] == units
    same_bytes = len(jobs) >= MIN_JOBS and deterministic(jobs)
    correct = not failures and same_bytes and all(j["ok"] for j in jobs)
    attempted = units * (len(jobs) + len(failures))
    failed = units * len(failures) + sum(
        units if not (j["ok"] and same_bytes) else j["failed_units"] for j in jobs
    )

    plain = [j for j in jobs if not j["traced"]]
    if trace:
        layers = [n.removesuffix(".share") for n in declared if n.endswith(".share")]
        layers = [n for n in layers if n not in DERIVED_LAYERS]
        traced_jobs = [j for j in jobs if j["traced"]]
        metrics = layer_metrics(traced_jobs, plain, layers) if traced_jobs else {}
        metrics["fail_ratio"] = failed / attempted
    else:
        metrics = {
            "job_s": median([j["job_s"] for j in plain]),
            "setup_s": median(setup),
            "peak_rss_mb": median([j["peak_rss_mb"] for j in plain]),
            "pass_ratio": 1.0 - failed / attempted,
        }
    # a run whose jobs failed may lack metrics, but never reports undeclared ones
    if metrics.keys() - declared.keys() or (correct and metrics.keys() != declared.keys()):
        raise JobError(f"metrics disagree with {SPEC.name}: {sorted(metrics.keys() ^ declared.keys())}")

    detail = {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "environment": first["environment"],
        "inputs": inputs,
        "setup_samples": setup,
        "job_samples": len(plain),
        "deterministic": same_bytes,
        "failures": failures,
        "jobs": [{k: v for k, v in j.items() if k != "spans"} for j in jobs],
        "metrics": metrics,
        "run_s": time.monotonic() - begin,
    }
    if trace:
        spans = [s for j in jobs for s in j.get("spans", [])]
        (WORK / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(spans, indent=1) + "\n")
    (WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = detail["environment"]
    print(
        f"# {args.workload} seed={args.seed} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) "
        f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
        f"cpu_count {env['cpu_count']} nproc {env['nproc']}"
    )
    print(
        f"# {detail['job_samples']} untraced job(s), {len(detail['setup_samples'])} set-up sample(s), "
        f"deterministic={detail['deterministic']}, run {detail['run_s']:.1f} s"
    )
    for failure in detail["failures"]:
        print(f"# job failed: {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
