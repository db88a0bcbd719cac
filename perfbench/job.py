"""One benchmark job, run in a fresh interpreter by ``run.py``.

    python3 perfbench/job.py '<request json>'

The request is a JSON object with a ``mode``:

* ``setup``  import the package and report when the import finished;
* ``gen``    derive the ``periods`` probes and their windows (untimed input
  generation, done before any job starts);
* ``job``    run one job of a workload on the generated inputs, check its
  outputs, and report timings, counts, artifact hashes and (when
  ``trace`` is set) one span per call into the library.

The record is printed as one JSON line on standard output.  Every job
builds its subdivision and complex itself: the library keeps a module cache
keyed by ``id()`` of the complex, so reusing objects across jobs in one
process would skip work or serve stale data.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

# importing cli loads every module, as a CLI start does
from tropical_pants import amoeba, cli, invariants, pants, patchwork, serialization, subdivision, tropical

IMPORTED_AT = time.monotonic()

CENTER = (1, 1, 1)


class Trace:
    """Spans around calls into the library, kept in memory until the job ends.

    With tracing off, ``call`` only forwards, so an untraced job pays for one
    attribute test per library call.
    """

    def __init__(self, enabled: bool, job_id: str):
        self.enabled = enabled
        self.job_id = job_id
        self.spans: list[dict] = []

    def call(self, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append(
            {
                "name": f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}",
                "start": start,
                "end": end,
                "parent": "job",
                "job": self.job_id,
            }
        )
        return out


def generate_periods(req: dict) -> dict:
    """Probes for ``periods``: the given pairs, or two seed-picked edges of (1,1,1).

    Windows come from the CLI's own shrinking-box search, as exact fractions.
    """
    sub = subdivision.subdivide(req["d"])
    comp = tropical.build_tropical(sub)
    pairs = [tuple(map(tuple, p)) for p in req["pairs"] or []]
    if not pairs:
        others = sorted(
            b if a == CENTER else a for a, b in sub.edges if CENTER in (a, b)
        )
        candidates = [mp for mp in others if mp[2] != CENTER[2]]
        pairs = [(CENTER, mp) for mp in random.Random(f"periods:{req['seed']}").sample(candidates, 2)]
    probes = [cli._window_from_complex(sub, comp, m, mp) for m, mp in pairs]
    return {
        "probes": [
            {"m": p.m, "m_prime": p.m_prime, "lo": [str(v) for v in p.lo], "hi": [str(v) for v in p.hi]}
            for p in probes
        ]
    }


def job_exact(inp: dict, tr: Trace, out: Path) -> dict:
    d, d_id = inp["d"], inp["d_identities"]
    sub = tr.call(subdivision.subdivide, d)
    comp = tr.call(tropical.build_tropical, sub)
    report = tr.call(pants.pants_report, sub)
    tr.call(serialization.write_json, out / "subdivision.json", tr.call(subdivision.subdivision_to_dict, sub))
    tr.call(serialization.write_json, out / "tropical.json", tr.call(tropical.tropical_to_dict, comp))
    tr.call(tropical.export_mesh, comp, cli._default_bbox(comp), out / "tropical.off")

    sub_id = tr.call(subdivision.subdivide, d_id)
    cls = tr.call(pants.classify_cells, sub_id)
    certs, residuals = [], []
    for cid in cls.interior_ids:
        certs.append(tr.call(patchwork.identity_certificate, sub_id, cid))
        residuals.extend(tr.call(patchwork.residual_exponents, sub_id, cid))
    tr.call(serialization.write_json, out / "identities.json", {"schema": 1, "certificates": certs})
    consistency = tr.call(invariants.consistency_checks, range(inp["inv_lo"], inp["inv_hi"] + 1))

    def check():
        entries = [e for c in certs for e in c["entries"]]
        unverified = sum(not e["verified"] for e in entries)
        non_negative = sum(r.exponent >= 0 for r in residuals)
        cells = len(sub.cells) + len(sub_id.cells)
        return {
            "units": cells + len(entries) + len(residuals),
            "failed_units": unverified + non_negative,
            "checks": {
                "cells_d3": len(sub.cells) == d**3 and len(sub_id.cells) == d_id**3,
                "pants_cells": int(report["t_o"]["count"]) == d * (d - 4) ** 2
                and cls.pants_count == d_id * (d_id - 4) ** 2,
                "k3_blocks_64": bool(report["k3_blocks"])
                and all(b["size"] == "64" for b in report["k3_blocks"])
                and report["k3_cover_identity"] == "pass",
                "identities_verified": unverified == 0 and len(certs) == (d_id - 4) ** 3,
                "residuals_negative": non_negative == 0 and bool(residuals),
                "invariants_consistent": all(c.ok for c in consistency),
            },
            "counts": {"subdivision.cells": cells, "patchwork.identities": len(entries)},
        }

    return {"check": check, "certify_d": d}


def job_amoeba(inp: dict, tr: Trace, out: Path) -> dict:
    d = inp["d"]
    sub = tr.call(subdivision.subdivide, d)
    comp = tr.call(tropical.build_tropical, sub)
    grid = amoeba.AmoebaGrid(tuple(inp["x1"]), tuple(inp["x2"]), *inp["n_theta"])
    clouds, rows = [], []
    for k in inp["t_exps"]:
        t = math.exp(k)
        cloud = tr.call(amoeba.sample_amoeba, d, t, grid)
        name = f"amoeba_d{d}_logt{math.log(t):.6g}.csv"
        tr.call(serialization.write_csv, out / name, amoeba.CLOUD_HEADER, amoeba.cloud_rows(cloud))
        dist = tr.call(tropical.distance_many, cloud.points_array(), comp)
        clouds.append(cloud)
        rows.append((t, len(cloud.samples), cloud.failed_points, float(dist.max()), float(dist.mean())))
    tr.call(serialization.write_csv, out / f"convergence_d{d}.csv", amoeba.CONVERGENCE_HEADER, rows)

    def check():
        maxima = [r[3] for r in rows]
        grid_points = sum(c.grid_points for c in clouds)
        failed = sum(c.failed_points for c in clouds)
        return {
            "units": grid_points,
            "failed_units": failed,
            "checks": {
                "cells_d3": len(sub.cells) == d**3,
                "samples_present": all(c.samples for c in clouds),
                "max_distance_decreasing": all(a > b for a, b in zip(maxima, maxima[1:])),
            },
            "counts": {
                "subdivision.cells": len(sub.cells),
                "amoeba.grid_points": grid_points,
                "amoeba.samples": sum(len(c.samples) for c in clouds),
                "amoeba.failed_points": failed,
                "amoeba.rejected_roots": sum(c.rejected_roots for c in clouds),
                "amoeba.full_root_points": sum(c.full_root_points for c in clouds),
                "amoeba.max_distance": maxima,
            },
        }

    return {"check": check, "certify_d": d}


def job_periods(inp: dict, tr: Trace, out: Path) -> dict:
    d = inp["d"]
    sub = tr.call(subdivision.subdivide, d)
    probes = [
        tr.call(amoeba.fiber_probe, sub, tuple(p["m"]), tuple(p["m_prime"]), p["lo"], p["hi"])
        for p in inp["probes"]
    ]
    n = inp["n"]
    estimates = [tr.call(amoeba.period_integral, p, math.exp(inp["t_period_exp"]), n=n) for p in probes]
    fibers = [
        tr.call(amoeba.limit_fiber_check, probes[0], math.exp(k), n_x=inp["n_x"], n_theta=inp["n_theta"])
        for k in inp["fiber_t_exps"]
    ]

    def check():
        errors = [e.relative_error for e in estimates]
        angles = [f.angle_residual for f in fibers]
        ratios = [f.ratio_residual for f in fibers]
        # PeriodEstimate.n echoes the input, and limit_fiber_check does not
        # report its grid, so on this workload the units are the inputs' counts
        nodes = sum(e.n * e.n for e in estimates)
        fiber_points = len(fibers) * inp["n_x"] ** 2 * inp["n_theta"] ** 2
        return {
            "units": nodes + fiber_points,
            "failed_units": 0,
            "checks": {
                "cells_d3": len(sub.cells) == d**3,
                "period_relative_error": all(err < inp["max_relative_error"] for err in errors),
                "angle_residual_decreasing": all(a > b for a, b in zip(angles, angles[1:])),
                "ratio_residual_decreasing": all(a > b for a, b in zip(ratios, ratios[1:])),
            },
            "counts": {
                "subdivision.cells": len(sub.cells),
                "amoeba.period_integral.nodes": nodes,
                "amoeba.limit_fiber_check.samples": sum(f.n_samples for f in fibers),
                "amoeba.period_integral.relative_error": errors,
                "amoeba.limit_fiber_check.angle_residual": angles,
                "amoeba.limit_fiber_check.ratio_residual": ratios,
            },
        }

    return {"check": check, "certify_d": d}


JOBS = {"exact": job_exact, "amoeba": job_amoeba, "periods": job_periods}


def run_job(req: dict) -> dict:
    out = Path(req["out_dir"])
    shutil.rmtree(out, ignore_errors=True)  # hash only what this job wrote
    out.mkdir(parents=True)
    tr = Trace(req["trace"], req["job_id"])
    start = time.perf_counter()
    result = JOBS[req["workload"]](req["inputs"], tr, out)
    end = time.perf_counter()
    verdict = result["check"]()

    record = {
        "imported_at": IMPORTED_AT,
        "job_s": end - start,
        "units": verdict["units"],
        "failed_units": verdict["failed_units"],
        "checks": verdict["checks"],
        "counts": verdict["counts"],
        "artifacts": {
            p.name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(), "bytes": p.stat().st_size}
            for p in sorted(out.iterdir())
        },
    }
    if tr.enabled:
        record["spans"] = [
            {"name": "job", "start": start, "end": end, "parent": None, "job": tr.job_id},
            *tr.spans,
        ]
        # certification cost: the certified build minus an uncertified one
        d = result["certify_d"]
        certified = next(s for s in tr.spans if s["name"] == "subdivision.subdivide")
        t0 = time.perf_counter()
        subdivision.subdivide(d, certify=False)
        record["certify_s"] = (certified["end"] - certified["start"]) - (time.perf_counter() - t0)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def environment() -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "package": str(Path(cli.__file__).resolve().parent),
    }


def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    if req["mode"] == "setup":
        record = {"imported_at": IMPORTED_AT, "environment": environment()}
    elif req["mode"] == "gen":
        record = generate_periods(req)
    else:
        record = run_job(req)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
