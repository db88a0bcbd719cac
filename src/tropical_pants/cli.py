"""Command-line entry point.

Exit codes: 0 success, 1 verification or computation failure, 2 usage error.
Every JSON artifact carries "schema": 1; exact integers are serialized as
decimal strings.  Identical configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import amoeba as am
from . import invariants as inv_mod
from . import pants as pants_mod
from . import patchwork as pw
from . import serialization as ser
from . import tropical as trop
from .errors import DomainError, TropicalPantsError
from .subdivision import subdivide, subdivision_to_dict, verify_tables


def _parse_float_token(tok: str) -> float:
    """Plain float, or eN meaning exp(N): 'e16' -> e^16."""
    tok = tok.strip()
    if tok.startswith("e") and tok[1:].replace(".", "", 1).lstrip("-").isdigit():
        return math.exp(float(tok[1:]))
    return float(tok)


def _parse_t_list(text: str) -> list[float]:
    return [_parse_float_token(tok) for tok in text.split(",") if tok.strip()]


def _parse_point(text: str) -> tuple[int, int, int]:
    parts = [int(tok) for tok in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"need 3 integers, got {text!r}")
    return tuple(parts)


def _parse_grid(text: str) -> am.AmoebaGrid:
    """Format: x1min:x1max:nx,x2min:x2max:ny,ntheta1,ntheta2."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"grid needs 4 comma groups, got {text!r}")
    wins = []
    for p in parts[:2]:
        lo, hi, n = p.split(":")
        wins.append((float(lo), float(hi), int(n)))
    return am.AmoebaGrid(wins[0], wins[1], int(parts[2]), int(parts[3]))


def _parse_bbox(text: str):
    vals = [float(tok) for tok in text.split(",")]
    if len(vals) != 6:
        raise ValueError(f"bbox needs 6 floats, got {text!r}")
    return ((vals[0], vals[2], vals[4]), (vals[1], vals[3], vals[5]))


def _parse_window(text: str):
    lo_text, hi_text = text.split(":")
    lo = [tok for tok in lo_text.split(",")]
    hi = [tok for tok in hi_text.split(",")]
    if len(lo) != 3 or len(hi) != 3:
        raise ValueError(f"window needs lo1,lo2,lo3:hi1,hi2,hi3, got {text!r}")
    return lo, hi


def _apply_config(args: argparse.Namespace, path: str) -> None:
    """Values from the config file override command-line flags."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
    except json.JSONDecodeError:
        data = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}")
            key, _, value = line.partition("=")
            data[key.strip()] = value.strip()
    for key, value in data.items():
        dest = key.replace("-", "_")
        # command, config and fn are the parser's own entries, not settings
        if dest in ("command", "config", "fn") or not hasattr(args, dest):
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(args, dest)
        if isinstance(current, int) and not isinstance(current, bool):
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
        setattr(args, dest, value)


def _echo_config(args: argparse.Namespace, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "schema": 1,
        "command": args.command,
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "fn") and v is not None
        },
    }
    ser.write_json(os.path.join(out_dir, "run_config.json"), payload)


def _default_bbox(comp) -> tuple[tuple[float, ...], tuple[float, ...]]:
    pts = np.array([[float(c) for c in v.point] for v in comp.vertices])
    margin = 2.0 + comp.d
    return (
        tuple(pts.min(axis=0) - margin),
        tuple(pts.max(axis=0) + margin),
    )


def _window_from_complex(sub, comp, m, m_prime):
    """Certified probe window from a shrinking box around the dual 2-cell."""
    key = (min(tuple(m), tuple(m_prime)), max(tuple(m), tuple(m_prime)))
    target = next((c2 for c2 in comp.two_cells if c2.edge == key), None)
    if target is None:
        raise DomainError(f"{m}-{m_prime} is not an edge of the subdivision")
    bbox = _default_bbox(comp)
    polys = dict((cid, poly) for cid, poly in trop.truncated_two_cells(comp, bbox))
    poly = polys.get(target.id)
    if not poly:
        raise DomainError("dual 2-cell does not meet the default box")
    center = np.mean(np.array(poly), axis=0)
    for h in (0.5, 0.25, 0.1, 0.05, 0.02):
        lo = [f"{c - h:.6f}" for c in center]
        hi = [f"{c + h:.6f}" for c in center]
        try:
            return am.fiber_probe(sub, m, m_prime, lo, hi)
        except DomainError:
            continue
    raise DomainError("no certified window found around the dual 2-cell center")


def _cmd_subdivide(args) -> int:
    sub = subdivide(args.d)
    if args.json:
        ser.write_json(args.json, subdivision_to_dict(sub))
    print(f"degree {args.d}: {len(sub.cells)} unimodular cells, "
          f"{len(sub.faces)} 2-faces, {len(sub.edges)} edges")
    return 0


def _cmd_verify_tables(args) -> int:
    report = verify_tables()
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_tropical(args) -> int:
    sub = subdivide(args.d)
    comp = trop.build_tropical(sub)
    bbox = _parse_bbox(args.bbox) if args.bbox else _default_bbox(comp)
    fmt = "obj" if args.mesh.endswith(".obj") else "off"
    trop.export_mesh(comp, bbox, args.mesh, fmt=fmt)
    counts = comp.counts()
    print(f"degree {args.d}: {counts[0]} vertices, {counts[1]} edges, "
          f"{counts[2]} 2-cells; mesh written to {args.mesh}")
    return 0


def _cmd_pants(args) -> int:
    sub = subdivide(args.d)
    report = pants_mod.pants_report(sub)
    if args.dot:
        cls = pants_mod.classify_cells(sub)
        graph = pants_mod.build_pants_graph(cls, sub)
        with open(args.dot, "w") as fh:
            fh.write(pants_mod.graph_to_dot(graph))
    sys.stdout.write(ser.json_dumps(report))
    return 0


def _cmd_identities(args) -> int:
    sub = subdivide(args.d)
    cls = pants_mod.classify_cells(sub)
    summaries = []
    certificates = []
    all_ok = True
    for cid in cls.interior_ids:
        cert = pw.identity_certificate(sub, cid)
        residuals = pw.residual_exponents(sub, cid)
        ok = all(e["verified"] for e in cert["entries"]) and all(
            r.exponent < 0 for r in residuals
        )
        all_ok = all_ok and ok
        certificates.append(cert)
        summaries.append(
            {
                "cell": cert["cell"],
                "monomials_verified": str(sum(e["verified"] for e in cert["entries"])),
                "monomials_total": str(len(cert["entries"])),
                "residuals_negative": str(sum(r.exponent < 0 for r in residuals)),
                "residuals_total": str(len(residuals)),
            }
        )
    if args.json:
        ser.write_json(args.json, {"schema": 1, "certificates": certificates})
    sys.stdout.write(
        ser.json_dumps({"schema": 1, "d": str(args.d), "cells": summaries, "ok": all_ok})
    )
    return 0 if all_ok else 1


def _cmd_amoeba(args) -> int:
    grid = _parse_grid(args.grid)
    ts = _parse_t_list(args.t_list)
    _echo_config(args, args.out)
    for t in ts:
        cloud = am.sample_amoeba(args.d, t, grid)
        name = f"amoeba_d{args.d}_logt{math.log(t):.6g}.csv"
        ser.write_csv(os.path.join(args.out, name), am.CLOUD_HEADER, am.cloud_rows(cloud))
        print(f"t=e^{math.log(t):.6g}: {len(cloud.samples)} samples "
              f"({cloud.failed_points} failed points) -> {name}")
    return 0


def _cmd_converge(args) -> int:
    grid = _parse_grid(args.grid)
    ts = _parse_t_list(args.t_list)
    _echo_config(args, args.out)
    rows = am.convergence_study(args.d, ts, grid)
    path = os.path.join(args.out, f"convergence_d{args.d}.csv")
    ser.write_csv(
        path,
        am.CONVERGENCE_HEADER,
        [(r.t, r.n_samples, r.failed_points, r.max_distance, r.mean_distance) for r in rows],
    )
    for r in rows:
        print(f"t=e^{math.log(r.t):.6g}: max={r.max_distance:.6g} mean={r.mean_distance:.6g}")
    print(f"table -> {path}")
    return 0


def _cmd_period(args) -> int:
    sub = subdivide(args.d)
    m, mp = _parse_point(args.m), _parse_point(args.mprime)
    if args.window:
        lo, hi = _parse_window(args.window)
        probe = am.fiber_probe(sub, m, mp, lo, hi)
    else:
        comp = trop.build_tropical(sub)
        probe = _window_from_complex(sub, comp, m, mp)
    t = _parse_float_token(args.t)
    est = am.period_integral(probe, t, n=args.res, mode=args.mode)
    sys.stdout.write(ser.json_dumps(am.period_report(est, probe)))
    return 0


def _cmd_invariants(args) -> int:
    text = args.d_range
    if ".." in text:
        a, b = text.split("..")
        ds = list(range(int(a), int(b) + 1))
    else:
        ds = [int(tok) for tok in text.split(",")]
    entries = [inv_mod.invariants_to_dict(inv_mod.compute_invariants(d)) for d in ds]
    checks = inv_mod.consistency_checks(ds)
    ok = all(c.ok for c in checks)
    sys.stdout.write(
        ser.json_dumps(
            {
                "schema": 1,
                "entries": entries,
                "consistency": [
                    {
                        "d": str(c.d),
                        "euler_identity": c.noether,
                        "pants_signature": c.pants_signature,
                        "volume": c.volume,
                    }
                    for c in checks
                ],
                "ok": ok,
            }
        )
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tropical-pants",
        description="Pair-of-pants decomposition data for degree-d surfaces: "
        "subdivisions, dual complexes, deformation sampling, invariants.",
    )
    ap.add_argument("--config", help="JSON or key=value file; entries override flags")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("subdivide", _cmd_subdivide, help="build and certify the lattice subdivision")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", help="write the subdivision as JSON")

    add("verify-tables", _cmd_verify_tables, help="check the built-in unit-cube reference tables")

    p = add("tropical", _cmd_tropical, help="export the dual complex as a mesh")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mesh", required=True, help="output path (.off or .obj)")
    p.add_argument("--bbox", help="xmin,xmax,ymin,ymax,zmin,zmax")

    p = add("pants", _cmd_pants, help="classify cells and report the boundary graph")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dot", help="write the boundary graph in DOT format")

    p = add("identities", _cmd_identities, help="run the exact exponent identity sweeps")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", help="write every inner cell's certificate as JSON")

    p = add("amoeba", _cmd_amoeba, help="sample log images of the deformed surface")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t-list", required=True, help="comma floats; eN means exp(N)")
    p.add_argument("--grid", required=True, help="x1min:x1max:nx,x2min:x2max:ny,nt1,nt2")
    p.add_argument("--out", default=".", help="output directory")

    p = add("converge", _cmd_converge, help="distance of sample clouds to the limit complex")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t-list", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", default=".")

    p = add("period", _cmd_period, help="torus period estimate over a dual 2-cell window")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", required=True, help="lattice point a,b,c")
    p.add_argument("--mprime", required=True, help="lattice point a,b,c")
    p.add_argument("--t", required=True, help="float or eN")
    p.add_argument("--res", type=int, default=64, help="angular resolution per axis")
    p.add_argument("--mode", choices=("numeric", "consistency"), default="numeric")
    p.add_argument("--window", help="lo1,lo2,lo3:hi1,hi2,hi3 (auto if omitted)")

    p = add("invariants", _cmd_invariants, help="closed-form invariants over a degree range")
    p.add_argument("--d-range", required=True, help="A..B or comma list")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            _apply_config(args, args.config)
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TropicalPantsError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
