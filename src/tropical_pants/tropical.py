"""Piecewise-linear transform of the lift and the dual tropical complex.

The transform is  L(x) = max_m { <m,x> - v(m) }  over the lattice points of
D_d.  Its non-smooth locus is a polyhedral complex whose k-cells correspond
one-to-one to the (3-k)-faces of the subdivision, with containment reversed.
A dual cell is bounded exactly when its primal face does not lie in the
boundary of D_d.

Cells are stored exactly (vertex coordinates are the integer normal vectors
of the supporting forms); floats only enter in distance queries and export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import lattice
from .errors import CertificationError, DomainError
from .lattice import Point3
from .subdivision import Edge, RegularSubdivision, Triangle


def legendre_terms(d: int, lift=None) -> list[tuple[Point3, int]]:
    from .subdivision import resolve_lift

    fn, _ = resolve_lift(lift)
    return [(m, fn(m)) for m in lattice.delta_points(d)]


def legendre_eval(x: Sequence, d: int, lift=None):
    """Value and argmax set of max_m(<m,x> - v(m)).

    Exact when every coordinate of x is an int or Fraction; for float input
    the argmax tie tolerance is 1e-9 * (1 + |value|).
    """
    exact = all(isinstance(c, (int, Fraction)) for c in x)
    terms = legendre_terms(d, lift)
    if exact:
        best = None
        arg: list[Point3] = []
        for m, v in terms:
            val = m[0] * x[0] + m[1] * x[1] + m[2] * x[2] - v
            if best is None or val > best:
                best, arg = val, [m]
            elif val == best:
                arg.append(m)
        return best, sorted(arg)
    xf = [float(c) for c in x]
    vals = [(m[0] * xf[0] + m[1] * xf[1] + m[2] * xf[2] - v, m) for m, v in terms]
    best = max(v for v, _ in vals)
    tol = 1e-9 * (1.0 + abs(best))
    return best, sorted(m for v, m in vals if v >= best - tol)


def _primitive(v: Sequence[int]) -> Point3:
    g = math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g == 0:
        raise CertificationError("zero direction vector")
    return (v[0] // g, v[1] // g, v[2] // g)


def _cross(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


@dataclass(frozen=True)
class TropVertex:
    id: int
    cell_id: int  # dual 3-cell of the subdivision
    point: tuple  # exact coordinates (ints for the canonical lift)


@dataclass(frozen=True)
class TropEdge:
    id: int
    face: Triangle  # dual 2-face
    bounded: bool
    vertex_ids: tuple[int, ...]  # 2 ids if bounded, 1 if a ray
    direction: Point3 | None  # primitive ray direction when unbounded


@dataclass(frozen=True)
class Trop2Cell:
    id: int
    edge: Edge  # dual 1-face (pair of lattice points)
    bounded: bool
    chain: tuple[int, ...]  # vertex ids in boundary order (closed if bounded)
    ray_faces: tuple[Triangle, ...]  # the boundary 2-faces giving end rays
    face_keys: tuple[Triangle, ...]  # all primal 2-faces containing the edge


@dataclass
class TropicalComplex:
    d: int
    sub: RegularSubdivision = field(repr=False)
    vertices: list[TropVertex]
    edges: list[TropEdge]
    two_cells: list[Trop2Cell]
    edge_by_face: dict[Triangle, int] = field(repr=False)

    def counts(self) -> dict[int, int]:
        return {0: len(self.vertices), 1: len(self.edges), 2: len(self.two_cells)}

    def vertex_point_float(self, vid: int) -> np.ndarray:
        return np.array([float(c) for c in self.vertices[vid].point])


def _ray_direction(sub: RegularSubdivision, tri: Triangle, cell_id: int) -> Point3:
    """Primitive direction of the dual ray of a boundary 2-face."""
    cell = sub.cells[cell_id]
    (a, b, c) = tri
    m4 = next(v for v in cell.vertices if v not in tri)
    u = _cross(
        (b[0] - a[0], b[1] - a[1], b[2] - a[2]),
        (c[0] - a[0], c[1] - a[1], c[2] - a[2]),
    )
    u = _primitive(u)
    s = (a[0] - m4[0]) * u[0] + (a[1] - m4[1]) * u[1] + (a[2] - m4[2]) * u[2]
    if s == 0:
        raise CertificationError(f"degenerate ray for face {tri}")
    if s < 0:
        u = (-u[0], -u[1], -u[2])
    return u


def build_tropical(sub: RegularSubdivision) -> TropicalComplex:
    """Dual complex of a certified subdivision."""
    vertices = [
        TropVertex(c.id, c.id, tuple(c.support.n)) for c in sub.cells
    ]

    edge_by_face: dict[Triangle, int] = {}
    edges: list[TropEdge] = []
    for tri in sorted(sub.faces):
        ids = sub.faces[tri]
        eid = len(edges)
        edge_by_face[tri] = eid
        if len(ids) == 2:
            edges.append(TropEdge(eid, tri, True, tuple(sorted(ids)), None))
        else:
            direction = _ray_direction(sub, tri, ids[0])
            edges.append(TropEdge(eid, tri, False, (ids[0],), direction))

    # faces of the subdivision containing a given primal edge
    edge_faces: dict[Edge, list[Triangle]] = {}
    for tri in sorted(sub.faces):
        for i in range(3):
            for j in range(i + 1, 3):
                edge_faces.setdefault((tri[i], tri[j]), []).append(tri)

    two_cells: list[Trop2Cell] = []
    for e in sorted(sub.edges):
        cells = list(sub.edges[e])
        tris = edge_faces[e]
        interior_tris = [t for t in tris if len(sub.faces[t]) == 2]
        boundary_tris = [t for t in tris if len(sub.faces[t]) == 1]
        bounded = not sub.boundary_edge(e)
        if bounded and boundary_tris:
            raise CertificationError(f"interior edge {e} has boundary faces")
        if not bounded and len(boundary_tris) != 2:
            raise CertificationError(
                f"boundary edge {e} has {len(boundary_tris)} boundary faces, expected 2"
            )
        # adjacency of incident cells across the faces around the edge
        nbrs: dict[int, list[int]] = {c: [] for c in cells}
        for t in interior_tris:
            c1, c2 = sub.faces[t]
            nbrs[c1].append(c2)
            nbrs[c2].append(c1)
        if bounded:
            start = min(cells)
            chain = [start]
            prev = None
            cur = start
            # deterministic orientation: walk to the smaller neighbor first
            while True:
                nxt = [n for n in sorted(nbrs[cur]) if n != prev]
                if not nxt:
                    raise CertificationError(f"broken link cycle at edge {e}")
                step = nxt[0]
                if step == start and len(chain) == len(cells):
                    break
                chain.append(step)
                prev, cur = cur, step
                if len(chain) > len(cells):
                    raise CertificationError(f"link of edge {e} is not a simple cycle")
            rays: tuple[Triangle, ...] = ()
        else:
            end_cells = [sub.faces[t][0] for t in boundary_tris]
            start = min(end_cells)
            chain = [start]
            prev = None
            cur = start
            while len(chain) < len(cells):
                nxt = [n for n in nbrs[cur] if n != prev]
                if len(nxt) != 1:
                    raise CertificationError(f"link of edge {e} is not a simple path")
                chain.append(nxt[0])
                prev, cur = cur, nxt[0]
            # rays ordered to match the chain ends
            first_tris = [t for t in boundary_tris if sub.faces[t][0] == chain[0]]
            last_tris = [t for t in boundary_tris if sub.faces[t][0] == chain[-1]]
            if len(cells) == 1:
                rays = (boundary_tris[0], boundary_tris[1])
            else:
                if len(first_tris) != 1 or len(last_tris) != 1:
                    raise CertificationError(f"ray attachment ambiguous at edge {e}")
                rays = (first_tris[0], last_tris[0])
        two_cells.append(
            Trop2Cell(len(two_cells), e, bounded, tuple(chain), rays, tuple(sorted(tris)))
        )

    comp = TropicalComplex(sub.d, sub, vertices, edges, two_cells, edge_by_face)
    _validate(comp)
    return comp


def _validate(comp: TropicalComplex) -> None:
    sub = comp.sub
    if len(comp.vertices) != len(sub.cells):
        raise CertificationError("vertex/cell count mismatch")
    if len(comp.edges) != len(sub.faces):
        raise CertificationError("edge/face count mismatch")
    if len(comp.two_cells) != len(sub.edges):
        raise CertificationError("2-cell/edge count mismatch")
    for c2 in comp.two_cells:
        m, mp = c2.edge
        n = tuple(m[i] - mp[i] for i in range(3))
        c = sub.lift_values[m] - sub.lift_values[mp]
        for vid in c2.chain:
            p = comp.vertices[vid].point
            if n[0] * p[0] + n[1] * p[1] + n[2] * p[2] != c:
                raise CertificationError(f"2-cell {c2.edge} chain leaves its plane")


def incident(lower, upper) -> bool:
    """Containment of a lower-dimensional dual cell in the closure of a higher one.

    Accepts (TropVertex, TropEdge), (TropVertex, Trop2Cell) or (TropEdge, Trop2Cell).
    Mirrors reversed containment of the primal faces.
    """
    if isinstance(lower, TropVertex) and isinstance(upper, TropEdge):
        return lower.cell_id in upper.vertex_ids
    if isinstance(lower, TropVertex) and isinstance(upper, Trop2Cell):
        return lower.cell_id in upper.chain
    if isinstance(lower, TropEdge) and isinstance(upper, Trop2Cell):
        return lower.face in upper.face_keys
    raise DomainError("incidence expects cells of increasing dimension")


# ---------------------------------------------------------------------------
# Geometry queries (floats)


# element budget per temporary of the distance pass: chunk rows shrink as
# |D_d| grows, so memory stays bounded at every degree
_DISTANCE_CHUNK_ELEMENTS = 1 << 18


def distance_many(points: np.ndarray, comp: TropicalComplex) -> np.ndarray:
    """Euclidean distance from each point to the complex, in closed form.

    The complex is the corner locus of L(x) = max_m L_m(x) with
    L_m(x) = <m,x> - v(m).  A point x lies in the closed convex region
    R(m*) = {y : L_{m*}(y) >= L_m(y) for all m} of its argmax term m*, and
    every boundary point of R(m*) ties two terms, so it is on the complex.
    The nearest point of the complex lies on that boundary: a segment from x
    cannot leave R(m*) without crossing it.  The distance from a point of an
    intersection of half-spaces to its boundary is the smallest distance to
    one of their bounding planes, and a redundant half-space's plane lies
    outside the region, so it never undercuts that minimum.  Hence

        dist(x) = min over m != m* of (L_{m*}(x) - L_m(x)) / |m* - m|,

    which is 0 when the argmax is tied.  Points are processed in chunks of
    one (rows, |D_d|) score matrix each; no |D_d| x |D_d| table is built.
    """
    pts = lattice.delta_points(comp.d)
    M = np.array(pts, dtype=float)
    V = np.array([comp.sub.lift_values[m] for m in pts], dtype=float)
    sq = (M * M).sum(axis=1)  # integers, exact in float64
    P = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(P.shape[0])
    step = max(1, _DISTANCE_CHUNK_ELEMENTS // len(pts))
    for i in range(0, P.shape[0], step):
        scores = P[i : i + step] @ M.T - V
        rows = np.arange(scores.shape[0])
        top = scores.argmax(axis=1)
        gap = scores[rows, top][:, None] - scores
        # |m* - m|^2 in Gram form; every term is an exact integer
        norm = np.sqrt(sq[top][:, None] + sq[None, :] - 2.0 * (M[top] @ M.T))
        # mask the gap, not the norm: 0 / inf would read as a zero distance
        gap[rows, top] = np.inf
        norm[rows, top] = 1.0
        out[i : i + step] = (gap / norm).min(axis=1)
    return out


def distance_to_tropical(x: Sequence[float], comp: TropicalComplex, bbox=None) -> float:
    """Distance from a point to the complex; bbox (when given) must enclose x."""
    if not comp.two_cells and not comp.edges:
        raise DomainError("empty complex")
    if bbox is not None:
        (lo, hi) = bbox
        if not all(lo[i] <= x[i] <= hi[i] for i in range(3)):
            raise DomainError(f"point {x} outside bbox {bbox}")
    return float(distance_many(np.asarray([x], dtype=float), comp)[0])


# ---------------------------------------------------------------------------
# Mesh export


def _clip_polygon(poly: list[np.ndarray], bbox) -> list[np.ndarray]:
    """Sutherland-Hodgman clip of a convex polygon against an axis box."""
    lo, hi = bbox
    out = list(poly)
    for axis in range(3):
        for sign, bound in ((1.0, lo[axis]), (-1.0, hi[axis])):
            if not out:
                return []
            # keep points with sign*(p[axis]-bound) >= 0
            nxt: list[np.ndarray] = []
            n = len(out)
            for i in range(n):
                a, b = out[i], out[(i + 1) % n]
                fa = sign * (a[axis] - bound)
                fb = sign * (b[axis] - bound)
                if fa >= 0:
                    nxt.append(a)
                if (fa < 0) != (fb < 0):
                    t = fa / (fa - fb)
                    nxt.append(a + t * (b - a))
            out = nxt
    return out


def _finite_polygon(comp: TropicalComplex, c2: Trop2Cell, bbox) -> list[np.ndarray]:
    lo, hi = np.asarray(bbox[0], float), np.asarray(bbox[1], float)
    center = (lo + hi) / 2.0
    diag = float(np.linalg.norm(hi - lo))
    pts = [comp.vertex_point_float(v) for v in c2.chain]
    if c2.bounded:
        return pts
    reach = max(float(np.linalg.norm(p - center)) for p in pts)
    R = 4.0 * (diag + reach + 1.0)
    d_start = np.array(
        comp.edges[comp.edge_by_face[c2.ray_faces[0]]].direction, dtype=float
    )
    d_end = np.array(
        comp.edges[comp.edge_by_face[c2.ray_faces[1]]].direction, dtype=float
    )
    d_start /= np.linalg.norm(d_start)
    d_end /= np.linalg.norm(d_end)
    for _ in range(6):
        far_a = pts[0] + R * d_start
        far_b = pts[-1] + R * d_end
        if _segment_outside_box(far_a, far_b, lo, hi):
            break
        R *= 8.0
    return [far_a] + pts + [far_b]


def _segment_outside_box(a: np.ndarray, b: np.ndarray, lo, hi) -> bool:
    # slab test; True when the closing segment cannot meet the box
    t0, t1 = 0.0, 1.0
    d = b - a
    for i in range(3):
        if abs(d[i]) < 1e-300:
            if a[i] < lo[i] or a[i] > hi[i]:
                return True
            continue
        ta = (lo[i] - a[i]) / d[i]
        tb = (hi[i] - a[i]) / d[i]
        ta, tb = min(ta, tb), max(ta, tb)
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return True
    return False


def truncated_two_cells(comp: TropicalComplex, bbox) -> list[tuple[int, list[np.ndarray]]]:
    """2-cells clipped to the box; (cell id, polygon loop) pairs, empty clips dropped."""
    lo, hi = bbox
    if not all(lo[i] < hi[i] for i in range(3)):
        raise DomainError(f"empty bbox {bbox}")
    out = []
    for c2 in comp.two_cells:
        poly = _finite_polygon(comp, c2, bbox)
        clipped = _clip_polygon(poly, bbox)
        if len(clipped) >= 3:
            out.append((c2.id, clipped))
    return out


def export_mesh(comp: TropicalComplex, bbox, path, fmt: str = "off") -> None:
    """Write the box-truncated 2-skeleton as OFF or OBJ with deterministic ordering."""
    polys = truncated_two_cells(comp, bbox)
    verts: list[tuple[float, float, float]] = []
    index: dict[tuple[float, float, float], int] = {}
    faces: list[list[int]] = []
    for _, poly in polys:
        face = []
        for p in poly:
            key = (round(float(p[0]), 9), round(float(p[1]), 9), round(float(p[2]), 9))
            if key not in index:
                index[key] = len(verts)
                verts.append(key)
            if not face or face[-1] != index[key]:
                face.append(index[key])
        if len(face) > 1 and face[0] == face[-1]:
            face.pop()
        if len(face) >= 3:
            faces.append(face)
    lines: list[str] = []
    if fmt == "off":
        lines.append("OFF")
        lines.append(f"{len(verts)} {len(faces)} 0")
        for v in verts:
            lines.append(f"{v[0]:.9f} {v[1]:.9f} {v[2]:.9f}")
        for f in faces:
            lines.append(" ".join([str(len(f))] + [str(i) for i in f]))
    elif fmt == "obj":
        for v in verts:
            lines.append(f"v {v[0]:.9f} {v[1]:.9f} {v[2]:.9f}")
        for f in faces:
            lines.append("f " + " ".join(str(i + 1) for i in f))
    else:
        raise DomainError(f"unknown mesh format {fmt!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def tropical_to_dict(comp: TropicalComplex) -> dict:
    """JSON-ready dump of the dual complex with exact integer strings."""
    return {
        "schema": 1,
        "d": str(comp.d),
        "vertices": [
            {"id": str(v.id), "cell": str(v.cell_id), "point": [str(c) for c in v.point]}
            for v in comp.vertices
        ],
        "edges": [
            {
                "id": str(e.id),
                "bounded": e.bounded,
                "vertices": [str(i) for i in e.vertex_ids],
                "direction": None if e.direction is None else [str(c) for c in e.direction],
                "dual_face": [[str(c) for c in p] for p in e.face],
            }
            for e in comp.edges
        ],
        "two_cells": [
            {
                "id": str(c.id),
                "bounded": c.bounded,
                "chain": [str(i) for i in c.chain],
                "dual_edge": [[str(x) for x in p] for p in c.edge],
            }
            for c in comp.two_cells
        ],
    }
