"""Regular unimodular subdivision of the standard simplex from a lifting function.

The canonical lifting function is the positive definite quadratic

    v(m) = 4*(m1^2 + m2^2 + m3^2) + (2*m1 + 2*m2 + 3*m3)^2.

Its lower convex hull induces a translation-invariant decomposition of space
into tetrahedra, six per unit cube.  Restricted to D_d this gives a regular
unimodular subdivision with exactly d^3 cells.  Two independent construction
paths are provided: translating the six reference cube cells (fast, canonical
lift only) and a generic lifted lower-hull computation (any lift).

Either way the result is certified exactly, in O(d^3): d^3 unimodular cells,
a face census, and a strict folding test across every interior 2-face (see
subdivide).  Floating point in the hull path can never leak into the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from . import lattice
from .errors import CertificationError, DegeneracyError, DomainError
from .lattice import Point3, Simplex3, canonical_simplex, normalized_volume

Triangle = tuple[Point3, Point3, Point3]
Edge = tuple[Point3, Point3]
LiftLike = Callable[[Point3], int] | Mapping[Point3, int] | None


def lift_value(m: Sequence[int]) -> int:
    """Canonical lift, exact integer."""
    m1, m2, m3 = m
    return 4 * (m1 * m1 + m2 * m2 + m3 * m3) + (2 * m1 + 2 * m2 + 3 * m3) ** 2


def resolve_lift(lift: LiftLike) -> tuple[Callable[[Point3], int], str]:
    """Normalize a lift argument to (callable, kind)."""
    if lift is None:
        return lift_value, "canonical"
    if callable(lift):
        return lift, "custom"

    def from_table(m: Point3, table=lift) -> int:
        try:
            return table[tuple(m)]
        except KeyError:
            raise DomainError(f"custom lift table has no value at {tuple(m)}") from None

    return from_table, "custom"


@dataclass(frozen=True)
class AffineForm:
    """l(x) = <n, x> + b with exact rational (usually integer) coefficients."""

    n: tuple
    b: object

    def __call__(self, x: Sequence) -> object:
        return self.n[0] * x[0] + self.n[1] * x[1] + self.n[2] * x[2] + self.b


def supporting_form(vertices: Sequence[Sequence[int]], lift: LiftLike = None) -> AffineForm:
    """The unique affine form agreeing with the lift on 4 affinely independent points.

    n solves <n, v_i - v_0> = f(v_i) - f(v_0) on the three edge vectors, then
    b = f(v_0) - <n, v_0>.  Coefficients are ints for unimodular cells and
    whenever they are integral; otherwise Fractions.
    """
    fn, _ = resolve_lift(lift)
    vs = [tuple(int(c) for c in v) for v in vertices]
    if len(vs) != 4:
        raise DomainError("need exactly 4 vertices")
    v0, f0 = vs[0], fn(vs[0])
    edges = [[v[k] - v0[k] for k in range(3)] for v in vs[1:]]
    n = tuple(lattice.solve3(edges, [fn(v) - f0 for v in vs[1:]]))
    return AffineForm(n, f0 - (n[0] * v0[0] + n[1] * v0[1] + n[2] * v0[2]))


@dataclass
class SupportVerdict:
    ok: bool
    violations: list  # (point, form value, lift value)
    equality_points: list


def check_supporting(
    form: AffineForm,
    cell: Sequence[Sequence[int]],
    d: int,
    lift: LiftLike = None,
    points: Sequence[Point3] | None = None,
) -> SupportVerdict:
    """Equality on the cell's vertices, strict inequality at every other test point.

    The default test region is all of D_d(Z); extra points may be supplied.
    """
    fn, _ = resolve_lift(lift)
    cell_set = {tuple(int(c) for c in v) for v in cell}
    test = list(points) if points is not None else lattice.delta_points(d)
    violations = []
    equality = []
    for v in sorted(cell_set):
        lv, fv = fn(v), form(v)
        if fv != lv:
            violations.append((v, fv, lv))
    for m in test:
        m = tuple(m)
        if m in cell_set:
            continue
        lv, fv = fn(m), form(m)
        if fv >= lv:
            if fv == lv:
                equality.append(m)
            else:
                violations.append((m, fv, lv))
    # equality outside the cell is not a violation of the form itself but
    # marks a non-generic lift; callers decide whether to reject
    ok = not violations and not equality
    return SupportVerdict(ok, violations, equality)


@dataclass(frozen=True)
class Cell:
    id: int
    vertices: Simplex3
    support: AffineForm


@dataclass
class RegularSubdivision:
    d: int
    lift_kind: str
    cells: list[Cell]
    faces: dict[Triangle, tuple[int, ...]] = field(repr=False)
    edges: dict[Edge, tuple[int, ...]] = field(repr=False)
    lift_values: dict[Point3, int] = field(repr=False)

    def cell_index(self) -> dict[Simplex3, int]:
        return {c.vertices: c.id for c in self.cells}

    def boundary_face(self, tri: Triangle) -> bool:
        return lattice.on_common_facet(tri, self.d)

    def boundary_edge(self, e: Edge) -> bool:
        return lattice.on_common_facet(e, self.d)


# ---------------------------------------------------------------------------
# Reference decomposition of the unit cube (frozen fixture).
#
# Row order is fixed; each row is (cell vertices, affine form, values on the
# 8 cube corners, values on the 8 nearby outside points).  The value grids
# are exactly the evaluations of the stated forms and double as the target
# of verify_tables().

P0, P1, P2, P3 = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
P12, P13, P23, P123 = (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)
CUBE_POINTS: tuple[Point3, ...] = (P0, P1, P2, P3, P12, P13, P23, P123)
NEARBY_POINTS: tuple[Point3, ...] = (
    (0, -1, 0), (1, -1, 0), (1, -1, 1), (0, -1, 1),
    (0, 0, -1), (1, 0, -1), (1, 1, -1), (0, 1, -1),
)

REFERENCE_CELLS: tuple[tuple[Point3, ...], ...] = (
    (P0, P1, P2, P3),
    (P12, P1, P2, P3),
    (P2, P23, P12, P3),
    (P1, P13, P12, P3),
    (P3, P13, P23, P12),
    (P12, P13, P23, P123),
)

REFERENCE_FORMS: tuple[AffineForm, ...] = (
    AffineForm((8, 8, 13), 0),
    AffineForm((16, 16, 21), -8),
    AffineForm((16, 20, 25), -12),
    AffineForm((20, 16, 25), -12),
    AffineForm((20, 20, 29), -16),
    AffineForm((28, 28, 37), -32),
)

REFERENCE_CUBE_VALUES: tuple[tuple[int, ...], ...] = (
    (0, 8, 8, 13, 16, 21, 21, 29),
    (-8, 8, 8, 13, 24, 29, 29, 45),
    (-12, 4, 8, 13, 24, 29, 33, 49),
    (-12, 8, 4, 13, 24, 33, 29, 49),
    (-16, 4, 4, 13, 24, 33, 33, 53),
    (-32, -4, -4, 5, 24, 33, 33, 61),
)

REFERENCE_NEARBY_VALUES: tuple[tuple[int, ...], ...] = (
    (-8, 0, 13, 5, -13, -5, 3, -5),
    (-24, -8, 13, -3, -29, -13, 3, -13),
    (-32, -16, 9, -7, -37, -21, -1, -17),
    (-28, -8, 17, -3, -37, -17, -1, -21),
    (-36, -16, 13, -7, -45, -25, -5, -25),
    (-60, -32, 5, -23, -69, -41, -13, -41),
)

REFERENCE_LIFT_CUBE: tuple[int, ...] = (0, 8, 8, 13, 24, 33, 33, 61)
REFERENCE_LIFT_NEARBY: tuple[int, ...] = (8, 8, 21, 9, 13, 9, 13, 9)

_PATTERN = tuple(canonical_simplex(c) for c in REFERENCE_CELLS)


def _candidate_pattern_cells(d: int):
    for c1 in range(d):
        for c2 in range(d):
            for c3 in range(d):
                for pat in _PATTERN:
                    vs = tuple(
                        (v[0] + c1, v[1] + c2, v[2] + c3) for v in pat
                    )
                    if all(sum(v) <= d for v in vs):
                        yield vs  # already sorted: translation preserves lex order


def _cells_by_pattern(d: int) -> list[Simplex3]:
    return sorted(_candidate_pattern_cells(d))


def _cells_by_hull(d: int, lift: LiftLike) -> list[Simplex3]:
    """Lower hull of the lifted lattice points; exact post-certification."""
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    fn, _ = resolve_lift(lift)
    pts = lattice.delta_points(d)
    if len(pts) == 4:
        if normalized_volume(pts) == 0:
            raise DegeneracyError("degenerate point set")
        return [canonical_simplex(pts)]
    lifted = np.array([[m[0], m[1], m[2], fn(m)] for m in pts], dtype=float)
    try:
        hull = ConvexHull(lifted)
    except QhullError as exc:
        raise DegeneracyError(f"lifted points are not full dimensional: {exc}") from exc
    cand: set[Simplex3] = set()
    for simplex, eq in zip(hull.simplices, hull.equations):
        if eq[3] < -1e-9:  # outward normal points down: lower facet
            cell = canonical_simplex(pts[i] for i in simplex)
            if normalized_volume(cell) > 0:
                cand.add(cell)
    cells: list[Simplex3] = []
    for cell in sorted(cand):
        form = supporting_form(cell, fn)
        verdict = check_supporting(form, cell, d, fn)
        if verdict.violations:
            continue  # numerical sliver from the float hull; not a lower cell
        if verdict.equality_points:
            raise DegeneracyError(
                f"lift is not generic: supporting form of {cell} also attains "
                f"equality at {verdict.equality_points}"
            )
        cells.append(cell)
    total = sum(normalized_volume(c) for c in cells)
    if total != d**3:
        raise CertificationError(
            f"lower-hull cells cover normalized volume {total}, expected {d**3}"
        )
    return cells


def _census(d: int, cell_list: list[Simplex3]):
    faces: dict[Triangle, list[int]] = {}
    edges: dict[Edge, list[int]] = {}
    for cid, vs in enumerate(cell_list):
        for skip in range(4):
            tri = tuple(v for i, v in enumerate(vs) if i != skip)
            faces.setdefault(tri, []).append(cid)
        for i in range(4):
            for j in range(i + 1, 4):
                edges.setdefault((vs[i], vs[j]), []).append(cid)
    for tri, ids in faces.items():
        if len(ids) not in (1, 2):
            raise CertificationError(f"face {tri} shared by {len(ids)} cells")
        boundary = lattice.on_common_facet(tri, d)
        if boundary != (len(ids) == 1):
            raise CertificationError(
                f"face {tri}: boundary={boundary} but incident cells={ids}"
            )
    return (
        {t: tuple(ids) for t, ids in faces.items()},
        {e: tuple(sorted(set(ids))) for e, ids in edges.items()},
    )


def _check_folding(
    cells: Sequence[Cell], faces: Mapping[Triangle, tuple[int, ...]], fn: Callable[[Point3], int]
) -> None:
    """Strict folding of the lift across every interior 2-face.

    For the cells s, s' on a face, their vertices p, p' off the face must lie
    on opposite sides of the face's plane, and each must lie strictly above
    the other cell's form.  Every face is tested; any strict violation raises
    CertificationError, otherwise any equality (a flat fold) raises
    DegeneracyError.
    """
    strict, flat = [], []
    for tri, ids in faces.items():
        if len(ids) != 2:
            continue
        (p,), (q,) = (set(cells[i].vertices).difference(tri) for i in ids)
        u, w, dp, dq = ([x[k] - tri[0][k] for k in range(3)] for x in (tri[1], tri[2], p, q))
        if lattice.det3(u, w, dp) * lattice.det3(u, w, dq) >= 0:
            strict.append(f"cells {ids} lie on the same side of face {tri}")
            continue
        for cid, off in ((ids[0], q), (ids[1], p)):
            gap = fn(off) - cells[cid].support(off)
            if gap < 0:
                strict.append(f"{off} lies below the form of cell {cells[cid].vertices}")
            elif gap == 0:
                flat.append(f"{off} lies on the form of cell {cells[cid].vertices}")
    if strict:
        raise CertificationError(f"lift is not strictly convex: {strict[:3]}")
    if flat:
        raise DegeneracyError(f"lift is not generic: {flat[:3]}")


def subdivide(
    d: int,
    lift: LiftLike = None,
    method: str = "auto",
    certify: bool = True,
) -> RegularSubdivision:
    """Build the regular subdivision of D_d induced by the lift.

    method: "pattern" (canonical lift only), "hull" (any lift), "both"
    (canonical lift only: run both and require identical cell sets), or "auto".

    Checks, in order: there are d^3 cells, every cell is unimodular, and the
    face census holds (each interior 2-face lies in two cells, each face on
    the boundary of D_d in one).  With certify, the lift then folds strictly
    across every interior face (_check_folding).  Together these prove the
    cells are the regular subdivision of the lift, with every lift value
    strictly above every cell's form off that cell:

    - The census and the opposite-sides test make the cells a pseudomanifold
      whose boundary faces lie on the boundary of D_d, so it covers D_d a
      constant number of times.  d^3 cells of volume 1 against the volume d^3
      of D_d make that number 1: the cells triangulate D_d.
    - A unimodular simplex has no lattice points besides its vertices, so
      every lattice point of D_d is a vertex and the piecewise-linear
      function g interpolating the lift on the cells equals it there.
    - Strict folding is strict local convexity of g at every interior face.
      For a triangulation of a convex set that makes g convex with a strict
      crease at every face (De Loera, Rambau, Santos, "Triangulations",
      2010, the "locally convex implies regular" lemma), so each cell's form
      stays strictly below g, hence below the lift, at every lattice point
      off the cell.  Conversely a strict global violation forces a strict
      local one, and a flat fold is an extra equality point.

    The cost is O(d^3).  The hull path filters its float candidates with the
    global check_supporting sweep before any of this runs.
    """
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    fn, kind = resolve_lift(lift)
    if method == "auto":
        method = "pattern" if kind == "canonical" else "hull"
    if method in ("pattern", "both") and kind != "canonical":
        raise DomainError(f"{method!r} construction is only valid for the canonical lift")

    if method == "pattern":
        cell_list = _cells_by_pattern(d)
    elif method == "hull":
        cell_list = _cells_by_hull(d, fn)
    elif method == "both":
        cell_list = _cells_by_pattern(d)
        other = _cells_by_hull(d, fn)
        if cell_list != other:
            raise CertificationError(
                "construction paths disagree: "
                f"{len(cell_list)} pattern cells vs {len(other)} hull cells"
            )
    else:
        raise DomainError(f"unknown method {method!r}")

    if len(cell_list) != d**3:
        raise CertificationError(f"got {len(cell_list)} cells, expected {d**3}")
    for vs in cell_list:
        if normalized_volume(vs) != 1:
            raise CertificationError(f"cell {vs} is not unimodular")
    faces, edges = _census(d, cell_list)
    cells = [Cell(cid, vs, supporting_form(vs, fn)) for cid, vs in enumerate(cell_list)]
    if certify:
        _check_folding(cells, faces, fn)
    values = {m: fn(m) for m in lattice.delta_points(d)}
    return RegularSubdivision(d, kind, cells, faces, edges, values)


@dataclass
class TableReport:
    ok: bool
    entries_total: int
    entries_matched: int
    mismatches: list  # (row, label, expected, got)
    forms_ok: bool
    lift_ok: bool

    def summary(self) -> str:
        status = "match" if self.ok else "MISMATCH"
        return (
            f"unit-cube reference tables: {self.entries_matched}/{self.entries_total} "
            f"entries {status}"
        )


def verify_tables() -> TableReport:
    """Recompute the six reference supporting forms and all 96 evaluation entries."""
    mismatches = []
    forms_ok = True
    labels_cube = [f"cube:{p}" for p in CUBE_POINTS]
    labels_near = [f"nearby:{p}" for p in NEARBY_POINTS]
    matched = 0
    total = 0
    for row, cell in enumerate(REFERENCE_CELLS):
        form = supporting_form(cell)
        if form != REFERENCE_FORMS[row]:
            forms_ok = False
            mismatches.append((row, "form", REFERENCE_FORMS[row], form))
        for pts, expected, labels in (
            (CUBE_POINTS, REFERENCE_CUBE_VALUES[row], labels_cube),
            (NEARBY_POINTS, REFERENCE_NEARBY_VALUES[row], labels_near),
        ):
            for p, exp, label in zip(pts, expected, labels):
                total += 1
                got = form(p)
                if got == exp:
                    matched += 1
                else:
                    mismatches.append((row, label, exp, got))
    lift_ok = (
        tuple(lift_value(p) for p in CUBE_POINTS) == REFERENCE_LIFT_CUBE
        and tuple(lift_value(p) for p in NEARBY_POINTS) == REFERENCE_LIFT_NEARBY
    )
    if not lift_ok:
        mismatches.append((-1, "lift", REFERENCE_LIFT_CUBE + REFERENCE_LIFT_NEARBY, None))
    ok = forms_ok and lift_ok and matched == total
    return TableReport(ok, total, matched, mismatches, forms_ok, lift_ok)


def subdivision_to_dict(sub: RegularSubdivision) -> dict:
    """JSON-ready dict; exact integers serialized as decimal strings."""
    cells = [
        {
            "id": str(c.id),
            "vertices": [[str(x) for x in v] for v in c.vertices],
            "support": {"n": [str(x) for x in c.support.n], "b": str(c.support.b)},
        }
        for c in sub.cells
    ]
    faces = [
        {
            "vertices": [[str(x) for x in v] for v in tri],
            "cells": [str(i) for i in ids],
            "boundary": len(ids) == 1,
        }
        for tri, ids in sorted(sub.faces.items())
    ]
    return {
        "schema": 1,
        "d": str(sub.d),
        "lift": sub.lift_kind,
        "cell_count": str(len(sub.cells)),
        "cells": cells,
        "faces": faces,
    }
