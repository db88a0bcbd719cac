"""Exact lattice-point and simplex primitives for the standard simplex family.

The standard simplex of degree d is  D_d = {x in R^3 : x_i >= 0, x_1+x_2+x_3 <= d}.
Its interior polytope (for d >= 4) is the translate  (1,1,1) + D_{d-4}, whose
lattice points are exactly the interior lattice points of D_d.

Everything in this module is exact integer arithmetic (solve3 also accepts
Fraction entries).  Python integers are arbitrary precision, so there is no
overflow to detect.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DegeneracyError, DomainError

Point3 = tuple[int, int, int]
Simplex3 = tuple[Point3, Point3, Point3, Point3]


def in_delta(m: Sequence[int], d: int) -> bool:
    """Membership of an integer point in D_d (closed)."""
    return min(m) >= 0 and sum(m) <= d


def is_interior(m: Sequence[int], d: int) -> bool:
    """Membership in the open simplex, i.e. all defining inequalities strict."""
    return min(m) >= 1 and sum(m) <= d - 1


def enumerate_delta(d: int) -> list[tuple[Point3, bool]]:
    """All lattice points of D_d in lexicographic order, flagged interior.

    Raises DomainError for d < 1.
    """
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    out: list[tuple[Point3, bool]] = []
    for m1 in range(d + 1):
        for m2 in range(d + 1 - m1):
            for m3 in range(d + 1 - m1 - m2):
                m = (m1, m2, m3)
                out.append((m, is_interior(m, d)))
    return out


def delta_points(d: int) -> list[Point3]:
    """Lattice points of D_d, lexicographic."""
    return [m for m, _ in enumerate_delta(d)]


def interior_points(d: int) -> list[Point3]:
    """Interior lattice points of D_d, lexicographic.  Empty for d < 4."""
    return [m for m, flag in enumerate_delta(d) if flag]


def lattice_count(d: int) -> int:
    """|D_d(Z)| = (d+1)(d+2)(d+3)/6."""
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    return (d + 1) * (d + 2) * (d + 3) // 6


def interior_lattice_count(d: int) -> int:
    """Number of interior lattice points, (d-1)(d-2)(d-3)/6.  Requires d >= 4."""
    if d < 4:
        raise DomainError(f"interior polytope needs d >= 4, got {d}")
    return (d - 1) * (d - 2) * (d - 3) // 6


def det3(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def solve3(rows: Sequence[Sequence], rhs: Sequence) -> list:
    """Exact solution x of rows . x = rhs by Cramer's rule on det3.

    Entries may be int or Fraction.  Each component comes back as an int when
    it is integral, which is always the case for integer systems of
    determinant +-1 (unimodular cells), and as a Fraction otherwise.  Raises
    DegeneracyError when the determinant is zero.
    """
    det = det3(*rows)
    if det == 0:
        raise DegeneracyError(f"singular linear system {[list(r) for r in rows]}")
    out = []
    for k in range(3):
        num = det3(*([b if j == k else r[j] for j in range(3)] for r, b in zip(rows, rhs)))
        if isinstance(num, int) and isinstance(det, int) and num % det == 0:
            out.append(num // det)
        else:
            q = Fraction(num, det)
            out.append(q.numerator if q.denominator == 1 else q)
    return out


def normalized_volume(s: Iterable[Sequence[int]]) -> int:
    """|det| of the three edge vectors from vertex 0.

    1 iff the simplex is unimodular; 0 iff degenerate.  Invariant under
    vertex permutation and lattice translation.
    """
    v0, v1, v2, v3 = list(s)
    e1 = tuple(v1[i] - v0[i] for i in range(3))
    e2 = tuple(v2[i] - v0[i] for i in range(3))
    e3 = tuple(v3[i] - v0[i] for i in range(3))
    return abs(det3(e1, e2, e3))


def canonical_simplex(vertices: Iterable[Sequence[int]]) -> Simplex3:
    """Vertices as a lexicographically sorted tuple; the canonical cell key."""
    vs = sorted(tuple(int(c) for c in v) for v in vertices)
    if len(vs) != 4:
        raise DomainError("a 3-simplex needs exactly 4 vertices")
    return tuple(vs)  # type: ignore[return-value]


# Facets of D_d: x_i = 0 for i in {0,1,2}, and x_1+x_2+x_3 = d.
def facets_containing(m: Sequence[int], d: int) -> frozenset[int]:
    """Indices of facets of D_d containing m: 0,1,2 for coordinate planes, 3 for the slanted facet."""
    out = {i for i in range(3) if m[i] == 0}
    if sum(m) == d:
        out.add(3)
    return frozenset(out)


def on_common_facet(points: Iterable[Sequence[int]], d: int) -> bool:
    """True iff all points lie on one facet of D_d, i.e. the set sits in the boundary."""
    common: frozenset[int] | None = None
    for p in points:
        f = facets_containing(p, d)
        common = f if common is None else (common & f)
        if not common:
            return False
    return bool(common)
