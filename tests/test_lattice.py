"""Lattice primitives: enumeration, interior flags, normalized volume."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropical_pants import lattice
from tropical_pants.errors import DegeneracyError, DomainError


def brute_points(d):
    # independent oracle: plain triple loop over the bounding cube
    pts = []
    for a in range(d + 1):
        for b in range(d + 1):
            for c in range(d + 1):
                if a + b + c <= d:
                    pts.append((a, b, c))
    return sorted(pts)


def test_enumerate_delta_d1():
    pts = lattice.delta_points(1)
    assert pts == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert all(not flag for _, flag in lattice.enumerate_delta(1))


def test_enumerate_delta_counts_and_order():
    for d in range(1, 13):
        pts = lattice.delta_points(d)
        assert pts == brute_points(d)
        assert pts == sorted(pts)
        assert len(pts) == (d + 1) * (d + 2) * (d + 3) // 6
        assert len(pts) == lattice.lattice_count(d)


def test_enumerate_delta_d5_interior():
    # frozen: the 4 interior points of the degree-5 simplex
    flagged = lattice.enumerate_delta(5)
    assert len(flagged) == 56
    interior = [m for m, f in flagged if f]
    assert sorted(interior) == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_interior_flag_matches_translate_characterization():
    # interior of D_d == (1,1,1) + D_{d-4}, pointwise for d in 4..9
    for d in range(4, 10):
        inner = set(lattice.interior_points(d))
        translated = {
            (m[0] + 1, m[1] + 1, m[2] + 1) for m in brute_points(d - 4)
        }
        assert inner == translated


def test_interior_lattice_count():
    assert lattice.interior_lattice_count(4) == 1
    assert lattice.interior_lattice_count(5) == 4
    assert lattice.interior_lattice_count(7) == 20
    for d in range(4, 13):
        assert lattice.interior_lattice_count(d) == len(lattice.interior_points(d))


def test_domain_errors():
    with pytest.raises(DomainError):
        lattice.enumerate_delta(0)
    with pytest.raises(DomainError):
        lattice.enumerate_delta(-3)
    with pytest.raises(DomainError):
        lattice.interior_lattice_count(3)


def test_normalized_volume_examples():
    assert lattice.normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert lattice.normalized_volume([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]) == 2
    # frozen: determinant of [(1,-1,0),(1,0,0),(0,-1,1)] from (0,0,0) is 1
    assert lattice.normalized_volume([(0, 0, 0), (1, -1, 0), (1, 0, 0), (0, -1, 1)]) == 1
    # degenerate (coplanar) set reports 0
    assert lattice.normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0


point = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


@given(st.tuples(point, point, point, point), point, st.randoms())
def test_normalized_volume_invariance(simplex, shift, rng):
    vol = lattice.normalized_volume(simplex)
    perm = list(simplex)
    rng.shuffle(perm)
    assert lattice.normalized_volume(perm) == vol
    moved = [tuple(v[i] + shift[i] for i in range(3)) for v in simplex]
    assert lattice.normalized_volume(moved) == vol


def test_facet_helpers():
    assert lattice.facets_containing((0, 0, 0), 1) == frozenset({0, 1, 2})
    assert lattice.facets_containing((1, 0, 0), 1) == frozenset({1, 2, 3})
    assert lattice.on_common_facet([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1)
    assert not lattice.on_common_facet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 1)
    # triangle on x3 = 0
    assert lattice.on_common_facet([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 5)


def _solve_oracle(rows, rhs):
    """Gaussian elimination over Fractions; raises DegeneracyError if singular."""
    n = len(rows)
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise DegeneracyError("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


entry = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
row3 = st.lists(entry, min_size=3, max_size=3)


@given(st.lists(row3, min_size=3, max_size=3), row3)
def test_solve3_matches_elimination_oracle(rows, rhs):
    if lattice.det3(*rows) == 0:
        with pytest.raises(DegeneracyError):
            lattice.solve3(rows, rhs)
        with pytest.raises(DegeneracyError):
            _solve_oracle(rows, rhs)
        return
    x = lattice.solve3(rows, rhs)
    assert x == _solve_oracle(rows, rhs)
    assert [sum(r[j] * x[j] for j in range(3)) for r in rows] == list(rhs)
    for c in x:
        assert isinstance(c, int) or c.denominator != 1


@given(st.permutations(range(3)), st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3), st.sampled_from((1, -1)))
def test_solve3_unit_determinant_is_integral(perm, shear, rhs, sign):
    # a signed permutation times an upper unitriangular shear has det +-1
    u = [[1, shear[0], shear[1]], [0, 1, shear[2]], [0, 0, 1]]
    rows = [list(u[i]) for i in perm]
    rows[0] = [sign * c for c in rows[0]]
    assert abs(lattice.det3(*rows)) == 1
    x = lattice.solve3(rows, rhs)
    assert all(type(c) is int for c in x)
    assert x == _solve_oracle(rows, rhs)


def test_solve3_singular_examples():
    rank2 = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    for solver in (lattice.solve3, _solve_oracle):
        with pytest.raises(DegeneracyError):
            solver(rank2, [1, 2, 3])
        with pytest.raises(DegeneracyError):
            solver([[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 1]], [0, 0, 0])
