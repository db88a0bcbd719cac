"""Exponent identities for the patchworking family, certified exactly."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_pants import lattice, patchwork
from tropical_pants.errors import CertificationError, DomainError
from tropical_pants.patchwork import (
    ResidualExponent,
    boundary_relation,
    build_patchwork,
    eval_patchwork,
    identity_certificate,
    monomial_identity,
    residual_exponents,
)
from tropical_pants.pants import classify_cells
from tropical_pants.subdivision import lift_value


@pytest.fixture(scope="module")
def sub5(sub_factory):
    return sub_factory(5)


@pytest.fixture(scope="module")
def inner5(sub5):
    (cid,) = classify_cells(sub5).interior_ids
    return cid


def test_build_d1():
    p = build_patchwork(1)
    assert p.terms == (
        ((0, 0, 0), 0),
        ((0, 0, 1), 13),
        ((0, 1, 0), 8),
        ((1, 0, 0), 8),
    )


def test_build_counts():
    assert len(build_patchwork(5)) == 56
    p = build_patchwork(5)
    assert dict(p.terms)[(1, 1, 1)] == 61
    with pytest.raises(DomainError):
        build_patchwork(0)


def test_eval_cancellation():
    # w = (-t^8, t^8, -t^13): the four degree-1 terms cancel in pairs
    p = build_patchwork(1)
    for t in (math.e, math.e**4, math.e**16):
        val, scale = eval_patchwork(p, t, (8.0, 8.0, 13.0), (math.pi, 0.0, math.pi))
        assert scale == 0.0
        assert abs(val) < 1e-12


def test_eval_direct_sum():
    p = build_patchwork(1)
    val, scale = eval_patchwork(p, math.e, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert scale == 0.0
    expected = 1 + math.exp(-8) + math.exp(-8) + math.exp(-13)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val.imag == pytest.approx(0.0, abs=1e-15)


def test_eval_requires_t_above_one():
    with pytest.raises(DomainError):
        eval_patchwork(build_patchwork(1), 1.0, (0, 0, 0), (0, 0, 0))


@settings(max_examples=120, deadline=None)
@given(
    x=st.tuples(*[st.floats(-60, 60) for _ in range(3)]),
    theta=st.tuples(*[st.floats(-math.pi, math.pi) for _ in range(3)]),
    logt=st.floats(0.1, 20),
)
def test_eval_magnitude_bound(x, theta, logt):
    # factoring out the max term keeps the scaled value below the term count
    p = build_patchwork(1)
    val, _ = eval_patchwork(p, math.exp(logt), x, theta)
    assert abs(val) <= 4 + 1e-9


def test_monomial_identity_frozen(sub5, inner5):
    rec = monomial_identity(sub5, inner5, (0, 0, 0))
    assert rec.vertices == ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1))
    assert rec.a == (4, -1, -1, -1)
    assert rec.exponent == -90
    assert rec.verified
    # substitution by hand: -90 == 4*61 - 124 - 105 - 105
    assert 4 * 61 - 124 - 105 - 105 == -90


def test_monomial_identity_own_vertex(sub5, inner5):
    rec = monomial_identity(sub5, inner5, (1, 1, 2))
    assert rec.a == (0, 1, 0, 0)
    assert rec.exponent == lift_value((1, 1, 2)) == 124
    assert rec.verified


@pytest.mark.parametrize("d", [5, 6])
def test_monomial_identity_exhaustive(sub_factory, d):
    sub = sub_factory(d)
    for cid in classify_cells(sub).interior_ids:
        for m, _ in lattice.enumerate_delta(d):
            rec = monomial_identity(sub, cid, m)
            assert rec.verified
            assert sum(rec.a) == 1


def test_monomial_identity_rejects_outer_cell(sub5, inner5):
    outer = next(
        c.id
        for c in sub5.cells
        if any(lattice.facets_containing(v, 5) for v in c.vertices)
    )
    with pytest.raises(DomainError):
        monomial_identity(sub5, outer, (0, 0, 0))
    with pytest.raises(DomainError):
        monomial_identity(sub5, inner5, (9, 9, 9))


def test_support_inequality_everywhere(sub5, inner5):
    # the cell's form stays below the lift off the cell, equal on it
    cell = sub5.cells[inner5]
    for m, _ in lattice.enumerate_delta(5):
        gap = cell.support(m) - lift_value(m)
        if m in cell.vertices:
            assert gap == 0
        else:
            assert gap < 0


def test_boundary_relation_frozen(sub_factory):
    sub = sub_factory(2)
    idx = sub.cell_index()
    rho = idx[((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))]
    rho_p = idx[((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0))]
    rec = boundary_relation(sub, rho, rho_p)
    assert rec.m0 == (0, 0, 0)
    assert rec.m4 == (1, 1, 0)
    assert rec.shared == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert rec.eps == (0, 1, 1)
    assert rec.exponent == 16
    assert rec.verified


def test_boundary_relation_swap(sub_factory):
    sub = sub_factory(2)
    idx = sub.cell_index()
    rho = idx[((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))]
    rho_p = idx[((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0))]
    rec = boundary_relation(sub, rho_p, rho)
    assert rec.m0 == (1, 1, 0)
    assert rec.m4 == (0, 0, 0)
    assert rec.eps == (0, 1, 1)
    assert rec.exponent == -8
    assert rec.verified


def test_boundary_relation_sweep(sub5):
    # every interior 2-face of the d=5 subdivision satisfies the exchange pattern
    checked = 0
    for tri, ids in sub5.faces.items():
        if len(ids) != 2:
            continue
        rec = boundary_relation(sub5, ids[0], ids[1])
        assert rec.verified
        assert sorted(rec.eps) == [0, 1, 1]
        checked += 1
    assert checked > 100


def test_boundary_relation_rejects_non_adjacent(sub_factory):
    sub = sub_factory(2)
    idx = sub.cell_index()
    a = idx[((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))]
    b = idx[((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))]
    with pytest.raises(DomainError):
        boundary_relation(sub, a, b)


# --- matrix sweep against the scalar oracles --------------------------------


def _scalar_entries(sub, cid):
    out = []
    for m, _ in lattice.enumerate_delta(sub.d):
        rec = monomial_identity(sub, cid, m)
        out.append(
            {
                "m": [str(c) for c in rec.m],
                "a": [str(c) for c in rec.a],
                "exponent": str(rec.exponent),
                "verified": rec.verified,
            }
        )
    return out


def _scalar_residuals(sub, cid, partner_ids=()):
    # the per-point loop: expand over the base cell, reroute a pole on the
    # off-face coordinate through the first partner that lacks m as a vertex
    base = sub.cells[cid]
    partners = []
    for pid in sorted(partner_ids):
        (off,) = set(base.vertices) - set(sub.cells[pid].vertices)
        partners.append((pid, base.vertices.index(off)))
    out = []
    for m, interior in lattice.enumerate_delta(sub.d):
        if interior:
            continue
        chosen, coeffs = cid, patchwork._barycentric(base.vertices, m)
        for pid, off_idx in partners:
            if coeffs[off_idx] >= 0 or m in sub.cells[pid].vertices:
                continue
            chosen, coeffs = pid, patchwork._barycentric(sub.cells[pid].vertices, m)
            break
        exponent = sub.cells[chosen].support(m) - sub.lift_values[m]
        out.append(ResidualExponent(m, exponent, chosen, tuple(coeffs)))
    return out


def test_residuals_frozen(sub5, inner5):
    recs = residual_exponents(sub5, inner5)
    assert len(recs) == 52
    by_m = {r.m: r for r in recs}
    origin = by_m[(0, 0, 0)]
    assert origin.exponent == -90
    assert origin.a == (4, -1, -1, -1)
    assert origin.cell_id == inner5
    assert all(r.exponent < 0 for r in recs)


def test_residuals_with_partner_switch(sub5, inner5):
    # flaps share a face with the inner cell; points with a pole on the
    # opposite coordinate must be rerouted through the flap's chart
    flaps = classify_cells(sub5).flap_ids
    recs = residual_exponents(sub5, inner5, partner_ids=flaps)
    assert recs == _scalar_residuals(sub5, inner5, flaps)
    assert {r.cell_id for r in recs} - {inner5}  # at least one switch happened
    assert all(r.exponent < 0 for r in recs)
    base_vertices = sub5.cells[inner5].vertices
    for r in recs:
        if r.cell_id == inner5:
            continue
        shared = set(base_vertices) & set(sub5.cells[r.cell_id].vertices)
        assert len(shared) == 3


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_residuals_all_inner_cells(sub_factory, d):
    sub = sub_factory(d)
    n_boundary = lattice.lattice_count(d) - lattice.interior_lattice_count(d)
    for cid in classify_cells(sub).interior_ids:
        recs = residual_exponents(sub, cid)
        assert len(recs) == n_boundary
        assert all(r.exponent < 0 for r in recs)
        assert recs == _scalar_residuals(sub, cid)


def test_residuals_rejects_bad_input(sub_factory, sub5, inner5):
    with pytest.raises(DomainError):
        residual_exponents(sub_factory(4), 0)
    with pytest.raises(DomainError):
        residual_exponents(sub5, inner5, partner_ids=[inner5])


def test_certificate_shape(sub5, inner5):
    cert = identity_certificate(sub5, inner5)
    assert cert["schema"] == 1
    assert cert["d"] == "5"
    assert len(cert["entries"]) == 56
    assert all(e["verified"] for e in cert["entries"])
    first = cert["entries"][0]
    assert first["m"] == ["0", "0", "0"]
    assert first["exponent"] == "-90"


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_certificate_matches_scalar_identities(sub_factory, d):
    sub = sub_factory(d)
    ids = classify_cells(sub).interior_ids
    assert len(ids) == (d - 4) ** 3
    for cid in ids:
        cert = identity_certificate(sub, cid)
        assert cert["entries"] == _scalar_entries(sub, cid)
        assert all(type(e["verified"]) is bool and e["verified"] for e in cert["entries"])


def test_matrix_sweep_returns_python_ints(sub5, inner5):
    # no numpy scalar leaks out of the object-array products
    flaps = classify_cells(sub5).flap_ids
    for recs in (residual_exponents(sub5, inner5), residual_exponents(sub5, inner5, flaps)):
        for r in recs:
            assert type(r.exponent) is int and type(r.cell_id) is int
            assert all(type(c) is int for c in (*r.m, *r.a))
    for e in identity_certificate(sub5, inner5)["entries"]:
        assert type(e["verified"]) is bool


def test_vertex_matrix_inverse(sub5, inner5):
    vs = sub5.cells[inner5].vertices
    inv = patchwork._vertex_matrix_inverse(vs)
    for i, v in enumerate(vs):
        assert list(inv @ [*v, 1]) == [int(j == i) for j in range(4)]
    assert all(type(x) is int for x in inv.flat)
    # a volume-2 simplex has no integral inverse
    with pytest.raises(CertificationError):
        patchwork._vertex_matrix_inverse([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
