"""Dual complex: transform evaluation, duality counts, distance, mesh export."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropical_pants import lattice, tropical
from tropical_pants.cli import _default_bbox
from tropical_pants.errors import DomainError
from tropical_pants.serialization import parse_off
from tropical_pants.tropical import (
    build_tropical,
    distance_many,
    distance_to_tropical,
    export_mesh,
    incident,
    legendre_eval,
)


def test_legendre_origin():
    for d in (1, 4, 6):
        val, arg = legendre_eval((0, 0, 0), d)
        assert val == 0
        assert arg == [(0, 0, 0)]


def test_legendre_dual_vertex_d1():
    val, arg = legendre_eval((8, 8, 13), 1)
    assert val == 0
    assert arg == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_legendre_far_point_d5():
    # frozen: brute max is 100*4 - v((0,0,4)) = 400 - 208
    val, arg = legendre_eval((0, 0, 100), 5)
    assert val == 192
    assert arg == [(0, 0, 4)]


def test_legendre_exact_vs_float():
    x = (Fraction(17, 2), Fraction(5), Fraction(11))
    val, arg = legendre_eval(x, 3)
    fval, farg = legendre_eval((8.5, 5.0, 11.0), 3)
    assert math.isclose(float(val), fval, rel_tol=1e-12)
    assert set(arg) <= set(farg)


@pytest.fixture(scope="module")
def trop1(request):
    from tropical_pants.subdivision import subdivide

    return build_tropical(subdivide(1))


@pytest.fixture(scope="module")
def trop5(request):
    from tropical_pants.subdivision import subdivide

    return build_tropical(subdivide(5))


def test_d1_structure(trop1):
    assert len(trop1.vertices) == 1
    assert trop1.vertices[0].point == (8, 8, 13)
    assert len(trop1.edges) == 4
    assert all(not e.bounded for e in trop1.edges)
    assert len(trop1.two_cells) == 6
    assert all(not c.bounded for c in trop1.two_cells)


def test_d5_duality_counts(trop5):
    sub = trop5.sub
    assert len(trop5.vertices) == 125
    assert len(trop5.edges) == len(sub.faces)
    assert len(trop5.two_cells) == len(sub.edges)


def test_boundedness_criterion(trop5):
    sub = trop5.sub
    for e in trop5.edges:
        assert e.bounded == (not sub.boundary_face(e.face))
    for c2 in trop5.two_cells:
        assert c2.bounded == (not sub.boundary_edge(c2.edge))


def test_vertex_degree_four(trop5):
    # each dual vertex meets exactly 4 dual edges (one per facet of its cell)
    deg = {v.id: 0 for v in trop5.vertices}
    for e in trop5.edges:
        for vid in e.vertex_ids:
            deg[vid] += 1
    assert set(deg.values()) == {4}


def test_incidence_containment_reversal(trop5):
    sub = trop5.sub
    for c2 in trop5.two_cells[:40]:
        m, mp = c2.edge
        for tri in c2.face_keys:
            e = trop5.edges[trop5.edge_by_face[tri]]
            # primal: edge subset of face; dual: edge contains 2-cell boundary piece
            assert set(c2.edge) <= set(tri)
            assert incident(e, c2)
            for vid in e.vertex_ids:
                assert incident(trop5.vertices[vid], e)
                assert set(c2.edge) <= set(sub.cells[vid].vertices)


def test_2cell_points_have_argmax_pair(trop5):
    # sampled relative-interior points of bounded 2-cells: argmax is the dual pair
    rng = np.random.default_rng(7)
    checked = 0
    for c2 in trop5.two_cells:
        if not c2.bounded or len(c2.chain) < 3:
            continue
        pts = np.array([trop5.vertex_point_float(v) for v in c2.chain])
        w = rng.dirichlet(np.ones(len(pts)))
        x = (w[:, None] * pts).sum(axis=0)
        _, arg = legendre_eval(tuple(float(c) for c in x), 5)
        assert sorted(c2.edge) == arg
        checked += 1
        if checked >= 25:
            break
    assert checked > 0


def test_distance_zero_on_vertex(trop1):
    assert distance_to_tropical((8.0, 8.0, 13.0), trop1) == pytest.approx(0.0, abs=1e-12)


def test_distance_on_edge_membership(trop1):
    # (8,8,12): three terms tie, the point lies on the complex
    _, arg = legendre_eval((8, 8, 12), 1)
    assert len(arg) >= 2
    assert distance_to_tropical((8.0, 8.0, 12.0), trop1) == pytest.approx(0.0, abs=1e-9)


def test_distance_frozen_value(trop1):
    # frozen oracle: nearest pieces to (9,8,13) are the planes x1=x2 and x1-8=x3-13,
    # both at distance 1/sqrt(2); derived by exact projection onto each piece
    got = distance_to_tropical((9.0, 8.0, 13.0), trop1)
    assert got == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_distance_sampling_oracle(trop1):
    # coarse sampling oracle over the 6 wedge cells for a handful of probes
    rng = np.random.default_rng(3)
    probes = [(9.0, 8.0, 13.0), (8.0, 8.0, 20.0), (5.0, 2.0, 9.0), (12.0, 11.0, 14.0)]
    samples = []
    for c2 in trop1.two_cells:
        v0 = trop1.vertex_point_float(c2.chain[0])
        d1 = np.array(trop1.edges[trop1.edge_by_face[c2.ray_faces[0]]].direction, float)
        d2 = np.array(trop1.edges[trop1.edge_by_face[c2.ray_faces[1]]].direction, float)
        for _ in range(4000):
            s, t = rng.uniform(0, 30), rng.uniform(0, 30)
            samples.append(v0 + s * d1 + t * d2)
    S = np.array(samples)
    for p in probes:
        brute = float(np.linalg.norm(S - np.asarray(p), axis=1).min())
        got = distance_to_tropical(p, trop1)
        assert got <= brute + 1e-9
        assert got >= brute - 0.5  # coarse oracle upper-bounds within sampling slack


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.floats(-15, 30), st.floats(-15, 30), st.floats(-15, 30)))
def test_distance_zero_iff_argmax_tie(trop1, x):
    d = distance_to_tropical(tuple(float(c) for c in x), trop1)
    val, arg = legendre_eval(tuple(float(c) for c in x), 1)
    if len(arg) >= 2:
        assert d <= 1e-6
    if d > 1e-3:
        assert len(arg) == 1


def _distance_oracle(points, comp):
    """Distance as the minimum over the complex's pieces: the feet of 2-cell
    planes that land inside their cell, the bounded edges and the rays."""
    sub = comp.sub
    pts = lattice.delta_points(sub.d)
    terms_m = np.array(pts, dtype=float)
    terms_v = np.array([sub.lift_values[m] for m in pts], dtype=float)
    term_index = {m: i for i, m in enumerate(pts)}
    P = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(P.shape[0], np.inf)

    for c2 in comp.two_cells:
        m, mp = c2.edge
        n = np.array([m[i] - mp[i] for i in range(3)], dtype=float)
        c = float(sub.lift_values[m] - sub.lift_values[mp])
        nn = n @ n
        offs = (P @ n - c) / nn
        feet = P - offs[:, None] * n[None, :]
        scores = feet @ terms_m.T - terms_v[None, :]
        top = scores.max(axis=1)
        inside = scores[:, term_index[m]] >= top - 1e-9 * (1.0 + np.abs(top))
        best = np.where(inside, np.minimum(best, np.abs(offs) * math.sqrt(nn)), best)

    for e in comp.edges:
        a = comp.vertex_point_float(e.vertex_ids[0])
        if e.bounded:
            ab = comp.vertex_point_float(e.vertex_ids[1]) - a
            t = np.clip((P - a) @ ab / (ab @ ab), 0.0, 1.0)
        else:
            ab = np.array(e.direction, dtype=float)
            t = np.maximum((P - a) @ ab / (ab @ ab), 0.0)
        proj = a[None, :] + t[:, None] * ab[None, :]
        best = np.minimum(best, np.linalg.norm(P - proj, axis=1))
    return best


@pytest.fixture(scope="module")
def small_complexes(sub_factory):
    return {d: build_tropical(sub_factory(d)) for d in (1, 2, 3, 4)}


def _vertex_window(comp):
    lo, hi = _default_bbox(comp)
    return np.array(lo), np.array(hi)


_unit = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((1, 2, 3, 4)),
    st.lists(st.tuples(_unit, _unit, _unit), min_size=1, max_size=12),
    st.sampled_from((1.0, 40.0)),
)
def test_distance_matches_piecewise_oracle(small_complexes, d, units, spread):
    # spread 1 draws inside the vertex window, spread 40 far outside it
    comp = small_complexes[d]
    lo, hi = _vertex_window(comp)
    center = (lo + hi) / 2.0
    P = center + spread * (np.array(units) - 0.5) * (hi - lo)
    np.testing.assert_allclose(
        distance_many(P, comp), _distance_oracle(P, comp), rtol=0.0, atol=1e-9
    )


def test_distance_foot_ties_two_terms(small_complexes):
    # the foot of the minimizing term's plane is a point of the complex
    rng = np.random.default_rng(11)
    for d, comp in small_complexes.items():
        pts = lattice.delta_points(d)
        M = np.array(pts, dtype=float)
        V = np.array([comp.sub.lift_values[m] for m in pts], dtype=float)
        lo, hi = _vertex_window(comp)
        P = rng.uniform(lo, hi, size=(40, 3))
        dist = distance_many(P, comp)
        checked = 0
        for x, r in zip(P, dist):
            if r < 1e-3:
                continue
            scores = M @ x - V
            top = int(scores.argmax())
            norms = np.linalg.norm(M[top] - M, axis=1)
            norms[top] = 1.0
            ratios = (scores[top] - scores) / norms
            ratios[top] = np.inf
            other = int(ratios.argmin())
            assert ratios[other] == pytest.approx(r, abs=1e-12)
            foot = x - r * (M[top] - M[other]) / norms[other]
            _, arg = legendre_eval(tuple(float(c) for c in foot), d)
            assert pts[top] in arg and pts[other] in arg
            checked += 1
        assert checked > 20


def test_distance_bbox_precondition(trop1):
    with pytest.raises(DomainError):
        distance_to_tropical((100.0, 0.0, 0.0), trop1, bbox=((-10, -10, -10), (50, 50, 50)))


def test_export_mesh_d1(tmp_path, trop1):
    path = tmp_path / "d1.off"
    export_mesh(trop1, ((-20, -20, -20), (40, 40, 40)), path)
    verts, faces = parse_off(path)
    assert len(faces) == 6
    assert any(np.allclose(v, (8, 8, 13)) for v in verts)
    # every mesh vertex is inside the box (clipping really happened)
    assert all(-20 - 1e-6 <= c <= 40 + 1e-6 for v in verts for c in v)


def test_export_mesh_empty_bbox(trop1, tmp_path):
    with pytest.raises(DomainError):
        export_mesh(trop1, ((10, 10, 10), (0, 0, 0)), tmp_path / "x.off")


def test_export_mesh_d5_roundtrip(tmp_path, trop5):
    path = tmp_path / "d5.off"
    export_mesh(trop5, ((-30, -30, -30), (120, 120, 150)), path)
    verts, faces = parse_off(path)
    assert len(verts) > 100
    assert len(faces) > 100
    for f in faces:
        assert len(f) >= 3
        assert all(0 <= i < len(verts) for i in f)
    # obj flavor parses as text with matching face count
    opath = tmp_path / "d5.obj"
    export_mesh(trop5, ((-30, -30, -30), (120, 120, 150)), opath, fmt="obj")
    lines = opath.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("f ")) == len(faces)


def test_export_deterministic(tmp_path, trop5):
    p1, p2 = tmp_path / "a.off", tmp_path / "b.off"
    export_mesh(trop5, ((-30, -30, -30), (120, 120, 150)), p1)
    export_mesh(trop5, ((-30, -30, -30), (120, 120, 150)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_duality_counts_sweep(sub_factory):
    for d in range(1, 7):
        sub = sub_factory(d)
        comp = build_tropical(sub)
        counts = comp.counts()
        assert counts[0] == len(sub.cells) == d**3
        assert counts[1] == len(sub.faces)
        assert counts[2] == len(sub.edges)
