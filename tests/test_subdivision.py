"""Lifting function, supporting forms, subdivision construction, reference tables."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_pants import lattice, subdivision
from tropical_pants.errors import CertificationError, DegeneracyError, DomainError
from tropical_pants.subdivision import (
    AffineForm,
    Cell,
    check_supporting,
    lift_value,
    subdivide,
    supporting_form,
    verify_tables,
)


def test_lift_values_frozen():
    assert lift_value((0, 0, 0)) == 0
    assert lift_value((1, 0, 0)) == 8
    assert lift_value((0, 1, 0)) == 8
    assert lift_value((0, 0, 1)) == 13
    assert lift_value((1, 1, 1)) == 61
    assert lift_value((0, -1, 0)) == 8
    assert lift_value((1, -1, 1)) == 21
    assert lift_value((2, 1, 1)) == 105
    assert lift_value((1, 1, 2)) == 124


def test_lift_positive_definite():
    for m, _ in lattice.enumerate_delta(6):
        shifted = (m[0] - 3, m[1] - 3, m[2] - 3)
        val = lift_value(shifted)
        assert val >= 0
        assert (val == 0) == (shifted == (0, 0, 0))


def test_supporting_form_unit_cell():
    form = supporting_form([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert form == AffineForm((8, 8, 13), 0)


def test_supporting_form_top_cube_cell():
    form = supporting_form([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert form == AffineForm((28, 28, 37), -32)


def test_supporting_form_interior_cell_d5():
    # frozen from the exact solve with lift values 61, 105, 105, 124
    form = supporting_form([(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)])
    assert form == AffineForm((44, 44, 63), -90)
    assert form((1, 1, 1)) == 61
    assert all(type(c) is int for c in (*form.n, form.b))


def test_supporting_form_volume_two_simplex():
    # a custom lift on a normalized-volume-2 simplex: the form is not integral
    vs = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert lattice.normalized_volume(vs) == 2
    half = Fraction(1, 2)
    lift = {(0, 0, 0): 0, (1, 1, 0): 1, (1, 0, 1): 0, (0, 1, 1): 0}
    for order in (vs, vs[::-1]):
        form = supporting_form(order, lift)
        assert form == AffineForm((half, half, -half), 0)
        assert all(isinstance(c, Fraction) for c in form.n)
        assert all(form(v) == lift[v] for v in vs)


def test_supporting_form_degenerate():
    with pytest.raises(DegeneracyError):
        supporting_form([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_check_supporting_examples():
    cell = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    form = AffineForm((8, 8, 13), 0)
    assert form((1, 1, 0)) == 16  # 16 < v = 24
    v = check_supporting(form, cell, 1, points=[(1, 1, 0), (0, 0, -1)])
    assert v.ok and not v.violations
    assert form((0, 0, -1)) == -13  # -13 < v = 13
    bad = AffineForm((9, 8, 13), 0)
    v = check_supporting(bad, cell, 1)
    assert not v.ok
    assert any(p == (1, 0, 0) for p, _, _ in v.violations)


def test_verify_tables_full_match():
    report = verify_tables()
    assert report.ok
    assert report.entries_total == 96
    assert report.entries_matched == 96
    assert report.forms_ok and report.lift_ok
    assert report.mismatches == []
    assert "96/96" in report.summary()


def test_reference_table_spot_entries():
    # frozen spot checks of the embedded fixture grids
    row0 = subdivision.REFERENCE_CUBE_VALUES[0]
    assert row0[subdivision.CUBE_POINTS.index((1, 1, 1))] == 29
    row5 = subdivision.REFERENCE_NEARBY_VALUES[5]
    assert row5[subdivision.NEARBY_POINTS.index((0, 0, -1))] == -69


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_subdivide_counts(sub_factory, d):
    sub = sub_factory(d)
    assert len(sub.cells) == d**3
    assert all(lattice.normalized_volume(c.vertices) == 1 for c in sub.cells)
    total = sum(lattice.normalized_volume(c.vertices) for c in sub.cells)
    assert total == d**3


def test_subdivide_d1_single_cell(sub_factory):
    sub = sub_factory(1)
    assert len(sub.cells) == 1
    assert sub.cells[0].vertices == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_face_sharing(sub_factory):
    for d in (2, 5):
        sub = sub_factory(d)
        for tri, ids in sub.faces.items():
            if sub.boundary_face(tri):
                assert len(ids) == 1
            else:
                assert len(ids) == 2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hull_path_agrees_with_pattern(sub_factory, d):
    hull = subdivide(d, method="hull")
    pat = sub_factory(d)
    assert [c.vertices for c in hull.cells] == [c.vertices for c in pat.cells]
    both = subdivide(d, method="both")
    assert len(both.cells) == d**3


def test_translation_invariance(sub_factory):
    # every translate of a cell staying inside the simplex is again a cell
    for d in (3, 5):
        sub = sub_factory(d)
        cell_set = {c.vertices for c in sub.cells}
        shifts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (1, -1, 0), (0, 1, -1)]
        for vs in cell_set:
            for s in shifts:
                moved = tuple(
                    (v[0] + s[0], v[1] + s[1], v[2] + s[2]) for v in vs
                )
                if all(lattice.in_delta(v, d) for v in moved):
                    assert moved in cell_set


def test_restriction_compatibility(sub_factory):
    # cells inside (1,1,1)+D_{d-4} are exactly the shifted degree-(d-4) cells
    for d in (5, 6):
        sub = sub_factory(d)
        small = sub_factory(d - 4)
        inner = {
            c.vertices
            for c in sub.cells
            if all(lattice.is_interior(v, d) for v in c.vertices)
        }
        shifted = {
            tuple((v[0] + 1, v[1] + 1, v[2] + 1) for v in c.vertices)
            for c in small.cells
        }
        assert inner == shifted


def test_supporting_certification(sub_factory):
    sub = sub_factory(3)
    for cell in sub.cells:
        verdict = check_supporting(cell.support, cell.vertices, 3)
        assert verdict.ok


def test_custom_lift_degenerate_rejected():
    # squared-norm lift puts all 8 cube corners on one supporting plane
    with pytest.raises(DegeneracyError):
        subdivide(3, lift=lambda m: m[0] ** 2 + m[1] ** 2 + m[2] ** 2)
    # affine lift: lifted points lie in a hyperplane
    with pytest.raises(DegeneracyError):
        subdivide(2, lift=lambda m: m[0] + 2 * m[1])


def test_custom_lift_table_missing_point():
    with pytest.raises(DomainError):
        subdivide(2, lift={(0, 0, 0): 0})


def test_subdivide_domain_error():
    with pytest.raises(DomainError):
        subdivide(0)
    with pytest.raises(DomainError):
        subdivide(2, lift=lambda m: lift_value(m), method="pattern")


def test_subdivide_both_rejects_custom_lift():
    # "both" compares the pattern path with the hull path; a custom lift has
    # no pattern path, so there is nothing to compare against
    with pytest.raises(DomainError):
        subdivide(2, lift=lambda m: lift_value(m), method="both")


def test_json_export_roundtrip(sub_factory):
    sub = sub_factory(2)
    blob = subdivision.subdivision_to_dict(sub)
    assert blob["schema"] == 1
    assert blob["d"] == "2"
    assert blob["cell_count"] == "8"
    text = json.dumps(blob, sort_keys=True)
    back = json.loads(text)
    assert len(back["cells"]) == 8
    # integers serialized as decimal strings
    assert all(isinstance(x, str) for x in back["cells"][0]["vertices"][0])
    assert isinstance(back["cells"][0]["support"]["b"], str)


# --- folding certification ---------------------------------------------------


def _cells_and_faces(d, cell_list, lift):
    faces, _ = subdivision._census(d, cell_list)
    cells = [Cell(i, vs, supporting_form(vs, lift)) for i, vs in enumerate(cell_list)]
    return cells, faces


def _folding_verdict(cells, faces, lift):
    fn, _ = subdivision.resolve_lift(lift)
    try:
        subdivision._check_folding(cells, faces, fn)
    except (CertificationError, DegeneracyError) as exc:
        return type(exc)
    return None


def _sweep_verdict(cells, d, lift):
    # the global oracle: check_supporting of every cell over all of D_d(Z)
    verdicts = [check_supporting(c.support, c.vertices, d, lift) for c in cells]
    if any(v.violations for v in verdicts):
        return CertificationError
    if any(v.equality_points for v in verdicts):
        return DegeneracyError
    return None


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 4),
    scale=st.integers(0, 2),
    noise=st.lists(st.integers(-3, 3), min_size=35, max_size=35),
)
def test_folding_matches_sweep_random_lifts(d, scale, noise):
    # random integer lift tables: a multiple of the canonical lift plus noise
    pts = lattice.delta_points(d)
    table = {m: scale * lift_value(m) + e for m, e in zip(pts, noise)}
    # on the canonical triangulation, which the table may fold either way
    cells, faces = _cells_and_faces(d, subdivision._cells_by_pattern(d), table)
    assert _folding_verdict(cells, faces, table) == _sweep_verdict(cells, d, table)
    # on the cells of the table's own lower hull, when they triangulate
    try:
        hull = subdivision._cells_by_hull(d, table)
    except (CertificationError, DegeneracyError):
        return
    if len(hull) == d**3 and all(lattice.normalized_volume(c) == 1 for c in hull):
        cells, faces = _cells_and_faces(d, hull, table)
        assert _folding_verdict(cells, faces, table) is None
        assert _sweep_verdict(cells, d, table) is None


@pytest.mark.parametrize("d", range(1, 9))
def test_folding_matches_sweep_canonical(d):
    cells, faces = _cells_and_faces(d, subdivision._cells_by_pattern(d), None)
    assert _sweep_verdict(cells, d, None) is None
    assert _folding_verdict(cells, faces, None) is None


def test_folding_rejects_concave_lift(monkeypatch):
    concave = lambda m: -lift_value(m)  # noqa: E731
    cells, faces = _cells_and_faces(3, subdivision._cells_by_pattern(3), concave)
    assert _sweep_verdict(cells, 3, concave) is CertificationError
    assert _folding_verdict(cells, faces, concave) is CertificationError
    # end to end: the pattern path under a concave "canonical" lift
    monkeypatch.setattr(subdivision, "lift_value", concave)
    with pytest.raises(CertificationError, match="not strictly convex"):
        subdivide(3)


def test_folding_rejects_cospherical_lift(monkeypatch):
    # |m|^2 puts the 8 corners of every unit cube on one sphere: the folds
    # inside each cube are flat
    sphere = lambda m: m[0] ** 2 + m[1] ** 2 + m[2] ** 2  # noqa: E731
    cells, faces = _cells_and_faces(3, subdivision._cells_by_pattern(3), sphere)
    assert _sweep_verdict(cells, 3, sphere) is DegeneracyError
    assert _folding_verdict(cells, faces, sphere) is DegeneracyError
    monkeypatch.setattr(subdivision, "lift_value", sphere)
    with pytest.raises(DegeneracyError, match="not generic"):
        subdivide(3)


def test_folding_rejects_cells_on_one_side():
    # both cells of the face x+y+z=1 lie on its lower side
    tri = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    cell_list = [((0, 0, 0), *tri), tuple(sorted((*tri, (1, 1, -2))))]
    assert all(lattice.normalized_volume(c) == 1 for c in cell_list)
    cells = [Cell(i, vs, supporting_form(vs)) for i, vs in enumerate(cell_list)]
    with pytest.raises(CertificationError, match="same side"):
        subdivision._check_folding(cells, {tri: (0, 1)}, lift_value)


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_certification_makes_no_global_sweep(monkeypatch, d):
    # the pattern and auto paths certify in O(d^3), without check_supporting
    def sweep(*args, **kwargs):
        raise AssertionError("check_supporting called")

    monkeypatch.setattr(subdivision, "check_supporting", sweep)
    for method in ("auto", "pattern"):
        sub = subdivide(d, method=method)
        assert len(sub.cells) == d**3
