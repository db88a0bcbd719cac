"""Cell classification, 64-cell blocks, boundary graph, component model."""

import pytest

from tropical_pants import lattice
from tropical_pants.errors import DomainError, LemmaViolationError
from tropical_pants.pants import (
    build_pants_graph,
    build_x0,
    classify_cells,
    graph_to_dot,
    k3_blocks,
    pants_report,
)
from tropical_pants.subdivision import RegularSubdivision


@pytest.fixture(scope="module")
def sub5(sub_factory):
    return sub_factory(5)


@pytest.fixture(scope="module")
def cls5(sub5):
    return classify_cells(sub5)


def test_small_degree_rejected(sub_factory):
    with pytest.raises(DomainError):
        classify_cells(sub_factory(4))


def test_d5_counts(cls5):
    assert len(cls5.interior_ids) == 1
    assert len(cls5.flap_ids) == 4
    assert cls5.pants_count == 5
    assert len(cls5.other_ids) == 125 - 5


def test_d5_inner_cell_is_the_interior_tetrahedron(sub5, cls5):
    (cid,) = cls5.interior_ids
    assert sub5.cells[cid].vertices == (
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    )


def test_flap_has_three_vertices_inside(sub5, cls5):
    # flap = one triangle on the interior boundary plus one vertex outside
    for cid in cls5.flap_ids:
        vs = sub5.cells[cid].vertices
        inside = [v for v in vs if lattice.is_interior(v, 5)]
        assert len(inside) == 3
        assert set(inside) == set(cls5.flap_faces[cid])


@pytest.mark.parametrize("d", [5, 6, 7])
def test_count_formula(sub_factory, d):
    cls = classify_cells(sub_factory(d))
    k = d - 4
    assert len(cls.interior_ids) == k**3
    assert len(cls.flap_ids) == 4 * k**2
    assert cls.pants_count == d * k**2


@pytest.mark.parametrize("d", [5, 6, 7])
def test_pants_cells_avoid_outer_boundary(sub_factory, d):
    # at most one vertex of any pants cell may sit on the simplex boundary
    sub = sub_factory(d)
    cls = classify_cells(sub)
    for cid in cls.pants_ids:
        on_boundary = sum(
            1
            for v in sub.cells[cid].vertices
            if lattice.facets_containing(v, d)
        )
        assert on_boundary <= 1


@pytest.mark.parametrize("d", [5, 6, 7])
def test_blocks_cover_and_translate(sub_factory, d):
    sub = sub_factory(d)
    blocks, verdict = k3_blocks(sub)
    assert len(blocks) == lattice.interior_lattice_count(d)
    assert all(len(b.cell_ids) == 64 for b in blocks)
    assert verdict.ok


def _blocks_by_scan(sub):
    """Oracle: per interior point, every cell inside its translated degree-4 simplex."""
    out = []
    for m in lattice.interior_points(sub.d):
        base = (m[0] - 1, m[1] - 1, m[2] - 1)
        ids = [
            c.id
            for c in sub.cells
            if all(
                lattice.in_delta((v[0] - base[0], v[1] - base[1], v[2] - base[2]), 4)
                for v in c.vertices
            )
        ]
        out.append((m, tuple(ids)))
    return out


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_blocks_lookup_matches_scan(sub_factory, d):
    sub = sub_factory(d)
    blocks, _ = k3_blocks(sub)
    assert [(b.m, b.cell_ids) for b in blocks] == _blocks_by_scan(sub)


def test_blocks_missing_cell_raises(sub5, cls5, monkeypatch):
    index = sub5.cell_index()
    gone = sub5.cells[cls5.other_ids[0]].vertices
    del index[gone]
    monkeypatch.setattr(RegularSubdivision, "cell_index", lambda self: index)
    with pytest.raises(LemmaViolationError, match="lacks the translated cell"):
        k3_blocks(sub5, cls5)


def test_blocks_d5_union_is_everything(sub5, cls5):
    blocks, _ = k3_blocks(sub5, cls5)
    covered = set()
    for b in blocks:
        covered.update(b.cell_ids)
    # every cell of the d=5 subdivision lies in some block
    assert covered == set(range(125))


def test_graph_d5(sub5, cls5):
    g = build_pants_graph(cls5, sub5)
    assert g.n_vertices == 16
    assert len(g.edges) == 30
    assert g.degree_multiset() == {6: 4, 3: 12}
    assert g.n_components == 1
    assert g.glued_count == 4
    assert g.n_vertices == 4 * cls5.pants_count - g.glued_count


@pytest.mark.parametrize("d", [5, 6, 7])
def test_graph_edge_count(sub_factory, d):
    sub = sub_factory(d)
    cls = classify_cells(sub)
    g = build_pants_graph(cls, sub)
    assert len(g.edges) == 6 * d * (d - 4) ** 2
    assert sum(g.degrees) == 2 * len(g.edges)
    assert g.n_vertices == 4 * cls.pants_count - g.glued_count
    assert set(g.degrees) <= {3, 6}


def test_x0_d5(sub5, cls5):
    model = build_x0(cls5, sub5)
    assert len(model.components) == 5
    kinds = sorted(c.kind for c in model.components)
    assert kinds == ["boundary_face"] * 4 + ["inner_cell"]
    inner = next(c for c in model.components if c.kind == "inner_cell")
    assert set(inner.labels) == {
        "Z[1,1,1]",
        "Z[1,1,2]",
        "Z[1,2,1]",
        "Z[2,1,1]",
    }
    assert inner.relation.endswith("= 0")
    for comp in model.components:
        assert len(set(comp.lines)) == 4
        assert len(set(comp.labels)) == 4


def test_x0_boundary_component_uses_opposite_vertex(sub5, cls5):
    model = build_x0(cls5, sub5)
    for comp in model.components:
        if comp.kind != "boundary_face":
            continue
        tri = cls5.flap_faces[comp.cell_id]
        tri_labels = {f"Z[{v[0]},{v[1]},{v[2]}]" for v in tri}
        assert set(comp.labels[:3]) == tri_labels
        # fourth label comes from the inner cell, not from the flap itself
        assert comp.labels[3] == "Z[1,1,1]" or comp.labels[3].startswith("Z[")
        assert comp.labels[3] not in tri_labels


def test_report_and_dot(sub5):
    rep = pants_report(sub5)
    assert rep["schema"] == 1
    assert rep["t_o"]["count"] == "5"
    assert rep["k3_cover_identity"] == "pass"
    assert rep["graph_B"]["vertices"] == "16"
    assert rep["graph_B"]["edges"] == "30"
    cls = classify_cells(sub5)
    dot = graph_to_dot(build_pants_graph(cls, sub5))
    assert dot.count(" -- ") == 30
    assert dot.startswith("graph pants_base {")
