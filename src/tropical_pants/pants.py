"""Classification of subdivision cells into pants cells and K3 blocks.

For d >= 5 the cells whose closure meets the interior polytope D_d^o fall in
two classes: cells contained in D_d^o ("inner", count (d-4)^3) and cells
sharing exactly one 2-face with the boundary of D_d^o ("flap", count
4(d-4)^2).  Together they form the pants family of size d(d-4)^2.  Every
remaining cell lies in one of the 64-cell blocks attached to an interior
lattice point; translating a block back to the degree-4 simplex recovers its
subdivision exactly, which is verified here as a set identity.

The boundary graph glues one complete graph on 4 slots per pants cell,
identifying slots across shared 2-faces; it is kept as a multigraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lattice
from .errors import DomainError, LemmaViolationError
from .lattice import Point3, Simplex3
from .subdivision import RegularSubdivision, Triangle, subdivide


def _interior_facets(m: Point3, d: int) -> frozenset[int]:
    """Facets of the interior polytope (1,1,1)+D_{d-4} containing m."""
    out = {i for i in range(3) if m[i] == 1}
    if sum(m) == d - 1:
        out.add(3)
    return frozenset(out)


def _on_interior_boundary(tri: Triangle, d: int) -> bool:
    common: frozenset[int] | None = None
    for p in tri:
        if not lattice.is_interior(p, d):
            return False
        f = _interior_facets(p, d)
        common = f if common is None else (common & f)
        if not common:
            return False
    return bool(common)


@dataclass
class CellClassification:
    d: int
    interior_ids: tuple[int, ...]
    flap_ids: tuple[int, ...]
    other_ids: tuple[int, ...]
    flap_faces: dict[int, Triangle] = field(repr=False)  # flap cell -> its face in dD^o

    @property
    def pants_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.interior_ids + self.flap_ids))

    @property
    def pants_count(self) -> int:
        return len(self.interior_ids) + len(self.flap_ids)


def classify_cells(sub: RegularSubdivision) -> CellClassification:
    """Split cells into inner / flap / other; enforces the count identities."""
    d = sub.d
    if d < 5:
        raise DomainError(f"classification needs d >= 5, got {d}")

    interior = [
        c.id
        for c in sub.cells
        if all(lattice.is_interior(v, d) for v in c.vertices)
    ]
    interior_set = set(interior)

    flap_faces: dict[int, list[Triangle]] = {}
    for tri, ids in sub.faces.items():
        if not _on_interior_boundary(tri, d):
            continue
        if len(ids) != 2:
            raise LemmaViolationError(
                f"face {tri} lies on the interior-polytope boundary but has {len(ids)} cells"
            )
        inner = [i for i in ids if i in interior_set]
        outer = [i for i in ids if i not in interior_set]
        if len(inner) != 1 or len(outer) != 1:
            raise LemmaViolationError(
                f"face {tri} does not separate an inner cell from an outer cell: {ids}"
            )
        flap_faces.setdefault(outer[0], []).append(tri)

    for cid, tris in flap_faces.items():
        if len(tris) != 1:
            raise LemmaViolationError(
                f"cell {cid} shares {len(tris)} faces with the interior boundary"
            )
    flaps = sorted(flap_faces)
    others = sorted(set(range(len(sub.cells))) - interior_set - set(flaps))

    k = d - 4
    if len(interior) != k**3:
        raise LemmaViolationError(f"{len(interior)} inner cells, expected {k**3}")
    if len(flaps) != 4 * k**2:
        raise LemmaViolationError(f"{len(flaps)} flap cells, expected {4 * k**2}")
    return CellClassification(
        d,
        tuple(sorted(interior)),
        tuple(flaps),
        tuple(others),
        {cid: tris[0] for cid, tris in flap_faces.items()},
    )


@dataclass(frozen=True)
class K3Block:
    m: Point3
    cell_ids: tuple[int, ...]


@dataclass
class BlockVerdict:
    ok: bool
    missing: tuple[Simplex3, ...]
    extra: tuple[Simplex3, ...]


def k3_blocks(
    sub: RegularSubdivision, cls: CellClassification | None = None
) -> tuple[list[K3Block], BlockVerdict]:
    """Per interior lattice point, the cells inside its translated degree-4 simplex.

    The 64 cells of the degree-4 subdivision, translated to the block, are
    looked up in the cell index; a missing one raises.  The window has volume
    64, so 64 unimodular cells inside it leave room for no other cell.  Also
    certifies the covering identity: translating every non-pants member of
    every block back to the origin reproduces the degree-4 subdivision.
    """
    d = sub.d
    if d < 5:
        raise DomainError(f"blocks need d >= 5, got {d}")
    if cls is None:
        cls = classify_cells(sub)
    pants = set(cls.pants_ids)

    # a translate keeps the lexicographic vertex order, so it is already a key
    reference = {c.vertices for c in subdivide(4).cells}
    index = sub.cell_index()
    blocks: list[K3Block] = []
    for m in lattice.interior_points(d):
        ids = []
        for vs in reference:
            key = tuple((v[0] + m[0] - 1, v[1] + m[1] - 1, v[2] + m[2] - 1) for v in vs)
            if key not in index:
                raise LemmaViolationError(f"block at {m} lacks the translated cell {key}")
            ids.append(index[key])
        blocks.append(K3Block(m, tuple(sorted(ids))))

    union: set[Simplex3] = set()
    for blk in blocks:
        base = (blk.m[0] - 1, blk.m[1] - 1, blk.m[2] - 1)
        for cid in blk.cell_ids:
            if cid in pants:
                continue
            vs = sub.cells[cid].vertices
            union.add(
                tuple((v[0] - base[0], v[1] - base[1], v[2] - base[2]) for v in vs)
            )
    missing = tuple(sorted(reference - union))
    extra = tuple(sorted(union - reference))
    verdict = BlockVerdict(not missing and not extra, missing, extra)
    if not verdict.ok:
        raise LemmaViolationError(
            f"block covering identity fails: {len(missing)} missing, {len(extra)} extra"
        )
    return blocks, verdict


@dataclass
class PantsGraph:
    """Multigraph glued from one K4 per pants cell."""

    vertex_slots: list[tuple[tuple[int, int], ...]]  # per vertex, its (cell, face#) slots
    edges: list[tuple[int, int]]
    degrees: list[int]
    n_components: int
    glued_count: int

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_slots)

    def degree_multiset(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for deg in self.degrees:
            out[deg] = out.get(deg, 0) + 1
        return out


def build_pants_graph(cls: CellClassification, sub: RegularSubdivision) -> PantsGraph:
    pants = list(cls.pants_ids)
    pants_set = set(pants)

    # slots: (cell id, local face index); local faces ordered by vertex triple
    slot_list: list[tuple[int, int]] = []
    cell_faces: dict[int, list[Triangle]] = {}
    for cid in pants:
        vs = sub.cells[cid].vertices
        tris = sorted(
            tuple(v for i, v in enumerate(vs) if i != skip) for skip in range(4)
        )
        cell_faces[cid] = tris
        for k in range(4):
            slot_list.append((cid, k))
    slot_index = {s: i for i, s in enumerate(slot_list)}

    parent = list(range(len(slot_list)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> bool:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        if rj < ri:
            ri, rj = rj, ri
        parent[rj] = ri
        return True

    glued = 0
    for tri, ids in sorted(sub.faces.items()):
        if len(ids) == 2 and ids[0] in pants_set and ids[1] in pants_set:
            a = slot_index[(ids[0], cell_faces[ids[0]].index(tri))]
            b = slot_index[(ids[1], cell_faces[ids[1]].index(tri))]
            if union(a, b):
                glued += 1

    reps = sorted({find(i) for i in range(len(slot_list))})
    rep_to_vertex = {r: k for k, r in enumerate(reps)}
    vertex_slots: list[list[tuple[int, int]]] = [[] for _ in reps]
    for i, s in enumerate(slot_list):
        vertex_slots[rep_to_vertex[find(i)]].append(s)

    edges: list[tuple[int, int]] = []
    for cid in pants:
        vids = [rep_to_vertex[find(slot_index[(cid, k)])] for k in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                e = (min(vids[i], vids[j]), max(vids[i], vids[j]))
                edges.append(e)
    edges.sort()

    degrees = [0] * len(reps)
    comp_parent = list(range(len(reps)))

    def cfind(i: int) -> int:
        while comp_parent[i] != i:
            comp_parent[i] = comp_parent[comp_parent[i]]
            i = comp_parent[i]
        return i

    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
        ru, rv = cfind(u), cfind(v)
        if ru != rv:
            comp_parent[max(ru, rv)] = min(ru, rv)
    n_components = len({cfind(i) for i in range(len(reps))})

    return PantsGraph(
        [tuple(s) for s in vertex_slots], edges, degrees, n_components, glued
    )


def _label(m: Point3) -> str:
    return f"Z[{m[0]},{m[1]},{m[2]}]"


@dataclass
class X0Component:
    kind: str  # "inner_cell" | "boundary_face"
    cell_id: int
    labels: tuple[str, str, str, str]
    relation: str
    lines: tuple[str, str, str, str]


@dataclass
class X0Model:
    d: int
    components: list[X0Component]


def build_x0(cls: CellClassification, sub: RegularSubdivision) -> X0Model:
    """Symbolic component model of the degenerate limit: one component per pants cell.

    Inner cells give a plane inside projective 3-space cut by its 4 coordinate
    hyperplanes; boundary faces of the interior polytope give a projective
    plane with 3 coordinate lines plus the restricted sum line.  Each record
    carries exactly 4 distinct lines, the pair-of-pants certificate.
    """
    comps: list[X0Component] = []
    for cid in cls.interior_ids:
        vs = sub.cells[cid].vertices
        labels = tuple(_label(v) for v in vs)
        comps.append(
            X0Component(
                "inner_cell",
                cid,
                labels,  # type: ignore[arg-type]
                " + ".join(labels) + " = 0",
                tuple(f"{l} = 0" for l in labels),  # type: ignore[arg-type]
            )
        )
    interior_set = set(cls.interior_ids)
    for cid in cls.flap_ids:
        tri = cls.flap_faces[cid]
        inner_id = next(i for i in sub.faces[tri] if i in interior_set)
        opposite = next(v for v in sub.cells[inner_id].vertices if v not in tri)
        labels = tuple(_label(v) for v in tri) + (_label(opposite),)
        sum_line = " + ".join(labels) + " = 0 (restricted)"
        comps.append(
            X0Component(
                "boundary_face",
                cid,
                labels,  # type: ignore[arg-type]
                f"plane on {labels[0]}, {labels[1]}, {labels[2]}",
                tuple(f"{l} = 0" for l in labels[:3]) + (sum_line,),  # type: ignore[arg-type]
            )
        )
    k = cls.d - 4
    if len(comps) != cls.d * k * k:
        raise LemmaViolationError(
            f"{len(comps)} components, expected {cls.d * k * k}"
        )
    return X0Model(cls.d, comps)


def pants_report(sub: RegularSubdivision) -> dict:
    """JSON-ready report for the CLI."""
    cls = classify_cells(sub)
    blocks, verdict = k3_blocks(sub, cls)
    graph = build_pants_graph(cls, sub)
    x0 = build_x0(cls, sub)
    return {
        "schema": 1,
        "d": str(sub.d),
        "t_o": {
            "count": str(cls.pants_count),
            "interior": str(len(cls.interior_ids)),
            "flap": str(len(cls.flap_ids)),
            "cell_ids": [str(i) for i in cls.pants_ids],
        },
        "k3_blocks": [
            {"m": [str(c) for c in b.m], "size": str(len(b.cell_ids))} for b in blocks
        ],
        "k3_cover_identity": "pass" if verdict.ok else "fail",
        "graph_B": {
            "vertices": str(graph.n_vertices),
            "edges": str(len(graph.edges)),
            "degrees": {str(k): str(v) for k, v in sorted(graph.degree_multiset().items())},
            "components": str(graph.n_components),
        },
        "x0": {
            "components": str(len(x0.components)),
            "kinds": {
                "inner_cell": str(sum(1 for c in x0.components if c.kind == "inner_cell")),
                "boundary_face": str(
                    sum(1 for c in x0.components if c.kind == "boundary_face")
                ),
            },
        },
    }


def graph_to_dot(graph: PantsGraph) -> str:
    lines = ["graph pants_base {"]
    for i, slots in enumerate(graph.vertex_slots):
        label = "+".join(f"c{c}f{k}" for c, k in slots)
        lines.append(f'  v{i} [label="{label}"];')
    for u, v in graph.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
