"""Patchworking polynomial, rescaled coordinates, and exact exponent identities.

The family f_t(w) = sum over lattice points m of t^(-v(m)) w^m is evaluated in
log coordinates w_i = exp(x_i log t + i theta_i) with the dominant term
factored out, so the scaled value is always bounded by the term count.

Every identity here is certified exactly over the integers: the rescaled
coordinate attached to a lattice point m is Z_m = t^(-v(m)) w^m, and any
monomial w^m expands over the 4 coordinates of a unimodular cell with integer
exponents.  Floats never enter the certification paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lattice
from .errors import CertificationError, DomainError, LemmaViolationError, NumericError
from .lattice import Point3
from .subdivision import LiftLike, RegularSubdivision, resolve_lift


@dataclass(frozen=True)
class PatchworkPolynomial:
    d: int
    terms: tuple[tuple[Point3, int], ...]  # (m, v(m)); coefficient is 1, sign encoded in theta

    def __len__(self) -> int:
        return len(self.terms)


def build_patchwork(d: int, lift: LiftLike = None) -> PatchworkPolynomial:
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    fn, _ = resolve_lift(lift)
    return PatchworkPolynomial(
        d, tuple((m, int(fn(m))) for m, _ in lattice.enumerate_delta(d))
    )


_EVAL_CHUNK_ELEMENTS = 2**13  # complex (point, term) elements held at once


def eval_patchwork_many(p: PatchworkPolynomial, t: float, x, theta, coeffs=None):
    """Scaled sums sum_m coeffs[m, k] Z_m at the rows of x and theta, and each L.

    Z_m = t^(<m,x> - v(m) - L) e^(i<m,theta>), with L the largest t-exponent
    <m,x> - v(m), so every |Z_m| <= 1; m runs over p.terms.  Without coeffs
    the one column is the scaled value f_t(w) t^(-L).  Rows go in chunks of a
    fixed element budget, so memory does not grow with their number.
    """
    if not t > 1.0:
        raise DomainError(f"t must exceed 1, got {t}")
    ms = np.array([m for m, _ in p.terms], dtype=float)
    vs = np.array([v for _, v in p.terms], dtype=float)
    c = np.ones((len(ms), 1)) if coeffs is None else np.asarray(coeffs, dtype=float)
    x, theta = (np.asarray(a, dtype=float).reshape(-1, 3) for a in (x, theta))
    vals, big = np.empty((len(x), c.shape[1]), dtype=complex), np.empty(len(x))
    step = max(1, _EVAL_CHUNK_ELEMENTS // len(ms))
    for i in range(0, len(x), step):
        exps = x[i : i + step] @ ms.T - vs
        big[i : i + step] = exps.max(axis=1)
        logz = (exps - big[i : i + step, None]) * math.log(t) + 1j * (theta[i : i + step] @ ms.T)
        vals[i : i + step] = np.exp(logz) @ c
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise NumericError(f"non-finite scaled value at x={tuple(x[bad][0].tolist())}, t={t}")
    return vals, big


def eval_patchwork(
    p: PatchworkPolynomial, t: float, x: Sequence[float], theta: Sequence[float]
) -> tuple[complex, float]:
    """Scaled value f_t(w) t^(-L) at one point, and L (see eval_patchwork_many)."""
    vals, big = eval_patchwork_many(p, t, x, theta)
    return complex(vals[0, 0]), float(big[0])


def _barycentric(vertices: Sequence[Point3], m: Point3) -> list:
    """a with sum 1 and sum a_i v_i = m: a_1..a_3 solve on the edge vectors v_i - v_0."""
    v0 = vertices[0]
    rows = [[v[k] - v0[k] for v in vertices[1:]] for k in range(3)]
    a = lattice.solve3(rows, [m[k] - v0[k] for k in range(3)])
    return [1 - sum(a)] + a


def _is_inner_cell(sub: RegularSubdivision, cell_id: int) -> bool:
    return all(lattice.is_interior(v, sub.d) for v in sub.cells[cell_id].vertices)


@dataclass(frozen=True)
class MonomialIdentity:
    cell_id: int
    vertices: tuple[Point3, Point3, Point3, Point3]
    m: Point3
    a: tuple[int, int, int, int]
    exponent: int
    verified: bool


def monomial_identity(
    sub: RegularSubdivision, cell_id: int, m: Point3
) -> MonomialIdentity:
    """Expand w^m over the rescaled coordinates of an inner cell.

    Returns integer exponents a with sum 1 and the t-power, certified by
    substituting the coordinate definitions back in and cancelling exactly.
    """
    if not _is_inner_cell(sub, cell_id):
        raise DomainError(f"cell {cell_id} is not contained in the interior polytope")
    m = tuple(int(c) for c in m)
    if not lattice.in_delta(m, sub.d):
        raise DomainError(f"{m} is not a lattice point of the degree-{sub.d} simplex")
    cell = sub.cells[cell_id]
    coeffs = _barycentric(cell.vertices, m)
    if any(c.denominator != 1 for c in coeffs):
        raise CertificationError(
            f"non-integer expansion {coeffs} for {m} over cell {cell_id}"
        )
    a = tuple(coeffs)
    exponent = int(cell.support(m))

    # substitution oracle, recomputed from the stored lift values:
    # t^exponent * prod_i (t^(-v(m_i)) w^(m_i))^(a_i) must equal w^m exactly
    v = sub.lift_values
    t_power = exponent - sum(ai * v[vi] for ai, vi in zip(a, cell.vertices))
    recombined = tuple(
        sum(ai * vi[k] for ai, vi in zip(a, cell.vertices)) for k in range(3)
    )
    verified = t_power == 0 and recombined == m and sum(a) == 1
    return MonomialIdentity(cell_id, cell.vertices, m, a, exponent, verified)


@dataclass(frozen=True)
class BoundaryRelation:
    rho: int
    rho_prime: int
    m0: Point3  # vertex of rho away from the shared face
    m4: Point3  # vertex of rho_prime away from the shared face
    shared: tuple[Point3, Point3, Point3]
    eps: tuple[int, int, int]  # aligned with `shared`
    exponent: int
    verified: bool


def boundary_relation(
    sub: RegularSubdivision, rho: int, rho_prime: int
) -> BoundaryRelation:
    """Exchange relation across a shared 2-face: w^(m0+m4) = w^(sum eps_i m_i).

    eps is forced by the lattice geometry; the claimed pattern (two entries 1,
    one entry 0) is checked, and deviation raises rather than being fixed up.
    """
    a = set(sub.cells[rho].vertices)
    b = set(sub.cells[rho_prime].vertices)
    shared = tuple(sorted(a & b))
    if len(shared) != 3:
        raise DomainError(
            f"cells {rho} and {rho_prime} do not share a 2-face"
        )
    (m0,) = a - b
    (m4,) = b - a
    target = tuple(m0[k] + m4[k] for k in range(3))
    rows = [[s[k] for s in shared] for k in range(3)]
    coeffs = lattice.solve3(rows, target)
    if any(c.denominator != 1 for c in coeffs):
        raise LemmaViolationError(
            f"non-integer exchange coefficients {coeffs} across cells {rho},{rho_prime}"
        )
    eps = tuple(coeffs)
    if sorted(eps) != [0, 1, 1]:
        raise LemmaViolationError(
            f"exchange pattern {eps} is not two ones and a zero"
        )
    exponent = int(sub.cells[rho].support(m4))

    # oracle: -v(m0) == exponent - sum eps_i v(shared_i), exactly
    v = sub.lift_values
    verified = -v[m0] == exponent - sum(e * v[s] for e, s in zip(eps, shared))
    return BoundaryRelation(rho, rho_prime, m0, m4, shared, eps, exponent, verified)


@dataclass(frozen=True)
class ResidualExponent:
    m: Point3
    exponent: int
    cell_id: int  # which cell's affine form produced the exponent
    a: tuple[int, int, int, int]


def _vertex_matrix_inverse(vertices: Sequence[Point3]) -> np.ndarray:
    """A^-1 for the 4x4 matrix A with columns (v_i, 1), as Python ints.

    A(a) = (sum a_i v_i, sum a_i), so A^-1 (m, 1) expands m over the cell.  A
    unimodular cell has det A = +-1 and A^-1 = det A * adj(A) is integral; the
    result is certified by A A^-1 = I in exact integers.
    """
    a = [[v[k] for v in vertices] for k in range(3)] + [[1, 1, 1, 1]]

    def cofactor(i: int, j: int) -> int:
        minor = [[r[c] for c in range(4) if c != j] for k, r in enumerate(a) if k != i]
        return (-1) ** (i + j) * lattice.det3(*minor)

    det = sum(a[0][j] * cofactor(0, j) for j in range(4))
    if det not in (1, -1):
        raise CertificationError(f"non-integer expansion over cell {tuple(vertices)}: det {det}")
    inv = np.array([[det * cofactor(j, i) for j in range(4)] for i in range(4)], dtype=object)
    if (np.array(a, dtype=object) @ inv != np.eye(4, dtype=int)).any():
        raise CertificationError(f"A A^-1 != I over cell {tuple(vertices)}")
    return inv


def _form_vector(sub: RegularSubdivision, cell_id: int) -> np.ndarray:
    """(n, b) of the cell's form, so rows (m, 1) times it give l(m)."""
    form = sub.cells[cell_id].support
    return np.array([*form.n, form.b], dtype=object)


def residual_exponents(
    sub: RegularSubdivision, cell_id: int, partner_ids: Sequence[int] = ()
) -> list[ResidualExponent]:
    """Exponent l(m') - v(m') for every lattice point m' on the simplex boundary.

    The form l comes from the base cell when possible; a partner cell is used
    when the base expansion puts a negative power on the coordinate opposite
    the shared face (the pole the exchange relation removes).  A partner that
    has m' among its own vertices is skipped: there the monomial is a leading
    term of that chart, not a residual, and the base form already certifies
    decay.  Preference order: base cell first, then partners by ascending id.
    Every exponent must come out strictly negative; anything else raises.

    All points go through one integer matrix product per cell (see
    _vertex_matrix_inverse); the partner choice is a mask on the base
    coefficients.
    """
    if sub.d < 5:
        raise DomainError(f"need degree >= 5, got {sub.d}")
    if not _is_inner_cell(sub, cell_id):
        raise DomainError(f"cell {cell_id} is not contained in the interior polytope")
    base = sub.cells[cell_id]
    base_vs = set(base.vertices)
    partners = []
    for pid in sorted(int(p) for p in partner_ids):
        shared = base_vs & set(sub.cells[pid].vertices)
        if len(shared) != 3:
            raise DomainError(f"partner {pid} does not share a 2-face with {cell_id}")
        (off_vertex,) = base_vs - shared
        partners.append((pid, base.vertices.index(off_vertex)))

    ms = [m for m, interior in lattice.enumerate_delta(sub.d) if not interior]
    mh = np.array([(*m, 1) for m in ms], dtype=object)  # rows (m, 1)
    base_a = mh @ _vertex_matrix_inverse(base.vertices).T
    chosen = np.full(len(ms), cell_id)
    coeffs = base_a.copy()
    exponents = mh @ _form_vector(sub, cell_id)
    for pid, off_idx in partners:
        own = np.array([m in sub.cells[pid].vertices for m in ms], dtype=bool)
        switch = (chosen == cell_id) & (base_a[:, off_idx] < 0) & ~own
        if switch.any():
            chosen[switch] = pid
            coeffs[switch] = mh[switch] @ _vertex_matrix_inverse(sub.cells[pid].vertices).T
            exponents[switch] = mh[switch] @ _form_vector(sub, pid)
    exponents = exponents - np.array([sub.lift_values[m] for m in ms], dtype=object)
    bad = np.flatnonzero(exponents >= 0)
    if len(bad):
        raise LemmaViolationError(
            f"residual exponent {exponents[bad[0]]} >= 0 at boundary point {ms[bad[0]]}"
        )
    return [
        ResidualExponent(m, e, c, tuple(a))
        for m, e, c, a in zip(ms, exponents.tolist(), chosen.tolist(), coeffs.tolist())
    ]


def identity_certificate(sub: RegularSubdivision, cell_id: int) -> dict:
    """JSON-ready sweep of the monomial identity over every lattice point.

    One integer matrix product expands every m over the cell at once,
    a = A^-1 (m, 1) (see _vertex_matrix_inverse), with t-exponent <n, m> + b.
    Each entry is verified as monomial_identity verifies one point: sum a = 1,
    sum a_i v_i = m, and t-power exponent - sum a_i v(v_i) = 0.
    """
    if not _is_inner_cell(sub, cell_id):
        raise DomainError(f"cell {cell_id} is not contained in the interior polytope")
    vertices = sub.cells[cell_id].vertices
    ms = lattice.delta_points(sub.d)
    mh = np.array([(*m, 1) for m in ms], dtype=object)  # rows (m, 1)
    a = mh @ _vertex_matrix_inverse(vertices).T
    exponents = mh @ _form_vector(sub, cell_id)
    v = sub.lift_values
    t_power = exponents - a @ np.array([v[vi] for vi in vertices], dtype=object)
    recombined = a @ np.array(vertices, dtype=object)
    verified = (a.sum(axis=1) == 1) & (recombined == mh[:, :3]).all(axis=1) & (t_power == 0)
    entries = [
        {
            "m": [str(c) for c in m],
            "a": [str(c) for c in row],
            "exponent": str(e),
            "verified": ok,
        }
        for m, row, e, ok in zip(ms, a.tolist(), exponents.tolist(), verified.tolist())
    ]
    return {
        "schema": 1,
        "d": str(sub.d),
        "cell": str(cell_id),
        "cell_vertices": [[str(c) for c in v] for v in vertices],
        "entries": entries,
    }
