"""Amoeba sampling, limit-fiber residuals, and torus period estimates.

Everything runs in log coordinates: a torus point is (x, theta) with
w_i = t^(x_i) e^(i theta_i).  Exponents of t are never turned into bare
floats; each polynomial solve rescales its coefficients by the dominant
t-power first (the coefficients span hundreds of orders of magnitude at
t = e^16, so this is not optional).

The three numerical checks of the tropical limit (amoeba samples, limit
fibers, periods) share one pipeline, _grid_roots: the grid is solved along
the free axis in blocks of _GRID_BLOCK points (companion-matrix roots, see
_AxisSolver), and every root's scaled residual is summed through the axis
groups the solver has already evaluated at its grid point, so memory is
O(_GRID_BLOCK x |D_d|) whatever the grid size.
"""

from __future__ import annotations

import cmath
import contextlib
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .errors import (
    BranchError,
    CoverageError,
    DegeneracyError,
    DomainError,
    NumericError,
)
from .lattice import Point3, solve3
from .patchwork import PatchworkPolynomial, build_patchwork, eval_patchwork_many
from .subdivision import RegularSubdivision, lift_value
from .tropical import TropicalComplex, distance_many

LOG = logging.getLogger(__name__)

ROOT_TOLERANCE = 1e-12
# grid points per batched solve; bounds every per-block array of _grid_roots
_GRID_BLOCK = 64


def log_t(w: Sequence[complex], t: float) -> tuple[float, float, float]:
    """Coordinatewise log-modulus over log t."""
    if not t > 1.0:
        raise DomainError(f"t must exceed 1, got {t}")
    if any(c == 0 for c in w):
        raise DomainError(f"log map undefined on zero coordinate: {tuple(w)}")
    lt = math.log(t)
    return tuple(math.log(abs(c)) / lt for c in w)


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Roots of each row's polynomial sum_j c[:, j] z^j (leading term nonzero).

    One batched eigenvalue call on the companion matrices; when LAPACK
    rejects the stack, each matrix it rejects alone gets NaN roots.
    """
    n = c.shape[1] - 1
    comp = np.tile(np.eye(n, k=-1, dtype=complex), (len(c), 1, 1))
    comp[:, 0, :] = -c[:, -2::-1] / c[:, -1:]
    try:
        return np.linalg.eigvals(comp)
    except np.linalg.LinAlgError:
        z = np.full((len(c), n), np.nan, dtype=complex)
        for i, one in enumerate(comp):
            with contextlib.suppress(np.linalg.LinAlgError):
                z[i] = np.linalg.eigvals(one)
        return z


def _newton(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """At most 40 Newton steps from every z[r, :] on row r's polynomial c[r].

    A root stops after a step below ROOT_TOLERANCE (relative) or at a zero
    derivative; one that never settles is returned as it stands.
    """
    active = np.isfinite(z)
    for _ in range(40):
        if not active.any():
            break
        p, dp = np.zeros_like(z), np.zeros_like(z)
        for j in range(c.shape[1] - 1, -1, -1):  # Horner for p and p'
            p, dp = p * z + c[:, j : j + 1], dp * z + p
        active &= dp != 0
        step = np.zeros_like(z)
        step[active] = p[active] / dp[active]
        z = z - step
        active &= np.abs(step) > ROOT_TOLERANCE * (1.0 + np.abs(z))
    return z


class _AxisSolver:
    """Solves f_t = 0 along one coordinate with the other two fixed.

    Terms are grouped by their exponent k on the solve axis.  At each point
    a group collapses to an amplitude a_k times t^(g_k), g_k its largest
    t-exponent, all from one batched evaluation per group.  Root magnitudes
    sit on the upper hull of (k, g_k + log|a_k| / log t); points are grouped
    by hull.  Each hull segment, rescaled to O(1) coefficients, is solved for
    the whole group from its companion-matrix eigenvalues (backward stable:
    Edelman and Murakami, Math. Comp. 64, 1995); batched Newton on the full
    rescaled polynomial then polishes every root.  The same group
    evaluations, with the caller's coefficient columns, give every root's
    scaled sums (see _grid_roots).  Memory is O(points x terms), which
    _grid_roots bounds by solving fixed-size blocks.
    """

    def __init__(self, p: PatchworkPolynomial, t: float, axis: int):
        if axis not in (0, 1, 2):
            raise DomainError(f"axis must be 0, 1 or 2, got {axis}")
        if not t > 1.0:
            raise DomainError(f"t must exceed 1, got {t}")
        self.p = p
        self.axis = axis
        self.t = t
        self.logt = math.log(t)
        self.others = [i for i in range(3) if i != axis]
        # group k: the terms with solve-axis exponent k, that exponent zeroed
        flat = [(tuple(c * (i != axis) for i, c in enumerate(m)), v, m[axis]) for m, v in p.terms]
        self.groups = [
            PatchworkPolynomial(p.d, tuple((m, v) for m, v, mk in flat if mk == k))
            for k in range(p.d + 1)
        ]
        self._members = [[i for i, f in enumerate(flat) if f[2] == k] for k in range(p.d + 1)]

    def columns(self, coeffs=None) -> list[np.ndarray]:
        """Per group: a ones column, then the rows of coeffs for its terms.

        coeffs has one row per term of p (in p.terms order), as for
        eval_patchwork_many.
        """
        extra = np.zeros((len(self.p), 0)) if coeffs is None else np.asarray(coeffs, dtype=float)
        return [np.column_stack([np.ones(len(rows)), extra[rows]]) for rows in self._members]

    def roots(self, xf: np.ndarray, tf: np.ndarray, group_cols=None):
        """Roots at the N points of (N, 2) fixed coordinates and angles.

        Returns flat point, x_axis and theta_axis arrays ordered by point, a
        per-point failed mask, and per root the scaled sums of group_cols
        (from columns(); its ones only by default), so sums[:, 0] is
        f_t t^(-L) there.  A point fails, with no roots, when one of its
        companion matrices has a non-finite eigenvalue.  Zero and non-finite
        roots are dropped, and so is one within 1e-8 (in x log t and theta) of
        an earlier root, which neighbouring segments can both converge to.
        """
        n_pts, d, logt = len(xf), self.p.d, self.logt
        group_cols = self.columns() if group_cols is None else group_cols
        x, theta = np.zeros((n_pts, 3)), np.zeros((n_pts, 3))
        x[:, self.others], theta[:, self.others] = xf, tf
        group_sums = np.empty((n_pts, d + 1, group_cols[0].shape[1]), dtype=complex)
        g = np.empty((n_pts, d + 1))
        for k, group in enumerate(self.groups):
            group_sums[:, k], g[:, k] = eval_patchwork_many(group, self.t, x, theta, group_cols[k])
        amp = group_sums[:, :, 0]
        with np.errstate(divide="ignore"):  # a_k == 0 gives -inf and drops out
            h = g + np.log(np.abs(amp)) / logt

        by_hull: dict[tuple[int, ...], list[int]] = {}
        for i, row in enumerate(h.tolist()):
            ks = [k for k in range(d + 1) if row[k] > -math.inf]
            if len(ks) >= 2:
                hull = tuple(k for k, _ in _upper_hull(ks, [row[k] for k in ks]))
                by_hull.setdefault(hull, []).append(i)

        xs, ths = np.zeros((n_pts, d)), np.zeros((n_pts, d))
        keep, failed = np.zeros((n_pts, d), dtype=bool), np.zeros(n_pts, dtype=bool)
        for hull, rows in by_hull.items():
            hg = h[rows]
            for k1, k2 in zip(hull, hull[1:]):
                xi = (hg[:, k1] - hg[:, k2]) / (k2 - k1)
                gamma = hg[:, k1] + k1 * xi
                # magnitude t^(h_k + k xi - gamma) <= 1, exactly 1 at k1 and k2
                e = (hg + np.arange(d + 1) * xi[:, None] - gamma[:, None]) * logt
                scaled = np.exp(e + 1j * np.angle(amp[rows]))
                z = _companion_roots(scaled[:, k1 : k2 + 1])
                failed[np.array(rows)[~np.isfinite(z).all(axis=1)]] = True
                z = _newton(scaled, z)
                cols = np.ix_(rows, range(k1 - hull[0], k2 - hull[0]))
                with np.errstate(divide="ignore", invalid="ignore"):
                    xs[cols] = xi[:, None] + np.log(np.abs(z)) / logt
                ths[cols], keep[cols] = np.angle(z), np.isfinite(z) & (z != 0)
        keep[failed] = False
        for j in range(1, d):  # neighbouring segments can converge to one root
            gap = np.mod(ths[:, :j] - ths[:, j : j + 1], 2 * math.pi)
            near = np.abs(xs[:, :j] - xs[:, j : j + 1]) * logt < 1e-8
            near &= np.minimum(gap, 2 * math.pi - gap) < 1e-8
            keep[:, j] &= ~(near & keep[:, :j]).any(axis=1)
        point, slot = np.nonzero(keep)
        x_axis, theta_axis = xs[point, slot], ths[point, slot]
        # the group exponents g_k + k x_axis, whose largest is the root's L
        e = g[point] + np.arange(d + 1) * x_axis[:, None]
        e -= e.max(axis=1, keepdims=True)
        scale = np.exp(e * logt + 1j * np.arange(d + 1) * theta_axis[:, None])
        sums = np.einsum("rk,rkc->rc", scale, group_sums[point])
        bad = ~np.isfinite(sums).all(axis=1)
        if bad.any():
            at = x[point[bad][0]].tolist()
            at[self.axis] = float(x_axis[bad][0])
            raise NumericError(f"non-finite scaled value at x={tuple(at)}, t={self.t}")
        return point, x_axis, theta_axis, failed, sums


def _upper_hull(ks: list[int], hs: list[float]) -> list[tuple[int, float]]:
    """Upper convex hull of (k, h) points, left to right."""
    pts = sorted(zip(ks, hs))
    hull: list[tuple[int, float]] = []
    for k, h in pts:
        while len(hull) >= 2:
            (k1, h1), (k2, h2) = hull[-2], hull[-1]
            if (h2 - h1) * (k - k1) <= (h - h1) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append((k, h))
    return hull


@dataclass(frozen=True)
class AmoebaGrid:
    """Sampling window: two coordinate intervals plus angular resolutions."""

    x1: tuple[float, float, int]
    x2: tuple[float, float, int]
    n_theta1: int
    n_theta2: int

    def __post_init__(self):
        for lo, hi, n in (self.x1, self.x2):
            if not (hi > lo and n >= 1):
                raise DomainError(f"bad window ({lo}, {hi}, {n})")
        if self.n_theta1 < 1 or self.n_theta2 < 1:
            raise DomainError("need at least one angle per axis")


def _axis_values(lo: float, hi: float, n: int) -> np.ndarray:
    if n == 1:
        return np.array([(lo + hi) / 2.0])
    return np.linspace(lo, hi, n)


def _angles(n: int) -> np.ndarray:
    # half-offset grid dodges the exact cancellation angles 0 and pi
    return 2.0 * math.pi * (np.arange(n) + 0.5) / n


def _grid_roots(solver: _AxisSolver, grid: np.ndarray, coeffs=None):
    """Solve the axis at each row (x_j, x_k, theta_j, theta_k) of grid.

    Yields per block of _GRID_BLOCK rows (start, failed, point, x, theta,
    sums): the block's first row and per-row failure mask, then per root
    its row (ascending), full (x, theta) and the scaled sums there, the
    eval_patchwork_many sums of a ones column followed by the columns of
    coeffs; |sums[:, 0]| is the root's scaled residual.

    The sums come through the solver's axis groups, not a sweep over all
    terms.  With a the solve axis and m' the point m with m_a set to 0,
    f_t(w) = sum_k w_a^k F_k, where F_k sums t^(-v(m)) w^m' over group k, the
    terms with m_a = k.  At a grid point the solver evaluates each group
    anyway: its largest t-exponent g_k = max (<m',x> - v(m)) and, per
    column c, its scaled sum S_k = sum c_m t^(<m',x> - v(m) - g_k)
    e^(i<m',theta>).  At a root (x_a, theta_a) the t-exponent of term m is
    <m',x> - v(m) + k x_a, so the largest over all m is
    L = max_k (g_k + k x_a), and sum_m c_m Z_m equals
    sum_k S_k t^(g_k + k x_a - L) e^(i k theta_a): d+1 exponentials per root
    instead of |D_d|.  Both are sums of at most |D_d| terms c_m Z_m with
    |Z_m| <= 1, so they differ only by float rounding, of order
    |D_d| eps max|c_m| (below 1e-13 measured at d <= 8, log t <= 16).
    The columns are split into groups once per call.
    """
    group_cols = solver.columns(coeffs)
    for start in range(0, len(grid), _GRID_BLOCK):
        block = grid[start : start + _GRID_BLOCK]
        roots = solver.roots(block[:, :2], block[:, 2:], group_cols)
        point, x_axis, theta_axis, failed, sums = roots
        x, theta = np.empty((len(point), 3)), np.empty((len(point), 3))
        x[:, solver.others], x[:, solver.axis] = block[point, :2], x_axis
        theta[:, solver.others], theta[:, solver.axis] = block[point, 2:], theta_axis
        yield start, failed, start + point, x, theta, sums


@dataclass(frozen=True)
class AmoebaSample:
    x: tuple[float, float, float]
    theta: tuple[float, float, float]
    root_index: int
    residual: float


@dataclass
class SampleCloud:
    d: int
    t: float
    axis: int
    samples: list[AmoebaSample]
    grid_points: int
    failed_points: int
    rejected_roots: int
    full_root_points: int  # grid points that produced the full root count

    def points_array(self) -> np.ndarray:
        return np.array([s.x for s in self.samples], dtype=float)


def sample_amoeba(
    d: int,
    t: float,
    grid: AmoebaGrid,
    axis: int = 2,
    residual_tol: float = 1e-6,
) -> SampleCloud:
    """Sample the log image of the hypersurface over a 4-dimensional grid.

    For each (x_i, x_j, theta_i, theta_j) the remaining coordinate is solved.
    Failed grid points are skipped and counted.  Each accepted root carries
    its scaled residual |f_t(w)| t^(-L), below residual_tol: the full f_t at
    the root's (x, theta), summed through the axis groups (see _grid_roots).
    """
    solver = _AxisSolver(build_patchwork(d), t, axis)
    axes = (_axis_values(*grid.x1), _axis_values(*grid.x2))
    angles = (_angles(grid.n_theta1), _angles(grid.n_theta2))
    # one set of Python floats per grid point, shared by its samples (memory)
    points = list(product(*(v.tolist() for v in axes + angles)))
    j, k = solver.others

    samples: list[AmoebaSample] = []
    failed = rejected = full = 0
    for start, bad, point, x, theta, sums in _grid_roots(solver, np.array(points)):
        failed += int(bad.sum())
        resid = np.abs(sums[:, 0])
        ok = resid <= residual_tol
        rejected += int((~ok).sum())
        full += int((np.bincount(point[ok] - start, minlength=len(bad)) == d).sum())
        root_index = (np.arange(len(point)) - np.searchsorted(point, point)).tolist()
        cols = point.tolist(), x[:, axis].tolist(), theta[:, axis].tolist(), resid.tolist()
        for r in np.flatnonzero(ok).tolist():
            g, xa, ta, res = (c[r] for c in cols)
            xj, xk, tj, tk = points[g]
            xs, ths = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
            xs[j], xs[k], xs[axis] = xj, xk, xa
            ths[j], ths[k], ths[axis] = tj, tk, ta
            samples.append(AmoebaSample(tuple(xs), tuple(ths), root_index[r], res))
    if failed:
        LOG.warning(
            "root solve failed at %d of %d grid points (d=%d, t=%g)", failed, len(points), d, t
        )
    return SampleCloud(d, t, axis, samples, len(points), failed, rejected, full)


def cloud_rows(cloud: SampleCloud):
    """CSV rows (x1,x2,x3,theta1,theta2,theta3,residual)."""
    for s in cloud.samples:
        yield (*s.x, *s.theta, s.residual)


CLOUD_HEADER = ("x1", "x2", "x3", "theta1", "theta2", "theta3", "residual")


@dataclass(frozen=True)
class ConvergenceRow:
    t: float
    n_samples: int
    failed_points: int
    max_distance: float
    mean_distance: float


CONVERGENCE_HEADER = ("t", "n_samples", "failed_points", "max_distance", "mean_distance")


def convergence_study(
    d: int,
    t_list: Sequence[float],
    grid: AmoebaGrid,
    comp: TropicalComplex | None = None,
    axis: int = 2,
) -> list[ConvergenceRow]:
    """One-sided distance from each sample cloud to the tropical complex.

    Each sample must satisfy dist(x) <= log((N-1)/(1-r)) / log t, N = |D_d|,
    r its scaled residual, or NumericError is raised.  Proof: the largest
    term m* has scaled size 1, so the other N-1 sum to at least 1-r and the
    second largest, m2, is at least (1-r)/(N-1); so (L_m* - L_m2)(x) log t
    <= log((N-1)/(1-r)), and distance_many's closed form with |m* - m2| >= 1
    gives the bound.  It is the elementary case of the Archimedean amoeba
    estimates of Avendano-Kogan-Nisse-Rojas (J. Complexity 2018, 1307.3681).
    """
    ts = [float(t) for t in t_list]
    if not ts:
        raise DomainError("need at least one deformation parameter")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError(f"t list must be strictly increasing: {ts}")
    if comp is None:
        from .subdivision import subdivide
        from .tropical import build_tropical

        comp = build_tropical(subdivide(d))
    n_terms = (d + 1) * (d + 2) * (d + 3) // 6
    rows = []
    for t in ts:
        cloud = sample_amoeba(d, t, grid, axis=axis)
        if not cloud.samples:
            raise CoverageError(f"no accepted samples at t={t}")
        dist = distance_many(cloud.points_array(), comp)
        resid = np.array([s.residual for s in cloud.samples])
        bound = np.log((n_terms - 1) / (1.0 - resid)) / math.log(t)
        if not np.all(dist <= bound):
            i = int(np.argmax(dist - bound))
            raise NumericError(
                f"sample {cloud.samples[i].x} at t={t} is {dist[i]:.6g} from the complex, "
                f"beyond the bound {bound[i]:.6g}"
            )
        rows.append(
            ConvergenceRow(
                t,
                len(cloud.samples),
                cloud.failed_points,
                float(dist.max()),
                float(dist.mean()),
            )
        )
    return rows


# -- limit fibers ------------------------------------------------------------


def _affine_l(m: Point3, v: int) -> tuple[int, int, int, int]:
    return (m[0], m[1], m[2], -v)


def _eval_aff(a, x):
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2] + a[3]


def _box_corners(lo, hi):
    return [
        (a, b, c) for a in (lo[0], hi[0]) for b in (lo[1], hi[1]) for c in (lo[2], hi[2])
    ]


def _wedge_empty(lo, hi, g1, g2) -> bool:
    """Exact emptiness of {x in box : g1(x) >= 0, g2(x) >= 0}.

    The region is a bounded polyhedron, so nonempty means it has a vertex
    where 3 independent constraints are active.  Exact over int and Fraction.
    """
    # constraints as (normal, offset) with n.x + b >= 0
    cons = []
    for i in range(3):
        n = [0, 0, 0]
        n[i] = 1
        cons.append((tuple(n), -lo[i]))
        n = [0, 0, 0]
        n[i] = -1
        cons.append((tuple(n), hi[i]))
    cons.append(((g1[0], g1[1], g1[2]), g1[3]))
    cons.append(((g2[0], g2[1], g2[2]), g2[3]))

    for trio in combinations(range(len(cons)), 3):
        rows = [list(cons[i][0]) for i in trio]
        rhs = [-cons[i][1] for i in trio]
        try:
            pt = solve3(rows, rhs)
        except DegeneracyError:
            continue
        if all(n[0] * pt[0] + n[1] * pt[1] + n[2] * pt[2] + b >= 0 for n, b in cons):
            return False
    return True


@dataclass(frozen=True)
class FiberProbe:
    """A dual 2-cell window: the pair (m, m'), a box V, and a solve axis.

    Construction proves, in exact arithmetic, that within the closed box the
    only competing terms of the tropical maximum are m and m'; so the box
    meets the tropical complex exactly in a patch of the open dual 2-cell.
    """

    d: int
    m: Point3
    m_prime: Point3
    lo: tuple[Fraction, Fraction, Fraction]
    hi: tuple[Fraction, Fraction, Fraction]
    axis: int
    x_star: tuple[float, float, float]

    @property
    def direction(self) -> Point3:
        return tuple(a - b for a, b in zip(self.m, self.m_prime))


def fiber_probe(
    sub: RegularSubdivision,
    m: Point3,
    m_prime: Point3,
    lo: Sequence,
    hi: Sequence,
    axis: int | None = None,
) -> FiberProbe:
    m = tuple(int(c) for c in m)
    mp = tuple(int(c) for c in m_prime)
    key = (min(m, mp), max(m, mp))
    if key not in sub.edges:
        raise DomainError(f"{m}-{mp} is not an edge of the degree-{sub.d} subdivision")
    flo = tuple(Fraction(str(v)) if isinstance(v, float) else Fraction(v) for v in lo)
    fhi = tuple(Fraction(str(v)) if isinstance(v, float) else Fraction(v) for v in hi)
    if any(a >= b for a, b in zip(flo, fhi)):
        raise DomainError(f"degenerate window {lo}..{hi}")

    lv = sub.lift_values
    lm = _affine_l(m, lv[m])
    lmp = _affine_l(mp, lv[mp])
    wall = tuple(a - b for a, b in zip(lm, lmp))
    corners = _box_corners(flo, fhi)
    vals = [_eval_aff(wall, c) for c in corners]
    if min(vals) > 0 or max(vals) < 0:
        raise DomainError("window misses the wall where the two terms tie")

    for mq in lv:
        if mq == m or mq == mp:
            continue
        lq = _affine_l(mq, lv[mq])
        g1 = tuple(a - b for a, b in zip(lq, lm))
        g2 = tuple(a - b for a, b in zip(lq, lmp))
        # cheap certificate: dominated by one of the pair on the whole box
        if all(_eval_aff(g1, c) < 0 for c in corners):
            continue
        if all(_eval_aff(g2, c) < 0 for c in corners):
            continue
        if not _wedge_empty(flo, fhi, g1, g2):
            raise DomainError(
                f"window closure leaves the open dual 2-cell: term {mq} competes"
            )

    direction = tuple(a - b for a, b in zip(m, mp))
    if axis is None:
        axis = next((i for i in (2, 1, 0) if direction[i] != 0))
    elif direction[axis] == 0:
        raise DomainError(f"solve axis {axis} is orthogonal to m - m'")
    center = tuple(float((a + b) / 2) for a, b in zip(flo, fhi))
    return FiberProbe(sub.d, m, mp, flo, fhi, axis, center)


@dataclass(frozen=True)
class FiberResiduals:
    t: float
    n_samples: int
    angle_residual: float
    ratio_residual: float
    failed_points: int  # grid points whose root solve failed


def limit_fiber_check(
    probe: FiberProbe,
    t: float,
    n_x: int = 5,
    n_theta: int = 8,
    residual_tol: float = 1e-6,
) -> FiberResiduals:
    """Sample roots over the window and measure the two limit conditions.

    Angle: <m - m', theta> must approach pi mod 2pi.  Ratio: the scaled
    magnitudes of the two terms must approach each other.  Maxima over all
    samples whose log image lands in the window are reported; grid points
    whose root solve fails are skipped and counted.
    """
    solver = _AxisSolver(build_patchwork(probe.d), t, probe.axis)
    j, k = solver.others
    logt = math.log(t)
    lo, hi = np.array(probe.lo, dtype=float), np.array(probe.hi, dtype=float)
    direction = np.array(probe.direction, dtype=float)
    lift_gap = float(lift_value(probe.m_prime) - lift_value(probe.m))
    axes = _axis_values(lo[j], hi[j], n_x), _axis_values(lo[k], hi[k], n_x)
    grid = np.array(list(product(*axes, _angles(n_theta), _angles(n_theta))))

    angle_res = ratio_res = -1.0
    n_kept = failed = 0
    for _, bad, _, x, theta, sums in _grid_roots(solver, grid):
        failed += int(bad.sum())
        inside = np.all((lo <= x) & (x <= hi), axis=1) & (np.abs(sums[:, 0]) <= residual_tol)
        x, theta = x[inside], theta[inside]
        n_kept += len(x)
        phi = np.mod(theta @ direction - math.pi, 2 * math.pi)
        angle = np.minimum(phi, 2 * math.pi - phi)
        gap = -(x @ direction) - lift_gap  # L_m'(x) - L_m(x)
        ratio = np.abs(np.exp(logt * gap) - 1.0)
        angle_res = max(angle_res, float(angle.max(initial=-1.0)))
        ratio_res = max(ratio_res, float(ratio.max(initial=-1.0)))
    if n_kept == 0:
        raise CoverageError("no amoeba samples landed in the window")
    return FiberResiduals(t, n_kept, angle_res, ratio_res, failed)


# -- periods -----------------------------------------------------------------


@dataclass(frozen=True)
class PeriodEstimate:
    value: complex
    t: float
    n: int
    target: float
    mode: str

    @property
    def relative_error(self) -> float:
        return abs(self.value - self.target) / abs(self.target)


def period_integral(
    probe: FiberProbe, t: float, n: int = 64, mode: str = "numeric"
) -> PeriodEstimate:
    """Riemann sum of the holomorphic 2-form over one torus component.

    The component is parametrized by (theta_1, theta_2) in [0, 2pi)^2 at the
    window center's first two log coordinates; the third coordinate comes
    from the root branch tracked by continuity.  The limit value of the sum
    is 4 pi^2 / (m'_3 - m_3).

    mode="consistency" substitutes the exact limit integrand and bypasses
    root solving, isolating quadrature error from branch tracking.
    """
    dm = probe.direction
    if dm[2] == 0:
        raise DomainError("period integration needs m and m' to differ in the third slot")
    if n < 8:
        raise DomainError(f"grid resolution must be at least 8 per angle, got {n}")
    if mode not in ("numeric", "consistency"):
        raise DomainError(f"unknown mode {mode!r}")
    if not t > 1.0:
        raise DomainError(f"t must exceed 1, got {t}")
    target = 4.0 * math.pi**2 / float(probe.m_prime[2] - probe.m[2])

    if mode == "consistency":
        # the limit integrand is constant, so the n^2-node sum is closed form
        integrand = 1.0 / float(probe.m[2] - probe.m_prime[2])
        value = -((2.0 * math.pi / n) ** 2) * (n * n) * integrand
        return PeriodEstimate(complex(value), t, n, target, mode)

    if probe.axis != 2:
        raise DomainError("numeric mode solves the third coordinate; build the probe with axis=2")
    solver = _AxisSolver(build_patchwork(probe.d), t, 2)
    # per root: the residue denominator sum m_3 Z_m and the numerator Z_m of the pair's m
    coeffs = np.array([[m[2], float(m == probe.m)] for m, _ in solver.p.terms], dtype=float)
    x3_star = probe.x_star[2]
    angles = 2.0 * math.pi * np.arange(n) / n
    nodes = np.array(list(product([probe.x_star[0]], [probe.x_star[1]], angles, angles)))

    def arc(a: float) -> float:  # distance to the nearest multiple of 2 pi
        return abs(math.remainder(a, 2 * math.pi))

    acc, prev, row_anchor = 0j, None, None
    for start, failed, point, x, theta, sums in _grid_roots(solver, nodes, coeffs):
        bounds = np.searchsorted(point, np.arange(start, start + len(failed) + 1)).tolist()
        x3s, t3s, (_, dens, nums) = x[:, 2].tolist(), theta[:, 2].tolist(), sums.T.tolist()
        for b in range(len(failed)):
            i2 = (start + b) % n
            t1, t2 = nodes[start + b, 2:].tolist()
            if failed[b]:
                raise NumericError(f"root solve failed at theta=({t1:.4f},{t2:.4f})")
            lo, hi = bounds[b], bounds[b + 1]
            roots = list(zip(x3s[lo:hi], t3s[lo:hi]))
            if not roots:
                raise NumericError(f"no roots at theta=({t1:.4f},{t2:.4f})")
            if i2 == 0:
                prev = row_anchor
            if prev is None:  # start from the limit fiber's angle condition
                pred = (math.pi - dm[0] * t1 - dm[1] * t2) / dm[2]
                scores = [(abs(xa - x3_star), arc(ta - pred)) for xa, ta in roots]
            else:
                scores = [(abs(xa - prev[0]) + arc(ta - prev[1]), 0.0) for xa, ta in roots]
            order = sorted(range(len(roots)), key=lambda i: scores[i])
            if len(order) > 1:
                s0, s1 = scores[order[0]], scores[order[1]]
                if abs(s0[0] - s1[0]) < 1e-9 and abs(s0[1] - s1[1]) < 1e-9:
                    raise BranchError(
                        f"ambiguous branch at theta=({t1:.4f},{t2:.4f}): "
                        f"roots {roots[order[0]]} and {roots[order[1]]}"
                    )
            prev = roots[order[0]]
            if i2 == 0:
                row_anchor = prev

            den, num = dens[lo + order[0]], nums[lo + order[0]]
            if den == 0 or not cmath.isfinite(den):
                raise NumericError(f"degenerate residue denominator at theta=({t1:.4f},{t2:.4f})")
            acc += num / den
    value = -((2.0 * math.pi / n) ** 2) * acc
    if not cmath.isfinite(value):
        raise NumericError("non-finite period estimate")
    return PeriodEstimate(complex(value), t, n, target, "numeric")


def period_report(est: PeriodEstimate, probe: FiberProbe) -> dict:
    from .serialization import fmt_float

    return {
        "schema": 1,
        "d": str(probe.d),
        "m": [str(c) for c in probe.m],
        "m_prime": [str(c) for c in probe.m_prime],
        "mode": est.mode,
        # the angle torus has gcd(m - m') components; we integrate exactly one
        "domain": "single torus component, (theta1, theta2) in [0, 2*pi)^2",
        "t": fmt_float(est.t),
        "n": str(est.n),
        "value_re": fmt_float(est.value.real),
        "value_im": fmt_float(est.value.imag),
        "target": fmt_float(est.target),
        "relative_error": fmt_float(est.relative_error),
    }
