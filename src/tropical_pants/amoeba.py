"""Amoeba sampling, limit-fiber residuals, and torus period estimates.

Everything runs in log coordinates: a torus point is (x, theta) with
w_i = t^(x_i) e^(i theta_i).  Exponents of t are never turned into bare
floats; each polynomial solve rescales its coefficients by the dominant
t-power first (the coefficients span hundreds of orders of magnitude at
t = e^16, so this is not optional).
"""

from __future__ import annotations

import cmath
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
from .patchwork import PatchworkPolynomial, build_patchwork, eval_patchwork
from .subdivision import RegularSubdivision, lift_value
from .tropical import TropicalComplex, distance_many

LOG = logging.getLogger(__name__)

MAX_ROOT_ITERATIONS = 200
ROOT_TOLERANCE = 1e-12


def log_t(w: Sequence[complex], t: float) -> tuple[float, float, float]:
    """Coordinatewise log-modulus over log t."""
    if not t > 1.0:
        raise DomainError(f"t must exceed 1, got {t}")
    if any(c == 0 for c in w):
        raise DomainError(f"log map undefined on zero coordinate: {tuple(w)}")
    lt = math.log(t)
    return tuple(math.log(abs(c)) / lt for c in w)


class _RootFailure(Exception):
    """Internal: the iterative solver did not converge for one grid point."""


def _durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    """All roots of an ascending-coefficient complex polynomial.

    Simultaneous iteration, at most MAX_ROOT_ITERATIONS passes, relative
    step tolerance ROOT_TOLERANCE.  Coefficients are expected O(1).
    """
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    if n < 1:
        return np.zeros(0, dtype=complex)
    c = c / c[-1]
    radius = 1.0 + float(np.abs(c[:-1]).max(initial=0.0))
    k = np.arange(n)
    z = radius ** (1.0 / n) * np.exp(2j * math.pi * (k + 0.354) / n)
    desc = c[::-1]
    for _ in range(MAX_ROOT_ITERATIONS):
        p = np.polyval(desc, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        denom = diff.prod(axis=1)
        if not np.all(np.isfinite(denom)) or np.any(denom == 0):
            raise _RootFailure("coincident iterates")
        step = p / denom
        z = z - step
        if np.all(np.abs(step) <= ROOT_TOLERANCE * (1.0 + np.abs(z))):
            return z
    raise _RootFailure("no convergence after max iterations")


def _newton_polish(coeffs: np.ndarray, z0: complex) -> complex:
    c = np.asarray(coeffs, dtype=complex)
    dc = c[1:] * np.arange(1, len(c))
    desc, ddesc = c[::-1], dc[::-1]
    z = z0
    for _ in range(40):
        dp = np.polyval(ddesc, z)
        if dp == 0:
            break
        step = np.polyval(desc, z) / dp
        z -= step
        if abs(step) <= ROOT_TOLERANCE * (1.0 + abs(z)):
            break
    return z


class _AxisSolver:
    """Solves f_t = 0 along one coordinate with the other two fixed.

    Terms are grouped by their exponent on the solve axis; per (x, theta)
    each group collapses to one scaled complex coefficient and a t-power.
    Root magnitudes are located on the upper hull of (k, t-power): each hull
    segment is rescaled to O(1) coefficients, solved, and polished against
    the full rescaled polynomial.
    """

    def __init__(self, p: PatchworkPolynomial, t: float, axis: int):
        if axis not in (0, 1, 2):
            raise DomainError(f"axis must be 0, 1 or 2, got {axis}")
        if not t > 1.0:
            raise DomainError(f"t must exceed 1, got {t}")
        self.axis = axis
        self.t = t
        self.logt = math.log(t)
        self.others = tuple(i for i in range(3) if i != axis)
        self.degree = p.d
        self.groups: list[tuple[np.ndarray, np.ndarray]] = []
        for k in range(p.d + 1):
            ms = [m for m, _ in p.terms if m[axis] == k]
            vs = [v for m, v in p.terms if m[axis] == k]
            proj = np.array([[m[self.others[0]], m[self.others[1]]] for m in ms], dtype=float)
            self.groups.append((proj, np.array(vs, dtype=float)))

    def roots(self, x_fixed: tuple[float, float], theta_fixed: tuple[float, float]):
        """Roots as (x_axis, theta_axis) pairs; raises _RootFailure on failure."""
        xf = np.asarray(x_fixed, dtype=float)
        tf = np.asarray(theta_fixed, dtype=float)
        ks, gs, amps = [], [], []
        for k, (proj, vs) in enumerate(self.groups):
            exps = proj @ xf - vs
            g = float(exps.max())
            a = complex(np.sum(np.exp((exps - g) * self.logt) * np.exp(1j * (proj @ tf))))
            if a == 0:
                continue
            ks.append(k)
            gs.append(g)
            amps.append(a)
        # effective t-exponent of each coefficient, amplitude folded in
        hs = [g + math.log(abs(a)) / self.logt for g, a in zip(gs, amps)]
        if len(ks) < 2:
            return []
        hull = _upper_hull(ks, hs)

        found: list[tuple[float, float]] = []
        for (k1, h1), (k2, h2) in zip(hull, hull[1:]):
            xi = (h1 - h2) / (k2 - k1)
            gamma = h1 + k1 * xi
            scaled = np.zeros(self.degree + 1, dtype=complex)
            for k, g, a in zip(ks, gs, amps):
                e = (g + k * xi - gamma) * self.logt
                scaled[k] = a * math.exp(e) if e > -700 else 0.0
            i1, i2 = ks.index(k1), ks.index(k2)
            sub = np.zeros(k2 - k1 + 1, dtype=complex)
            for k, g, a in zip(ks[i1 : i2 + 1], gs[i1 : i2 + 1], amps[i1 : i2 + 1]):
                e = (g + k * xi - gamma) * self.logt
                sub[k - k1] = a * math.exp(e) if e > -700 else 0.0
            for z in _durand_kerner(sub):
                z = _newton_polish(scaled, complex(z))
                if z == 0 or not (math.isfinite(z.real) and math.isfinite(z.imag)):
                    continue
                found.append((xi + math.log(abs(z)) / self.logt, cmath.phase(z)))

        # segment solves can converge to the same root from both sides
        unique: list[tuple[float, float]] = []
        for xa, ta in found:
            dup = any(
                abs(xa - xb) * self.logt < 1e-8 and abs(math.remainder(ta - tb, 2 * math.pi)) < 1e-8
                for xb, tb in unique
            )
            if not dup:
                unique.append((xa, ta))
        return unique


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
    Non-convergent grid points are skipped and counted; accepted roots carry
    an independently evaluated scaled residual, all below residual_tol.
    """
    p = build_patchwork(d)
    solver = _AxisSolver(p, t, axis)
    xs1 = _axis_values(*grid.x1)
    xs2 = _axis_values(*grid.x2)
    th1 = _angles(grid.n_theta1)
    th2 = _angles(grid.n_theta2)
    j, k = solver.others

    n_points = len(xs1) * len(xs2) * len(th1) * len(th2)
    samples: list[AmoebaSample] = []
    failed = rejected = full = 0
    for xj, xk, tj, tk in product(xs1.tolist(), xs2.tolist(), th1.tolist(), th2.tolist()):
        try:
            roots = solver.roots((xj, xk), (tj, tk))
        except _RootFailure:
            failed += 1
            continue
        kept = 0
        for ridx, (xa, ta) in enumerate(roots):
            x = [0.0, 0.0, 0.0]
            th = [0.0, 0.0, 0.0]
            x[j], x[k], x[axis] = xj, xk, xa
            th[j], th[k], th[axis] = tj, tk, ta
            val, _ = eval_patchwork(p, t, x, th)
            resid = abs(val)
            if resid > residual_tol:
                rejected += 1
                continue
            samples.append(AmoebaSample(tuple(x), tuple(th), ridx, resid))
            kept += 1
        if kept == d:
            full += 1
    if failed:
        LOG.warning(
            "root solve failed at %d of %d grid points (d=%d, t=%g)", failed, n_points, d, t
        )
    return SampleCloud(d, t, axis, samples, n_points, failed, rejected, full)


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
    """One-sided distance from each sample cloud to the tropical complex."""
    ts = [float(t) for t in t_list]
    if not ts:
        raise DomainError("need at least one deformation parameter")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError(f"t list must be strictly increasing: {ts}")
    if comp is None:
        from .subdivision import subdivide
        from .tropical import build_tropical

        comp = build_tropical(subdivide(d))
    rows = []
    for t in ts:
        cloud = sample_amoeba(d, t, grid, axis=axis)
        if not cloud.samples:
            raise CoverageError(f"no accepted samples at t={t}")
        dist = distance_many(cloud.points_array(), comp)
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
    failed_points: int  # grid points whose root solve did not converge


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
    if not t > 1.0:
        raise DomainError(f"t must exceed 1, got {t}")
    p = build_patchwork(probe.d)
    solver = _AxisSolver(p, t, probe.axis)
    j, k = solver.others
    logt = math.log(t)
    lo = tuple(float(v) for v in probe.lo)
    hi = tuple(float(v) for v in probe.hi)
    direction = probe.direction
    vm = np.array(probe.m, dtype=float)
    vmp = np.array(probe.m_prime, dtype=float)
    cm, cmp_ = float(lift_value(probe.m)), float(lift_value(probe.m_prime))

    angle_res = ratio_res = -1.0
    n_kept = failed = 0
    for xj in _axis_values(lo[j], hi[j], n_x):
        for xk in _axis_values(lo[k], hi[k], n_x):
            for tj in _angles(n_theta):
                for tk in _angles(n_theta):
                    try:
                        roots = solver.roots((float(xj), float(xk)), (float(tj), float(tk)))
                    except _RootFailure:
                        failed += 1
                        continue
                    for xa, ta in roots:
                        x = [0.0, 0.0, 0.0]
                        th = [0.0, 0.0, 0.0]
                        x[j], x[k], x[probe.axis] = float(xj), float(xk), xa
                        th[j], th[k], th[probe.axis] = float(tj), float(tk), ta
                        if not all(lo[i] <= x[i] <= hi[i] for i in range(3)):
                            continue
                        val, _ = eval_patchwork(p, t, x, th)
                        if abs(val) > residual_tol:
                            continue
                        n_kept += 1
                        phi = sum(direction[i] * th[i] for i in range(3))
                        angle = abs(math.remainder(phi - math.pi, 2 * math.pi))
                        xv = np.array(x)
                        gap = (float(vmp @ xv) - cmp_) - (float(vm @ xv) - cm)
                        ratio = abs(math.exp(logt * gap) - 1.0)
                        angle_res = max(angle_res, angle)
                        ratio_res = max(ratio_res, ratio)
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
        acc = 0.0 + 0.0j
        integrand = 1.0 / float(probe.m[2] - probe.m_prime[2])
        for _ in range(n * n):
            acc += integrand
        value = -((2.0 * math.pi / n) ** 2) * acc
        return PeriodEstimate(complex(value), t, n, target, mode)

    if probe.axis != 2:
        raise DomainError("numeric mode solves the third coordinate; build the probe with axis=2")
    p = build_patchwork(probe.d)
    solver = _AxisSolver(p, t, 2)
    logt = math.log(t)
    ms = np.array([m for m, _ in p.terms], dtype=float)
    vs = np.array([v for _, v in p.terms], dtype=float)
    m3 = ms[:, 2].copy()
    mvec = np.array(probe.m, dtype=float)
    vm = float(next(v for mm, v in p.terms if mm == probe.m))

    x1, x2 = probe.x_star[0], probe.x_star[1]
    x3_star = probe.x_star[2]
    angles = 2.0 * math.pi * np.arange(n) / n

    def predict_theta3(t1: float, t2: float) -> float:
        return (math.pi - dm[0] * t1 - dm[1] * t2) / dm[2]

    acc = 0.0 + 0.0j
    row_anchor: tuple[float, float] | None = None
    for i1 in range(n):
        t1 = float(angles[i1])
        prev = row_anchor
        for i2 in range(n):
            t2 = float(angles[i2])
            try:
                roots = solver.roots((x1, x2), (t1, t2))
            except _RootFailure as exc:
                raise NumericError(f"root solve failed at theta=({t1:.4f},{t2:.4f}): {exc}")
            if not roots:
                raise NumericError(f"no roots at theta=({t1:.4f},{t2:.4f})")
            if prev is None:
                pred = predict_theta3(t1, t2)
                scores = [
                    (abs(xa - x3_star), abs(math.remainder(ta - pred, 2 * math.pi)))
                    for xa, ta in roots
                ]
            else:
                scores = [
                    (
                        abs(xa - prev[0])
                        + abs(math.remainder(ta - prev[1], 2 * math.pi)),
                        0.0,
                    )
                    for xa, ta in roots
                ]
            order = sorted(range(len(roots)), key=lambda i: scores[i])
            if len(order) > 1:
                s0, s1 = scores[order[0]], scores[order[1]]
                if abs(s0[0] - s1[0]) < 1e-9 and abs(s0[1] - s1[1]) < 1e-9:
                    raise BranchError(
                        f"ambiguous branch at theta=({t1:.4f},{t2:.4f}): "
                        f"roots {roots[order[0]]} and {roots[order[1]]}"
                    )
            x3, t3 = roots[order[0]]
            prev = (x3, t3)
            if i2 == 0:
                row_anchor = prev

            x = np.array([x1, x2, x3])
            th = np.array([t1, t2, t3])
            exps = ms @ x - vs
            big = float(exps.max())
            weights = np.exp((exps - big) * logt) * np.exp(1j * (ms @ th))
            den = complex(np.sum(m3 * weights))
            num = math.exp((float(mvec @ x) - vm - big) * logt) * cmath.exp(
                1j * float(mvec @ th)
            )
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
