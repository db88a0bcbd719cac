"""Numerical sampling paths: root solving, clouds, fibers, periods."""

import cmath
import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropical_pants import amoeba as am
from tropical_pants.amoeba import (
    AmoebaGrid,
    CLOUD_HEADER,
    ROOT_TOLERANCE,
    _AxisSolver,
    _angles,
    _upper_hull,
    _wedge_empty,
    cloud_rows,
    convergence_study,
    fiber_probe,
    limit_fiber_check,
    log_t,
    period_integral,
    sample_amoeba,
)
from tropical_pants.errors import (
    BranchError,
    CoverageError,
    DomainError,
    NumericError,
)
from tropical_pants.patchwork import build_patchwork, eval_patchwork, eval_patchwork_many
from tropical_pants.serialization import write_csv

E4, E8, E16 = math.e**4, math.e**8, math.e**16


@pytest.fixture(scope="module")
def sub1(sub_factory):
    return sub_factory(1)


def test_log_map():
    assert log_t((1, 1, 1), 7.0) == (0.0, 0.0, 0.0)
    assert log_t((10, 100, 1000), 10.0) == pytest.approx((1.0, 2.0, 3.0))
    assert log_t((math.e**2, math.e, 1 / math.e), math.e) == pytest.approx((2, 1, -1))
    with pytest.raises(DomainError):
        log_t((0, 1, 1), 10.0)
    with pytest.raises(DomainError):
        log_t((1, 1, 1), 1.0)


# -- scalar oracle: the per-point Durand-Kerner solver the batch replaced -----


class _RootFailure(Exception):
    """The oracle's iteration did not converge for one grid point."""


def _durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    """All roots of an ascending-coefficient complex polynomial (O(1) coefficients)."""
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    if n < 1:
        return np.zeros(0, dtype=complex)
    c = c / c[-1]
    radius = 1.0 + float(np.abs(c[:-1]).max(initial=0.0))
    z = radius ** (1.0 / n) * np.exp(2j * math.pi * (np.arange(n) + 0.354) / n)
    desc = c[::-1]
    for _ in range(200):
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


def _newton_polish(coeffs: np.ndarray, z: complex) -> complex:
    c = np.asarray(coeffs, dtype=complex)
    desc, ddesc = c[::-1], (c[1:] * np.arange(1, len(c)))[::-1]
    for _ in range(40):
        dp = np.polyval(ddesc, z)
        if dp == 0:
            break
        step = np.polyval(desc, z) / dp
        z -= step
        if abs(step) <= ROOT_TOLERANCE * (1.0 + abs(z)):
            break
    return z


def _scalar_roots(solver, x_fixed, theta_fixed) -> list[tuple[float, float]]:
    """One point's (x_axis, theta_axis) roots, one hull segment at a time."""
    others = [i for i in range(3) if i != solver.axis]
    ks, gs, amps = [], [], []
    for k in range(solver.p.d + 1):
        terms = [(m, v) for m, v in solver.p.terms if m[solver.axis] == k]
        proj = np.array([[m[i] for i in others] for m, _ in terms], dtype=float)
        vs = np.array([v for _, v in terms], dtype=float)
        exps = proj @ np.asarray(x_fixed, dtype=float) - vs
        g = float(exps.max())
        a = complex(
            np.sum(np.exp((exps - g) * solver.logt) * np.exp(1j * (proj @ np.asarray(theta_fixed))))
        )
        if a != 0:
            ks.append(k)
            gs.append(g)
            amps.append(a)
    if len(ks) < 2:
        return []
    hull = _upper_hull(ks, [g + math.log(abs(a)) / solver.logt for g, a in zip(gs, amps)])
    found = []
    for (k1, h1), (k2, h2) in zip(hull, hull[1:]):
        xi = (h1 - h2) / (k2 - k1)
        gamma = h1 + k1 * xi
        scaled = np.zeros(solver.p.d + 1, dtype=complex)
        for k, g, a in zip(ks, gs, amps):
            e = (g + k * xi - gamma) * solver.logt
            scaled[k] = a * math.exp(e) if e > -700 else 0.0
        for z in _durand_kerner(scaled[k1 : k2 + 1]):
            z = _newton_polish(scaled, complex(z))
            if z != 0 and cmath.isfinite(z):
                found.append((xi + math.log(abs(z)) / solver.logt, cmath.phase(z)))
    unique: list[tuple[float, float]] = []
    for xa, ta in found:
        if not any(
            abs(xa - xb) * solver.logt < 1e-8 and abs(math.remainder(ta - tb, 2 * math.pi)) < 1e-8
            for xb, tb in unique
        ):
            unique.append((xa, ta))
    return unique


def test_durand_kerner_known_roots():
    expected = [1.0 + 0j, 2j, -3.0 + 0j]
    coeffs = np.poly(expected)[::-1]  # ascending
    got = sorted(_durand_kerner(coeffs), key=lambda z: (z.real, z.imag))
    for g, e in zip(got, sorted(expected, key=lambda z: (z.real, z.imag))):
        assert abs(g - e) < 1e-10


_PATCHWORKS = {d: build_patchwork(d) for d in range(1, 6)}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.floats(2.0, 16.0),
    st.integers(0, 2),
    st.lists(
        st.tuples(
            st.floats(-4.0, 20.0),
            st.floats(-4.0, 20.0),
            st.floats(0.0, 2 * math.pi),
            st.floats(0.0, 2 * math.pi),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_batched_roots_match_scalar_oracle(d, logt, axis, pts):
    solver = _AxisSolver(_PATCHWORKS[d], math.exp(logt), axis)
    grid = np.array(pts)
    point, x_axis, theta_axis, failed, _ = solver.roots(grid[:, :2], grid[:, 2:])
    assert not failed.any()
    for i, row in enumerate(grid):
        expected = _scalar_roots(solver, row[:2], row[2:])
        got = list(zip(x_axis[point == i], theta_axis[point == i]))
        assert len(got) == len(expected)
        for xa, ta in expected:
            assert min(
                max(abs(xb - xa), abs(math.remainder(tb - ta, 2 * math.pi))) for xb, tb in got
            ) < 1e-9


def test_upper_hull():
    assert _upper_hull([0, 1, 2], [0.0, 10.0, 0.0]) == [(0, 0.0), (1, 10.0), (2, 0.0)]
    # collinear middle point is absorbed
    assert _upper_hull([0, 1, 2], [0.0, 5.0, 10.0]) == [(0, 0.0), (2, 10.0)]


def test_wedge_empty():
    lo = (Fraction(0), Fraction(0), Fraction(0))
    hi = (Fraction(1), Fraction(1), Fraction(1))

    def half(n, b):  # n.x + b >= 0
        return (Fraction(n[0]), Fraction(n[1]), Fraction(n[2]), Fraction(b))

    assert not _wedge_empty(lo, hi, half((1, 0, 0), "-1/2"), half((0, 1, 0), "-1/2"))
    assert _wedge_empty(lo, hi, half((1, 0, 0), -2), half((0, 1, 0), 0))
    # touching a face counts as nonempty (closure semantics)
    assert not _wedge_empty(lo, hi, half((1, 0, 0), -1), half((0, 1, 0), 0))


def test_d1_root_closed_form():
    # deep in the third unbounded leg the root balances 1 against w3,
    # so its log image must sit at the lift value 13
    solver = _AxisSolver(build_patchwork(1), E16, 2)
    point, x_axis, theta_axis, failed, _ = solver.roots([[-100.0, -100.0]], [[0.0, 0.0]])
    assert point.tolist() == [0] and failed.tolist() == [False]
    assert abs(x_axis[0] - 13.0) < 0.05
    assert abs(abs(theta_axis[0]) - math.pi) < 1e-9


def _d1_grid():
    axis = np.linspace(0.0, 16.0, 3)
    grid = np.array(list(itertools.product(axis, axis, _angles(2), _angles(2))))
    return _AxisSolver(build_patchwork(1), E8, 2), grid[:, :2], grid[:, 2:]


def test_non_finite_eigenvalue_fails_the_point(monkeypatch):
    solver, xf, tf = _d1_grid()
    clean = solver.roots(xf, tf)
    real = np.linalg.eigvals

    def eigvals(a):
        z = real(a)
        z[0] = np.nan  # d=1: one hull for all points, so row 0 is point 0
        return z

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    point, x_axis, _, failed, _ = solver.roots(xf, tf)
    assert failed.tolist() == [True] + [False] * (len(xf) - 1)
    assert point.tolist() == clean[0][clean[0] != 0].tolist()
    assert np.array_equal(x_axis, clean[1][clean[0] != 0])


def test_eigenvalue_error_fails_only_its_point(monkeypatch):
    # LAPACK refusing one matrix of the stack must not fail the others
    solver, xf, tf = _d1_grid()
    clean = solver.roots(xf, tf)
    real = np.linalg.eigvals
    calls = []

    def eigvals(a):
        calls.append(a.ndim)
        if a.ndim == 3 or calls.count(2) == 1:  # the stack, then its first matrix
            raise np.linalg.LinAlgError("injected")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    point, x_axis, _, failed, _ = solver.roots(xf, tf)
    assert calls == [3] + [2] * len(xf)
    assert failed.tolist() == [True] + [False] * (len(xf) - 1)
    assert np.array_equal(x_axis, clean[1][clean[0] != 0])


def test_sample_cloud_d1():
    grid = AmoebaGrid((0.0, 16.0, 5), (0.0, 16.0, 5), 3, 3)
    cloud = sample_amoeba(1, E8, grid)
    assert cloud.grid_points == 225
    assert cloud.failed_points == 0
    assert cloud.full_root_points == 225
    assert len(cloud.samples) == 225  # linear in w3: one root each
    assert all(s.residual <= 1e-6 for s in cloud.samples)


def test_sample_residuals_reproducible():
    # stored residual (summed through the axis groups) must match an
    # independent re-evaluation over all terms
    p = build_patchwork(1)
    grid = AmoebaGrid((2.0, 14.0, 4), (2.0, 14.0, 4), 2, 2)
    cloud = sample_amoeba(1, E8, grid)
    for s in cloud.samples[:20]:
        val, _ = eval_patchwork(p, E8, s.x, s.theta)
        assert abs(val) == pytest.approx(s.residual, abs=1e-15)
    for d, t in itertools.product((5, 8), (E4, E16)):
        p = build_patchwork(d)
        cloud = sample_amoeba(d, t, AmoebaGrid((0.0, 2.0 * d, 3), (0.0, 2.0 * d, 3), 2, 2))
        assert cloud.samples
        for s in cloud.samples:
            val, _ = eval_patchwork(p, t, s.x, s.theta)
            assert abs(val) == pytest.approx(s.residual, abs=1e-14)


def _period_columns(p, i):
    # period_integral's columns: m_3, and the indicator of the pair's m
    return np.array([[m[2], float(j == i)] for j, (m, _) in enumerate(p.terms)])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.floats(2.0, 16.0),
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, 55)),
    st.lists(
        st.tuples(
            st.floats(-4.0, 20.0),
            st.floats(-4.0, 20.0),
            st.floats(0.0, 2 * math.pi),
            st.floats(0.0, 2 * math.pi),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_grid_root_sums_match_direct_evaluation(d, logt, axis, pair, pts):
    # the sums through the axis groups equal the sweep over all terms
    p = _PATCHWORKS[d]
    solver = _AxisSolver(p, math.exp(logt), axis)
    coeffs = None if pair is None else _period_columns(p, pair % len(p))
    n_roots = 0
    for _, _, _, x, theta, sums in am._grid_roots(solver, np.array(pts), coeffs):
        n_roots += len(x)
        direct, _ = eval_patchwork_many(p, solver.t, x, theta)
        assert sums.shape == (len(x), 1 if coeffs is None else 3)
        assert np.abs(sums[:, :1] - direct).max(initial=0.0) < 1e-12
        if coeffs is not None:
            direct, _ = eval_patchwork_many(p, solver.t, x, theta, coeffs)
            assert np.abs(sums[:, 1:] - direct).max(initial=0.0) < 1e-12
    assert n_roots > 0


def test_grid_root_sums_non_finite_raise(monkeypatch):
    p = build_patchwork(3)
    solver = _AxisSolver(p, E8, 2)
    grid = np.array([[1.0, 2.0, 0.5, 1.5], [3.0, 1.0, 2.5, 0.5]])
    coeffs = _period_columns(p, 7)
    assert sum(len(b[3]) for b in am._grid_roots(solver, grid, coeffs)) > 0
    real = am.eval_patchwork_many

    def nan_amplitude(*args, **kwargs):  # group amplitudes of the indicator column
        vals, big = real(*args, **kwargs)
        vals[:, -1] = np.nan
        return vals, big

    monkeypatch.setattr(am, "eval_patchwork_many", nan_amplitude)
    with pytest.raises(NumericError, match="non-finite scaled value"):
        list(am._grid_roots(solver, grid, coeffs))


def test_sample_determinism():
    grid = AmoebaGrid((0.0, 8.0, 4), (0.0, 8.0, 4), 3, 3)
    a = sample_amoeba(5, E4, grid)
    b = sample_amoeba(5, E4, grid)
    assert a.samples == b.samples
    assert a.full_root_points == b.full_root_points


def _fail_when(monkeypatch, predicate):
    """Make the axis solver fail the grid points the predicate picks."""
    real = _AxisSolver.roots

    def roots(self, xf, tf, group_cols=None):
        point, x_axis, theta_axis, failed, sums = real(self, xf, tf, group_cols)
        hit = np.array(
            [predicate(tuple(x), tuple(th)) for x, th in zip(xf.tolist(), tf.tolist())], dtype=bool
        )
        kept = ~hit[point]
        return point[kept], x_axis[kept], theta_axis[kept], failed | hit, sums[kept]

    monkeypatch.setattr(_AxisSolver, "roots", roots)


def test_sample_failures_one_summary_warning(monkeypatch, caplog):
    grid = AmoebaGrid((0.0, 16.0, 3), (0.0, 16.0, 3), 2, 2)
    with caplog.at_level(logging.WARNING, logger="tropical_pants.amoeba"):
        clean = sample_amoeba(1, E8, grid)
    assert clean.failed_points == 0
    assert not caplog.records

    first = float(_angles(2)[0])
    _fail_when(monkeypatch, lambda x, th: th == (first, first))
    with caplog.at_level(logging.WARNING, logger="tropical_pants.amoeba"):
        cloud = sample_amoeba(1, E8, grid)
    assert cloud.failed_points == 9
    assert len(cloud.samples) == len(clean.samples) - 9
    assert len(caplog.records) == 1
    assert "9 of 36 grid points" in caplog.records[0].getMessage()


def test_sample_d5_root_yield():
    grid = AmoebaGrid((0.0, 6.0, 8), (0.0, 6.0, 8), 4, 4)
    cloud = sample_amoeba(5, E8, grid)
    assert cloud.full_root_points / cloud.grid_points >= 0.9


def test_convergence_d1_shape():
    grid = AmoebaGrid((0.0, 16.0, 5), (0.0, 16.0, 5), 3, 3)
    rows = convergence_study(1, [E4, E8, E16], grid)
    maxima = [r.max_distance for r in rows]
    assert maxima[0] > maxima[1] > maxima[2]
    assert maxima[2] < 0.1
    # distance scales like C / log t near the vertex legs
    cs = [m * math.log(r.t) for m, r in zip(maxima, rows)]
    assert max(cs) / min(cs) < 1.2


def test_convergence_distance_bound_trips(monkeypatch):
    # a cloud shifted by +1 along its solve axis is no longer on the amoeba
    grid = AmoebaGrid((0.0, 16.0, 5), (0.0, 16.0, 5), 3, 3)
    assert convergence_study(1, [E8], grid)
    real = am.sample_amoeba

    def shifted(*args, **kwargs):
        cloud = real(*args, **kwargs)
        cloud.samples = [
            am.AmoebaSample((s.x[0], s.x[1], s.x[2] + 1.0), s.theta, s.root_index, s.residual)
            for s in cloud.samples
        ]
        return cloud

    monkeypatch.setattr(am, "sample_amoeba", shifted)
    with pytest.raises(NumericError, match="beyond the bound"):
        convergence_study(1, [E8], grid)


def test_convergence_input_validation():
    grid = AmoebaGrid((0.0, 16.0, 3), (0.0, 16.0, 3), 2, 2)
    with pytest.raises(DomainError):
        convergence_study(1, [E8, E4], grid)
    with pytest.raises(DomainError):
        convergence_study(1, [], grid)
    single = convergence_study(1, [E8], grid)
    assert len(single) == 1


def test_fiber_probe_validation(sub1, sub_factory):
    # valid probe around the first leg's dual wall
    pr = fiber_probe(sub1, (0, 0, 0), (1, 0, 0), ("7.6", 6, "10.5"), ("8.4", 7, "11.5"))
    assert pr.axis == 0
    assert pr.x_star == (8.0, 6.5, 11.0)
    # window strictly on one side of the wall
    with pytest.raises(DomainError):
        fiber_probe(sub1, (0, 0, 0), (1, 0, 0), (9, 6, 10), (10, 7, 11))
    # window reaching the triple point at x2 = 8 lets a third term tie
    with pytest.raises(DomainError):
        fiber_probe(sub1, (0, 0, 0), (1, 0, 0), ("7.6", 6, "10.5"), ("8.4", 8, "11.5"))
    # not an edge of the subdivision
    with pytest.raises(DomainError):
        fiber_probe(sub_factory(2), (0, 0, 0), (1, 1, 0), (7, 6, 10), (9, 7, 11))
    # solve axis orthogonal to the pair direction
    with pytest.raises(DomainError):
        fiber_probe(sub1, (0, 0, 0), (1, 0, 0), (7.6, 6, 10.5), (8.4, 7, 11.5), axis=2)


def test_limit_fiber_residuals(sub1):
    pr = fiber_probe(sub1, (0, 0, 0), (1, 0, 0), ("7.6", 6, "10.5"), ("8.4", 7, "11.5"))
    results = [limit_fiber_check(pr, t, n_x=3, n_theta=6) for t in (E4, E8, E16)]
    angles = [r.angle_residual for r in results]
    ratios = [r.ratio_residual for r in results]
    assert angles[0] > angles[1] > angles[2]
    assert ratios[0] > ratios[1] > ratios[2]
    assert angles[2] < 0.05 and ratios[2] < 0.05
    assert all(r.n_samples > 0 for r in results)


def test_limit_fiber_counts_root_failures(sub1, monkeypatch):
    pr = fiber_probe(sub1, (0, 0, 0), (1, 0, 0), ("7.6", 6, "10.5"), ("8.4", 7, "11.5"))
    clean = limit_fiber_check(pr, E8, n_x=3, n_theta=6)
    assert clean.failed_points == 0
    # fail every point of the first theta column: 3 * 3 * 6 of the 324
    first = float(_angles(6)[0])
    _fail_when(monkeypatch, lambda x, th: th[0] == first)
    hit = limit_fiber_check(pr, E8, n_x=3, n_theta=6)
    assert hit.failed_points == 54
    assert hit.n_samples < clean.n_samples


def test_limit_fiber_coverage_error(sub1):
    pr = fiber_probe(sub1, (0, 0, 0), (1, 0, 0), ("7.6", 6, "10.5"), ("8.4", 7, "11.5"))
    with pytest.raises(CoverageError):
        limit_fiber_check(pr, E8, n_x=2, n_theta=2, residual_tol=1e-30)


@pytest.fixture(scope="module")
def period_probe(sub1):
    return fiber_probe(sub1, (0, 0, 0), (0, 0, 1), ("5.5", "5.5", "12.5"), ("6.5", "6.5", "13.5"))


def test_period_consistency_mode(period_probe):
    est = period_integral(period_probe, E16, n=64, mode="consistency")
    assert est.target == pytest.approx(4 * math.pi**2)
    assert abs(est.value - est.target) < 1e-6
    assert est.value.imag == pytest.approx(0.0, abs=1e-9)


def test_period_numeric_d1(period_probe):
    est = period_integral(period_probe, E16, n=32, mode="numeric")
    assert abs(est.value - 4 * math.pi**2) / (4 * math.pi**2) < 0.1
    assert est.relative_error < 0.1


def test_period_preconditions(sub1, period_probe):
    flat = fiber_probe(sub1, (0, 0, 0), (1, 0, 0), ("7.6", 6, "10.5"), ("8.4", 7, "11.5"))
    with pytest.raises(DomainError):
        period_integral(flat, E8)  # m and m' share the third coordinate
    with pytest.raises(DomainError):
        period_integral(period_probe, E8, n=4)
    with pytest.raises(DomainError):
        period_integral(period_probe, E8, mode="magic")
    slanted = fiber_probe(
        sub1, (0, 0, 1), (1, 0, 0), ("11.7", "-0.5", "16.7"), ("12.3", "0.5", "17.3"), axis=0
    )
    with pytest.raises(DomainError):
        period_integral(slanted, E8, mode="numeric")


def test_period_branch_ambiguity(period_probe, monkeypatch):
    def fake_roots(self, xf, tf, group_cols=None):
        n = len(xf)
        point = np.repeat(np.arange(n), 2)
        sums = np.ones((2 * n, group_cols[0].shape[1]), dtype=complex)
        theta = np.tile([1.0, 1.0 + 4e-10], n)
        return point, np.full(2 * n, 13.0), theta, np.zeros(n, bool), sums

    monkeypatch.setattr(am._AxisSolver, "roots", fake_roots)
    with pytest.raises(BranchError):
        period_integral(period_probe, E8, n=8, mode="numeric")


def test_period_failed_node_raises(period_probe, monkeypatch):
    angles = 2.0 * math.pi * np.arange(8) / 8
    node = (float(angles[2]), float(angles[5]))
    _fail_when(monkeypatch, lambda x, th: th == node)
    with pytest.raises(NumericError, match=r"root solve failed at theta=\(1\.5708,3\.9270\)"):
        period_integral(period_probe, E8, n=8, mode="numeric")


def test_cloud_csv_roundtrip(tmp_path):
    grid = AmoebaGrid((0.0, 8.0, 3), (0.0, 8.0, 3), 2, 2)
    cloud = sample_amoeba(1, E8, grid)
    path = tmp_path / "cloud.csv"
    write_csv(path, CLOUD_HEADER, cloud_rows(cloud))
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,theta1,theta2,theta3,residual"
    assert len(lines) == len(cloud.samples) + 1
