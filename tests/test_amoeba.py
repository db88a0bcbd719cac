"""Numerical sampling paths: root solving, clouds, fibers, periods."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from tropical_pants.amoeba import (
    AmoebaGrid,
    CLOUD_HEADER,
    _AxisSolver,
    _RootFailure,
    _angles,
    _durand_kerner,
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
)
from tropical_pants.patchwork import build_patchwork, eval_patchwork
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


def test_durand_kerner_known_roots():
    expected = [1.0 + 0j, 2j, -3.0 + 0j]
    coeffs = np.poly(expected)[::-1]  # ascending
    got = sorted(_durand_kerner(coeffs), key=lambda z: (z.real, z.imag))
    for g, e in zip(got, sorted(expected, key=lambda z: (z.real, z.imag))):
        assert abs(g - e) < 1e-10


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
    roots = solver.roots((-100.0, -100.0), (0.0, 0.0))
    assert len(roots) == 1
    x3, theta3 = roots[0]
    assert abs(x3 - 13.0) < 0.05
    assert abs(abs(theta3) - math.pi) < 1e-9


def test_sample_cloud_d1():
    grid = AmoebaGrid((0.0, 16.0, 5), (0.0, 16.0, 5), 3, 3)
    cloud = sample_amoeba(1, E8, grid)
    assert cloud.grid_points == 225
    assert cloud.failed_points == 0
    assert cloud.full_root_points == 225
    assert len(cloud.samples) == 225  # linear in w3: one root each
    assert all(s.residual <= 1e-6 for s in cloud.samples)


def test_sample_residuals_reproducible():
    # stored residual must match an independent re-evaluation
    p = build_patchwork(1)
    grid = AmoebaGrid((2.0, 14.0, 4), (2.0, 14.0, 4), 2, 2)
    cloud = sample_amoeba(1, E8, grid)
    for s in cloud.samples[:20]:
        val, _ = eval_patchwork(p, E8, s.x, s.theta)
        assert abs(val) == pytest.approx(s.residual, abs=1e-15)


def test_sample_determinism():
    grid = AmoebaGrid((0.0, 8.0, 4), (0.0, 8.0, 4), 3, 3)
    a = sample_amoeba(5, E4, grid)
    b = sample_amoeba(5, E4, grid)
    assert a.samples == b.samples
    assert a.full_root_points == b.full_root_points


def _fail_when(monkeypatch, predicate):
    """Make the axis solver raise on the grid points the predicate picks."""
    real = _AxisSolver.roots

    def roots(self, x_fixed, theta_fixed):
        if predicate(x_fixed, theta_fixed):
            raise _RootFailure("injected")
        return real(self, x_fixed, theta_fixed)

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
    from tropical_pants import amoeba as am

    def fake_roots(self, x_fixed, theta_fixed):
        return [(13.0, 1.0), (13.0, 1.0 + 4e-10)]

    monkeypatch.setattr(am._AxisSolver, "roots", fake_roots)
    with pytest.raises(BranchError):
        period_integral(period_probe, E8, n=8, mode="numeric")


def test_cloud_csv_roundtrip(tmp_path):
    grid = AmoebaGrid((0.0, 8.0, 3), (0.0, 8.0, 3), 2, 2)
    cloud = sample_amoeba(1, E8, grid)
    path = tmp_path / "cloud.csv"
    write_csv(path, CLOUD_HEADER, cloud_rows(cloud))
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,theta1,theta2,theta3,residual"
    assert len(lines) == len(cloud.samples) + 1
