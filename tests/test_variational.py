import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from grovekit.variational import (
    CriticalityError,
    FiniteGroup,
    Functional,
    GeodesicPath,
    MetricField,
    PolicyCostFunction,
    VariationalError,
    christoffel,
    constant_metric,
    critical_trace_csv,
    cyclic_group,
    dihedral_group,
    direct_product,
    euclidean_metric,
    first_variation,
    integrate_geodesic,
    lever_metric,
    optimal_policy_path,
    policy_information,
    solve_critical,
    sphere_metric,
    word_distance_cost,
)


def quadratic(center):
    center = np.asarray(center, dtype=float)
    return Functional(lambda t: float((t - center) @ (t - center)),
                      len(center), "quadratic")


def test_first_variation_vanishes_at_minimum():
    F = quadratic([0.0, 0.0])
    assert np.allclose(first_variation(F, [0.0, 0.0]), 0.0, atol=1e-9)


def test_first_variation_of_constant_is_zero():
    F = Functional(lambda t: 4.2, 3, "const")
    assert np.allclose(first_variation(F, [1.0, -2.0, 0.5]), 0.0)


def test_first_variation_matches_analytic_on_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = rng.normal(size=d)
        B = rng.normal(size=(d, d))
        B = B + B.T

        def f(t, a=a, B=B):
            return float(a @ t + 0.5 * t @ B @ t + (t ** 3).sum())

        theta = rng.normal(size=d)
        grad = first_variation(Functional(f, d), theta, h=1e-5)
        analytic = a + B @ theta + 3 * theta ** 2
        scale = max(1.0, float(np.linalg.norm(analytic)))
        assert np.linalg.norm(grad - analytic) / scale < 1e-5


def test_first_variation_reports_nonfinite():
    F = Functional(lambda t: math.inf if t[0] > 0 else 0.0, 1, "pole")
    with pytest.raises(VariationalError, match="component 0"):
        first_variation(F, [0.0])


def test_solve_critical_random_quadratics():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(1, 9))
        A = rng.normal(size=(d, d))
        H = A @ A.T + d * np.eye(d)
        c = rng.normal(size=d)

        def f(t, H=H, c=c):
            return float(0.5 * (t - c) @ H @ (t - c))

        theta = solve_critical(Functional(f, d), rng.normal(size=d), tol=1e-6)
        assert np.max(np.abs(theta - c)) < 1e-4


def test_solve_critical_residual_verified_independently():
    F = quadratic([1.0, -2.0])
    theta = solve_critical(F, [5.0, 5.0], tol=1e-7)
    assert np.linalg.norm(first_variation(F, theta)) < 1e-7


def test_solve_critical_rosenbrock():
    F = Functional(
        lambda t: float((1 - t[0]) ** 2 + 100 * (t[1] - t[0] ** 2) ** 2),
        2, "rosenbrock")
    theta = solve_critical(F, [-1.2, 1.0], tol=1e-4)
    assert np.linalg.norm(first_variation(F, theta)) < 1e-4


def test_solve_critical_cap_carries_best_point():
    F = quadratic([0.0])
    with pytest.raises(CriticalityError) as err:
        solve_critical(F, [10.0], tol=1e-12, max_iter=3)
    assert err.value.best_theta.shape == (1,)
    assert math.isfinite(err.value.residual)


def test_solve_critical_is_deterministic():
    F = quadratic([0.3, 0.7, -1.1])
    a = solve_critical(F, [2.0, -2.0, 0.0], tol=1e-8)
    b = solve_critical(F, [2.0, -2.0, 0.0], tol=1e-8)
    assert np.array_equal(a, b)


def test_critical_trace_csv_layout():
    F = quadratic([0.0, 0.0])
    trace = []
    solve_critical(F, [1.0, 1.0], tol=1e-6, trace=trace)
    csv = critical_trace_csv(trace)
    header = csv.splitlines()[0]
    assert header == "iteration,theta0,theta1,value,residual"
    assert len(csv.splitlines()) == len(trace) + 1


def test_christoffel_euclidean_is_zero():
    gamma = christoffel(euclidean_metric(3), [0.3, -1.0, 2.0])
    assert np.allclose(gamma, 0.0)


def test_christoffel_sphere_closed_form():
    theta = 0.7
    gamma = christoffel(sphere_metric(), [theta, 0.3])
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta),
                                           abs=1e-4)
    assert gamma[1, 0, 1] == pytest.approx(math.cos(theta) / math.sin(theta),
                                           abs=1e-4)


def test_christoffel_lower_index_symmetry():
    gamma = christoffel(sphere_metric(), [0.9, 1.1])
    assert np.allclose(gamma, np.transpose(gamma, (0, 2, 1)))


def test_metric_field_rejects_asymmetry():
    from grovekit.variational import MetricField
    field = MetricField(2, lambda p: np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(VariationalError, match="symmetric"):
        field([0.0, 0.0])


def test_metric_field_rejects_indefinite():
    field = constant_metric(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(VariationalError, match="positive-definite"):
        field([0.0, 0.0])


def test_euclidean_geodesic_is_straight():
    path = integrate_geodesic(euclidean_metric(2), [0.0, 0.0], [1.0, 0.5],
                              1000, 0.001)
    line = np.outer(np.linspace(0.0, 1.0, 1001), [1.0, 0.5])
    assert np.max(np.abs(path.points - line)) < 1e-8


def test_sphere_equator_stays_on_great_circle():
    path = integrate_geodesic(sphere_metric(), [math.pi / 2, 0.0], [0.0, 1.0],
                              1000, 0.002)
    assert np.max(np.abs(path.points[:, 0] - math.pi / 2)) < 1e-4


def test_geodesic_energy_conservation():
    for metric, start, v in ((euclidean_metric(2), [0.0, 0.0], [1.0, 0.5]),
                             (sphere_metric(), [1.0, 0.2], [0.3, 0.7])):
        path = integrate_geodesic(metric, start, v, 1000, 0.001)
        energies = path.energies(metric)
        assert np.max(np.abs(energies - energies[0])) / energies[0] < 1e-3


def test_geodesic_fourth_order_convergence():
    def endpoint(steps):
        return integrate_geodesic(sphere_metric(), [1.0, 0.2], [0.3, 0.7],
                                  steps, 0.5 / steps).end

    e1, e2, e3 = endpoint(50), endpoint(100), endpoint(200)
    ratio = np.linalg.norm(e1 - e2) / np.linalg.norm(e2 - e3)
    assert 13.0 <= ratio <= 19.0


def test_geodesic_csv_round_trip():
    path = integrate_geodesic(euclidean_metric(2), [0.0, 1.0], [0.5, -0.5],
                              20, 0.05)
    restored = GeodesicPath.from_csv(path.to_csv())
    assert np.array_equal(restored.points, path.points)
    assert np.array_equal(restored.velocities, path.velocities)
    assert restored.h == path.h


_coords = st.floats(allow_nan=False, width=64)


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    arrays(float, st.tuples(st.integers(1, 30), st.just(2 * d)),
           elements=_coords),
    _coords)))
def test_geodesic_csv_round_trip_property(data):
    rows, h = data
    d = rows.shape[1] // 2
    path = GeodesicPath(rows[:, :d], rows[:, d:], h)
    restored = GeodesicPath.from_csv(path.to_csv())
    assert np.array_equal(restored.points, path.points)
    assert np.array_equal(restored.velocities, path.velocities)
    assert restored.h == path.h


def _christoffel_loop(g, p, h=1e-5):
    """Per-element reference for `christoffel`."""
    p = np.asarray(p, dtype=float)
    d = g.dimension
    dg = np.empty((d, d, d))
    for l in range(d):
        up, dn = p.copy(), p.copy()
        up[l] += h
        dn[l] -= h
        dg[l] = (g(up) - g(dn)) / (2.0 * h)
    ginv = np.linalg.inv(g(p))
    gamma = np.empty((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                s = 0.0
                for l in range(d):
                    s += ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


def test_christoffel_matches_loop_reference():
    def warped(p):
        return np.array(
            [[2 + math.sin(p[0]), 0.3 * p[1], 0.1 * p[2] ** 2],
             [0.3 * p[1], 3 + p[0] ** 2, 0.2 * math.cos(p[2])],
             [0.1 * p[2] ** 2, 0.2 * math.cos(p[2]), 4 + p[1] ** 2]])
    rng = np.random.default_rng(5)
    for metric, points in (
            (sphere_metric(), rng.uniform([0.2, -3.0], [2.9, 3.0], (200, 2))),
            (MetricField(3, warped), rng.uniform(-1.0, 1.0, (100, 3)))):
        for p in points:
            assert np.array_equal(christoffel(metric, p),
                                  _christoffel_loop(metric, p))


def test_group_tables_match_loop_reference():
    for n in range(1, 33):
        size = 2 * n
        table = [[(a % n + b % n) % n + n * (b // n) if a < n
                  else (a % n - b % n) % n + n * (1 - b // n)
                  for b in range(size)] for a in range(size)]
        assert np.array_equal(dihedral_group(n).table, table)
    for a, b in ((dihedral_group(4), cyclic_group(8)),
                 (cyclic_group(3), dihedral_group(3)),
                 (cyclic_group(1), cyclic_group(5))):
        nb = b.order
        table = [[a.mul(i, k) * nb + b.mul(j, l)
                  for k in range(a.order) for l in range(nb)]
                 for i in range(a.order) for j in range(nb)]
        product = direct_product(a, b)
        assert np.array_equal(product.table, table)
        assert product.generators == (
            tuple(x * nb for x in a.generators) + b.generators)


def test_group_constructors():
    for g in (cyclic_group(5), dihedral_group(4),
              direct_product(cyclic_group(3), cyclic_group(4))):
        assert g.mul(0, 1) == 1
        assert g.mul(g.inverse(2), 2) == 0


def test_group_rejects_bad_table():
    table = np.zeros((3, 3), dtype=int)
    table[0] = [0, 1, 2]
    table[:, 0] = [0, 1, 2]
    table[1, 1] = 1  # idempotent non-identity breaks associativity/inverses
    table[1, 2] = 2
    table[2, 1] = 2
    table[2, 2] = 1
    with pytest.raises(VariationalError):
        FiniteGroup(("e", "a", "b"), table, (1,))


def test_group_order_cap():
    with pytest.raises(VariationalError, match="order"):
        cyclic_group(65)


def test_policy_information_nonnegative():
    pcf = word_distance_cost(cyclic_group(4))
    assert policy_information(pcf, 0.2) >= 0.0


def test_policy_information_constant_cost_baseline():
    eps = 0.2
    for group in (cyclic_group(4), dihedral_group(3)):
        pcf = PolicyCostFunction(group, lambda a, b: 1.5)
        info = policy_information(pcf, eps)
        assert info == pytest.approx(1.0 / eps ** 2, rel=1e-4)


def test_policy_information_scales_with_neutral_factor():
    eps = 0.2
    base = word_distance_cost(cyclic_group(4))
    doubled_group = direct_product(cyclic_group(4), cyclic_group(2))
    doubled = PolicyCostFunction(doubled_group,
                                 lambda a, b: base.cost(a // 2, b // 2))
    per_base = policy_information(base, eps, normalized=False) / 4
    per_doubled = policy_information(doubled, eps, normalized=False) / 8
    assert abs(per_base - per_doubled) < 1e-6


def test_lever_metric_is_positive_definite():
    for group in (cyclic_group(6), dihedral_group(4)):
        metric = lever_metric(word_distance_cost(group))
        point = np.zeros(metric.dimension)
        vals = np.linalg.eigvalsh(metric(point))
        assert vals[0] > 0


def test_optimal_policy_path_runs():
    pcf = word_distance_cost(dihedral_group(4))
    path = optimal_policy_path(pcf, np.zeros(2), 50)
    assert path.points.shape == (51, 2)
    assert np.all(np.isfinite(path.points))
