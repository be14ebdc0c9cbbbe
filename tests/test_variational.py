import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from grovekit.infotheory import InfoError
from grovekit.variational import (
    MAX_GEODESIC_STEPS,
    MAX_LEVER_DIMENSION,
    MIN_EIGENVALUE,
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

from test_infotheory import _peak_above_start


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


@pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf])
def test_first_variation_rejects_a_step_that_is_not_positive(h):
    # the step-size rule of `integrate_geodesic`, so nan and inf fail too
    with pytest.raises(VariationalError,
                       match="^step h must be finite and > 0$"):
        first_variation(quadratic([0.0]), [1.0], h=h)


@pytest.mark.parametrize("theta", [[], [0.0, 1.0]])
def test_first_variation_rejects_wrong_length(theta):
    F = Functional(lambda t: float(t[0]), 1, "line")
    with pytest.raises(VariationalError) as err:
        first_variation(F, theta)
    assert str(err.value) == (f"line parameters must be 1 finite numbers, "
                              f"got shape ({len(theta)},)")


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


@pytest.mark.parametrize("center,value", [(1e200, "inf"), (math.nan, "nan")])
def test_solve_critical_refuses_a_start_whose_value_is_not_finite(
        center, value):
    calls = []
    inner = quadratic([center, 0.0])
    F = Functional(lambda t: calls.append(t) or inner.evaluate(t), 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(VariationalError) as err:
            solve_critical(F, [1.0, 1.0])
    assert type(err.value) is VariationalError
    assert str(err.value) == f"value {value} at theta0 is not finite"
    # the start value the solver computes anyway, and no other evaluation
    assert len(calls) == 1
    assert caught == []


@pytest.mark.parametrize("kwargs,message", [
    ({"tol": 0.0}, "tol must be > 0"),
    ({"tol": -1.0}, "tol must be > 0"),
    ({"tol": math.nan}, "tol must be > 0"),
    ({"theta0": [math.inf, 0.0]},
     "theta0 must be 2 finite numbers, got [inf, 0.0]"),
    ({"theta0": [0.0]}, "theta0 must be 2 finite numbers, got shape (1,)"),
], ids=["tol-0", "tol-negative", "tol-nan", "theta0-inf", "theta0-short"])
def test_solve_critical_checks_its_arguments_before_any_evaluation(
        kwargs, message):
    calls = []
    F = Functional(lambda t: calls.append(t) or 0.0, 2)
    with pytest.raises(VariationalError) as err:
        solve_critical(F, **{"theta0": [1.0, 1.0], **kwargs})
    assert str(err.value) == message
    assert calls == []


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


def _steep(p):
    # d g_11 / d p_0 = 2e309 p_0 passes the float maximum for p_0 > 0.09
    return np.diag([1.0, 1e306 * (1.0 + 1e3 * p[0] * p[0])])


def test_christoffel_keeps_a_non_finite_bracket_in_its_own_rows():
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = christoffel(MetricField(2, _steep), [0.1, 0.2])
    assert repr(gamma.tolist()) == (
        "[[[0.0, 0.0], [0.0, -inf]], [[0.0, inf], [inf, 0.0]]]")


@pytest.mark.parametrize("start,velocity,error", [
    ([0.0, 0.2], [1.0, 0.0], "path is not finite at step 8"),
    ([0.1, 0.2], [1.0, 0.0],
     "metric failed at step 0: metric is not finite at [nan, nan]"),
    ([-0.01, 0.2], [1.0, 1.0],
     "metric failed at step 0: metric is not finite at "
     "[-2.5000000000005014e+302, 0.20545454545454556]"),
])
def test_geodesic_through_an_overflowing_bracket_fails(start, velocity,
                                                        error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VariationalError) as err:
            integrate_geodesic(MetricField(2, _steep), start, velocity, 40,
                               0.01)
    assert str(err.value) == error
    assert np.isfinite(err.value.partial.points).all()


def test_metric_field_rejects_asymmetry():
    from grovekit.variational import MetricField
    field = MetricField(2, lambda p: np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(VariationalError, match="symmetric"):
        field([0.0, 0.0])


def test_metric_field_rejects_a_matrix_of_the_wrong_shape():
    field = MetricField(2, lambda p: np.eye(3))
    with pytest.raises(VariationalError, match=re.escape(
            "metric returned shape (3, 3), expected (2, 2)")):
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


def test_sphere_path_bytes_are_pinned():
    # every bit of a long path, signs of zeros included, is part of the
    # determinism contract; a faster metric check must not move one
    path = integrate_geodesic(sphere_metric(), [1.0, 0.5], [0.3, -0.8],
                              1000, 0.001)
    digest = hashlib.sha256(path.points.tobytes()
                            + path.velocities.tobytes()).hexdigest()
    assert digest == ("b770047b57100fa9c291c25412dc6c36"
                      "254ea67d2b423dc77295e2d67952c099")


@pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -0.001])
def test_geodesic_rejects_bad_step_before_any_step(h):
    calls = []
    metric = MetricField(2, lambda p: calls.append(p) or np.eye(2))
    with pytest.raises(VariationalError, match="step h must be finite"):
        integrate_geodesic(metric, [0.0, 0.0], [1.0, 0.0], 10, h)
    assert calls == []


@pytest.mark.parametrize("steps", [MAX_GEODESIC_STEPS + 1, 10 ** 18])
def test_geodesic_step_count_is_bounded(steps):
    calls = []
    metric = MetricField(2, lambda p: calls.append(p) or np.eye(2))
    message = f"at most {MAX_GEODESIC_STEPS} steps, got {steps}"
    with pytest.raises(VariationalError, match=message):
        integrate_geodesic(metric, [0.0, 0.0], [1.0, 0.0], steps, 0.01)
    assert calls == []
    with pytest.raises(VariationalError, match=message):
        optimal_policy_path(word_distance_cost(cyclic_group(4)), [0.0], steps)


@pytest.mark.parametrize("start,velocity", [([0.0], [1.0, 0.0]),
                                            ([0.0, 0.0], [1.0, 0.0, 0.0])])
def test_geodesic_rejects_wrong_dimension(start, velocity):
    with pytest.raises(VariationalError, match="must be 2 finite numbers"):
        integrate_geodesic(euclidean_metric(2), start, velocity, 10, 0.01)


@pytest.mark.parametrize("start,velocity", [([math.nan, 0.0], [1.0, 0.0]),
                                            ([0.0, 0.0], [math.inf, 0.0]),
                                            ([0.0, -math.inf], [1.0, 0.0]),
                                            ([0.0, 0.0], [0.0, math.nan])])
def test_geodesic_rejects_non_finite_start_or_velocity(start, velocity):
    calls = []
    metric = MetricField(2, lambda p: calls.append(p) or np.eye(2))
    with pytest.raises(VariationalError, match="must be 2 finite numbers"):
        integrate_geodesic(metric, start, velocity, 10, 0.01)
    assert calls == []


def test_geodesic_partial_path_on_metric_failure():
    def turning(p):
        # positive-definite for p0 < 0.05, indefinite beyond
        return np.diag([1.0, 0.05 - p[0]])
    with pytest.raises(VariationalError, match="metric failed at step") as err:
        integrate_geodesic(MetricField(2, turning), [0.0, 0.0], [1.0, 0.0],
                           100, 0.01)
    partial = err.value.partial
    done = len(partial.points) - 1
    assert 0 < done < 100
    assert str(err.value).startswith(f"metric failed at step {done}: ")
    full = integrate_geodesic(MetricField(2, turning), [0.0, 0.0],
                              [1.0, 0.0], done, 0.01)
    assert partial.points.tobytes() == full.points.tobytes()
    assert partial.velocities.tobytes() == full.velocities.tobytes()


@pytest.mark.parametrize("metric,start,velocity,h,error", [
    (euclidean_metric(2), [0.0, 0.0], [1.0, 0.0], 1e308,
     "path is not finite at step 1"),
    (sphere_metric(), [math.pi / 2, 0.0], [0.0, 1.0], 1e308,
     "path is not finite at step 1"),
    (euclidean_metric(2), [0.0, 0.0], [-1.0, 1e308], 0.001,
     "path is not finite at step 0"),
    (sphere_metric(), [math.pi / 2, 0.0], [-1.0, 1e308], 0.001,
     "metric failed at step 0: sphere metric needs a finite theta, got inf"),
], ids=["euclidean-h", "sphere-h", "euclidean-velocity", "sphere-velocity"])
def test_geodesic_that_overflows_fails_with_its_finite_part(
        metric, start, velocity, h, error):
    with pytest.raises(VariationalError) as err:
        integrate_geodesic(metric, start, velocity, 20, h)
    assert str(err.value) == error
    partial = err.value.partial
    done = len(partial.points) - 1
    assert np.isfinite(partial.points).all()
    assert np.isfinite(partial.velocities).all()
    if done:
        full = integrate_geodesic(metric, start, velocity, done, h)
        assert partial.points.tobytes() == full.points.tobytes()


def test_geodesic_stops_at_its_first_non_finite_step():
    calls = []
    # an identity metric that is not declared constant, so every RK4
    # stage asks it again
    metric = MetricField(2, lambda p: calls.append(p) or np.eye(2))
    integrate_geodesic(metric, [0.0, 0.0], [1.0, 0.0], 1, 0.01)
    per_step = len(calls)
    calls.clear()
    with pytest.raises(VariationalError) as err:
        integrate_geodesic(metric, [0.0, 0.0], [1.0, 0.0], 1000, 1e308)
    assert str(err.value) == "path is not finite at step 1"
    assert len(err.value.partial.points) == 2
    assert 0 < len(calls) <= 2 * per_step


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_sphere_metric_rejects_non_finite_theta(theta):
    with pytest.raises(VariationalError, match="finite theta"):
        sphere_metric()([theta, 0.0])


def test_constant_indefinite_metric_fails_at_step_zero():
    metric = constant_metric([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(VariationalError) as err:
        integrate_geodesic(metric, [0.0, 0.0], [1.0, 0.0], 10, 0.01)
    assert str(err.value) == ("metric failed at step 0: metric is not "
                              "positive-definite at [1e-05, 0.0]")
    assert err.value.partial.points.tolist() == [[0.0, 0.0]]
    assert err.value.partial.velocities.tolist() == [[1.0, 0.0]]


def test_constant_metrics_compute_one_connection_per_path():
    calls = []
    metric = MetricField(3, lambda p: calls.append(p) or np.eye(3),
                         constant=True)
    integrate_geodesic(metric, [0.0, 0.0, 0.0], [1.0, 0.5, 0.0], 50, 0.01)
    assert len(calls) == 2 * 3 + 1  # one christoffel stencil
    assert euclidean_metric(2).constant and constant_metric(np.eye(2)).constant
    assert lever_metric(word_distance_cost(dihedral_group(4))).constant
    assert not sphere_metric().constant


_signed = st.one_of(st.sampled_from((0.0, -0.0)),
                    st.floats(-10.0, 10.0, width=64))


@st.composite
def _constant_cases(draw):
    d = draw(st.integers(1, 3))
    a = draw(arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    m = a @ a.T + np.eye(d)
    m = 0.5 * (m + m.T)  # exactly symmetric whatever the matmul order
    start = draw(arrays(float, d, elements=_signed))
    velocity = draw(arrays(float, d, elements=_signed))
    return (m, start, velocity, draw(st.integers(1, 20)),
            draw(st.floats(1e-3, 0.5)))


@given(_constant_cases())
def test_constant_metric_path_is_bit_identical_to_per_stage(case):
    m, start, velocity, steps, h = case
    fast = integrate_geodesic(constant_metric(m), start, velocity, steps, h)
    slow = integrate_geodesic(MetricField(len(m), lambda p: m), start,
                              velocity, steps, h)
    for a, b in ((fast.points, slow.points),
                 (fast.velocities, slow.velocities)):
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def _square_matrices(draw):
    d = draw(st.integers(1, 3))
    a = draw(arrays(float, (d, d), elements=st.floats(width=64)))
    kind = draw(st.sampled_from(("random", "symmetric", "nearly")))
    if kind == "random":
        return a
    sym = np.triu(a) + np.triu(a, 1).T
    if kind == "nearly" and d > 1:
        # an entry near the float maximum may overflow to +-inf, a case the
        # examples below cover
        with np.errstate(over="ignore"):
            sym[0, 1] *= 1.0 + draw(st.floats(-1e-3, 1e-3))
    return sym


def _complaint(g):
    """What `MetricField` says of g at the origin, or None if it accepts g."""
    try:
        MetricField(len(g), lambda p: g)(np.zeros(len(g)))
    except VariationalError as exc:
        return str(exc)
    return None


@given(_square_matrices())
@example(np.array([[1.0, math.nan], [math.nan, 1.0]]))
@example(np.array([[math.nan]]))
@example(np.array([[1.0, math.inf], [math.inf, 1.0]]))
@example(np.array([[1.0, math.inf], [-math.inf, 1.0]]))
@example(np.array([[1.0, 0.5], [0.5 * (1 + 1e-9), 1.0]]))
@example(np.array([[1.0, 0.5], [0.5 * (1 + 1e-3), 1.0]]))
@example(np.full((3, 3), math.inf))
@example(np.array([[math.inf, 0.0], [0.0, 1.0]]))
@example(np.array([[math.inf]]))
def test_symmetry_verdict_matches_allclose(g):
    # a matrix that is not finite fails before its symmetry is asked
    point = np.zeros(len(g)).tolist()
    with np.errstate(all="ignore"):
        complaint = _complaint(g)
        if not np.isfinite(g).all():
            assert complaint == f"metric is not finite at {point}"
            return
        assert ((complaint != f"metric is not symmetric at {point}")
                == np.allclose(g, g.T, atol=0.0))


def _diagonal_verdict(diag):
    """The complaint about diag(diag), or None when it is a metric: the
    eigenvalues of a diagonal matrix are exactly its entries."""
    if not all(map(math.isfinite, diag)):
        return "not finite"
    return None if min(diag) > MIN_EIGENVALUE else "not positive-definite"


_DIAGONAL_ENTRIES = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    1e-9, np.nextafter(1e-9, 0.0), np.nextafter(1e-9, math.inf),
    1.0, -1.0, 1e308, math.inf, -math.inf, math.nan)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.one_of(st.sampled_from(_DIAGONAL_ENTRIES), st.floats()),
             min_size=d, max_size=d),
    arrays(bool, (d, d)))))
@example(([1e308, np.nextafter(1e-9, math.inf)], np.zeros((2, 2), bool)))
@example(([math.nan, 1.0], np.ones((2, 2), bool)))
# eigvalsh rescales a largest |entry| above 2**485 and returns [1e-09, ...];
# the exact least eigenvalue is above MIN_EIGENVALUE
@example(([1.0000000000000003e-09, 8.247890858892686e+214],
          np.zeros((2, 2), bool)))
# LAPACK's rescaling bounds, 2**485 and 2**-485, and the floats past them
@example(([1.0000000000000003e-09, 2.0 ** 485], np.zeros((2, 2), bool)))
@example(([1.0000000000000003e-09, np.nextafter(2.0 ** 485, math.inf)],
          np.zeros((2, 2), bool)))
@example(([2.0 ** -485, 3e-300], np.zeros((2, 2), bool)))
@example(([np.nextafter(2.0 ** -485, 0.0), 3e-300], np.zeros((2, 2), bool)))
def test_diagonal_verdict_matches_eigvalsh(data):
    diag, negative = data
    g = np.diag(diag)
    g[negative & ~np.eye(len(diag), dtype=bool)] = -0.0
    expected = _diagonal_verdict(diag)
    point = np.zeros(len(diag))
    if expected is not None:
        with pytest.raises(VariationalError) as err:
            MetricField(len(diag), lambda p: g)(point)
        assert str(err.value) == f"metric is {expected} at {point.tolist()}"
        return
    assert MetricField(len(diag), lambda p: g)(point) is g
    # christoffel inverts an accepted diagonal by reciprocals
    assert (np.diag(1.0 / g.diagonal()).tobytes()
            == np.linalg.inv(g).tobytes()
            == np.linalg.inv(np.diag(diag)).tobytes())


@pytest.mark.parametrize("diag", [
    [1.0000000000000003e-09, 8.247890858892686e+214],
    [1.0000000000000003e-09, np.nextafter(2.0 ** 485, math.inf)]],
    ids=["8e214", "past-2**485"])
def test_extreme_diagonal_metric_gets_the_exact_verdict(diag):
    # eigvalsh rescales these and would call them not positive-definite
    g = np.diag(diag)
    assert MetricField(2, lambda p: g)([0.0, 0.0]) is g


#: entries at and near the float maximum, whose eigenvalues may overflow
_HUGE_ENTRIES = (1.7976931348623157e308, 1.7e308, 1e308, -1e308, 8e307)


@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    arrays(float, (d, d), elements=st.one_of(
        st.sampled_from(_HUGE_ENTRIES),
        st.floats(allow_nan=False, allow_infinity=False))),
    st.one_of(st.sampled_from(_HUGE_ENTRIES), st.floats(1e-300, 1e308)))))
@example((np.array([[1.7e308, 0.0], [0.0, 1.7e308]]), 1e308))
def test_finite_metric_is_accepted_iff_its_least_eigenvalue_passes(data):
    # a nonzero off-diagonal entry sends the matrix to eigvalsh, whose
    # largest eigenvalue may overflow to inf while the matrix is a metric
    a, off = data
    g = np.triu(a) + np.triu(a, 1).T
    g[0, 1] = g[1, 0] = off
    try:
        accepted = np.linalg.eigvalsh(g)[0] > MIN_EIGENVALUE
    except np.linalg.LinAlgError:
        accepted = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        complaint = _complaint(g)
    point = np.zeros(len(g)).tolist()
    assert complaint == (None if accepted
                         else f"metric is not positive-definite at {point}")


@st.composite
def _non_finite_metrics(draw):
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("random", "symmetric", "diagonal")))
    g = draw(arrays(float, (d, d), elements=st.floats(width=64)))
    if kind == "symmetric":
        g = np.triu(g) + np.triu(g, 1).T
    elif kind == "diagonal":
        g = np.diag(g.diagonal())
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    g[i, j] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    point = draw(arrays(float, d, elements=_signed))
    return g, point


@given(_non_finite_metrics())
@example((np.array([[1.0, math.nan], [math.nan, 1.0]]), np.zeros(2)))
@example((np.array([[math.nan]]), np.zeros(1)))
def test_metric_with_a_non_finite_entry_is_not_finite(case):
    g, point = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VariationalError) as err:
            MetricField(len(g), lambda p: g)(point)
    assert str(err.value) == f"metric is not finite at {point.tolist()}"


@pytest.mark.parametrize("matrix", [[[math.inf, 0.0], [0.0, 1.0]],
                                    [[math.inf]],
                                    np.full((3, 3), math.inf)],
                         ids=["inf-diagonal", "inf-1x1", "all-inf"])
def test_metric_with_an_infinite_entry_is_rejected(matrix):
    # eigvalsh gives nan or inf here, or raises; none of it may pass
    metric = constant_metric(matrix)
    start = np.zeros(metric.dimension)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VariationalError,
                           match="step 0: metric is not finite") as err:
            integrate_geodesic(metric, start, np.eye(metric.dimension)[0],
                               3, 0.1)
    assert len(err.value.partial.points) == 1


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


@pytest.mark.parametrize("text,message", [
    ("# h=0.1 velocity=1\np0,v0\n1,2,3\n", r"even column count, got \[3\]"),
    ("# h=0.1 velocity=1\np0,v0\n1,2\n1,2,3,4\n",
     r"even column count, got \[2, 4\]"),
    ("# h=fast velocity=1\np0,v0\n1,2\n", "malformed"),
    ("# h=\n", "malformed"),
    ("# h=0.1 velocity=1\np0,v0\n1,x\n", "malformed"),
    ("# h=0.1 velocity=1\np0,v0\n", "no rows"),
    ("# h=0.1 velocity=1\n1,2\n3,4\n", "column header p0,v0"),
], ids=["odd-columns", "ragged", "bad-h", "empty-h", "bad-entry", "no-rows",
        "no-column-header"])
def test_geodesic_csv_rejects_malformed_input(text, message):
    with pytest.raises(VariationalError, match=message):
        GeodesicPath.from_csv(text)


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
    # every row is a permutation; columns a and b are not
    rows_only = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(VariationalError, match="element a has no inverse"):
        FiniteGroup(("e", "a", "b"), rows_only, (1,))
    with pytest.raises(VariationalError, match="element a has no inverse"):
        FiniteGroup(("e", "a", "b"), rows_only.T, (1,))


#: a Latin square with identity 0 that is not associative: (1 1) 2 = 0 2 = 2
#: but 1 (1 2) = 1 3 = 4
NON_ASSOCIATIVE = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                   [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]

#: a loop whose rows 0-2 associate, (a b) c = a (b c) for every b and c,
#: and whose rows 3-5 do not.  The rows that associate form a subloop (the
#: left nucleus), at most half the table when it is not all of it, so no
#: table fails in its last row alone: this one fails as late as any can.
LATE_NON_ASSOCIATIVE = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3],
                        [2, 0, 1, 5, 3, 4], [3, 4, 5, 0, 2, 1],
                        [4, 5, 3, 1, 0, 2], [5, 3, 4, 2, 1, 0]]


def test_late_table_fails_only_in_its_second_half():
    t = LATE_NON_ASSOCIATIVE
    assert [all(t[t[a][b]][c] == t[a][t[b][c]]
                for b in range(6) for c in range(6))
            for a in range(6)] == [True] * 3 + [False] * 3


@pytest.mark.parametrize("table,generators,message", [
    ([[0, 1, 2], [1, 2, 0]], (1,), "malformed composition table"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 3]], (1,), "malformed composition table"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, -1]], (1,), "malformed composition table"),
    ([[0, 1], [1, 0.5]], (1,), "malformed composition table"),
    ([[1, 2, 0], [2, 0, 1], [0, 1, 2]], (1,), "element 0 is not an identity"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], (3,), "generator index 3 out of range"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], (-1,),
     "generator index -1 out of range"),
    (NON_ASSOCIATIVE, (1,), "composition table is not associative"),
    (LATE_NON_ASSOCIATIVE, (1,), "composition table is not associative"),
], ids=["short", "entry-above-order", "negative-entry", "fractional-entry",
        "no-identity", "generator-above", "generator-below", "not-associative",
        "not-associative-in-late-rows"])
def test_group_rejects_each_table_fault_by_name(table, generators, message):
    labels = tuple("eabcdf"[:len(table[0])])
    with pytest.raises(VariationalError, match=f"^{re.escape(message)}$"):
        FiniteGroup(labels, table, generators)


@pytest.mark.parametrize("make", [
    lambda: dihedral_group(32),
    lambda: direct_product(cyclic_group(8), cyclic_group(8))],
    ids=["dihedral-32", "cyclic-8-x-cyclic-8"])
def test_order_64_group_checks_hold_no_cube(make):
    # one 64^3 array of int64 indices would take 2 MiB
    group, peak = _peak_above_start(make)
    assert group.order == 64
    assert peak <= 2 ** 18


def test_group_keeps_the_table_it_checked():
    reference = cyclic_group(3)
    listed = FiniteGroup(reference.labels, reference.table.tolist(), (1,))
    assert isinstance(listed.table, np.ndarray)
    assert np.array_equal(listed.table, reference.table)
    assert listed.mul(1, 2) == 0
    assert (policy_information(word_distance_cost(listed), 0.5)
            == policy_information(word_distance_cost(reference), 0.5))
    # neither the table nor the inverses can change after the checks
    for array in (reference.table, reference.inverses):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 0
    assert reference.mul(1, 1) == 2 and reference.inverse(1) == 2


def test_groups_compare_by_identity():
    group = cyclic_group(3)
    assert group == group
    assert group != cyclic_group(3)
    assert hash(group) == hash(group)
    assert len({group, cyclic_group(3)}) == 2


def test_direct_product_order_is_bounded():
    with pytest.raises(VariationalError,
                       match="^product order 72 exceeds 64$"):
        direct_product(cyclic_group(8), cyclic_group(9))


def test_lever_metric_needs_a_generator():
    group = cyclic_group(4)
    bare = FiniteGroup(group.labels, group.table, ())
    with pytest.raises(VariationalError,
                       match="^policy group declares no generators$"):
        lever_metric(PolicyCostFunction(bare, lambda a, b: 0.0))


# only values well above the bound: between it and a few thousand, the
# arrays of size d^2 and d^3 fit in memory and take gigabytes to fill
@pytest.mark.parametrize("dimension", [MAX_LEVER_DIMENSION + 1, 3000])
def test_metric_dimension_is_bounded(dimension):
    message = f"at most {MAX_LEVER_DIMENSION} lever dimensions, got {dimension}"
    with pytest.raises(VariationalError, match=message):
        euclidean_metric(dimension)
    with pytest.raises(VariationalError, match=message):
        Functional(lambda t: 0.0, dimension)
    calls = []
    with pytest.raises(VariationalError, match=message):
        MetricField(dimension, lambda p: calls.append(p) or np.eye(2))
    assert calls == []
    # each generator listed is one lever coordinate of `lever_metric`
    group = cyclic_group(4)
    with pytest.raises(VariationalError, match=f"got {dimension}"):
        FiniteGroup(group.labels, group.table, (1,) * dimension)


@pytest.mark.parametrize("dimension", [0, -1])
def test_metric_dimension_is_at_least_one(dimension):
    message = f"^lever dimension must be >= 1, got {dimension}$"
    with pytest.raises(VariationalError, match=message):
        euclidean_metric(dimension)
    with pytest.raises(VariationalError, match=message):
        Functional(lambda t: 0.0, dimension)
    with pytest.raises(VariationalError, match=message):
        MetricField(dimension, lambda p: np.eye(0))


def test_group_order_cap():
    with pytest.raises(VariationalError, match="order"):
        cyclic_group(65)


@pytest.mark.parametrize("make", [cyclic_group, dihedral_group],
                         ids=lambda make: make.__name__)
def test_group_of_order_zero_is_rejected(make):
    with pytest.raises(VariationalError, match="^group must be nonempty$"):
        make(0)


def test_policy_information_nonnegative():
    pcf = word_distance_cost(cyclic_group(4))
    assert policy_information(pcf, 0.2) >= 0.0


def test_policy_information_constant_cost_baseline():
    eps = 0.2
    for group in (cyclic_group(4), dihedral_group(3)):
        pcf = PolicyCostFunction(group, lambda a, b: 1.5)
        info = policy_information(pcf, eps)
        assert info == pytest.approx(1.0 / eps ** 2, rel=1e-4)


@pytest.mark.parametrize("eps,message", [
    (1e-200, "upper bound must exceed lower"),  # 1.5 +- 6 eps rounds to 1.5
    (1e308, "bounds must be finite"),           # 1.5 + 6 eps overflows
])
def test_policy_information_offset_grid_is_checked(eps, message):
    pcf = PolicyCostFunction(cyclic_group(4), lambda a, b: 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfoError, match=f"axis a: {message}"):
            policy_information(pcf, eps)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_policy_information_rejects_a_bad_width_by_name(eps):
    pcf = PolicyCostFunction(cyclic_group(4), lambda a, b: 0.0)
    with pytest.raises(InfoError,
                       match=re.escape(f"smoothing width must lie in "
                                       f"(0, inf), got {eps!r}")):
        policy_information(pcf, eps)


@pytest.mark.parametrize("eps", [1e-200, 1e-150])
def test_policy_information_overflow_is_an_error(eps):
    # the grid around a zero cost is fine, but the score terms, of order
    # 1/eps^2, overflow
    pcf = PolicyCostFunction(cyclic_group(4), lambda a, b: 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VariationalError, match="overflows"):
            policy_information(pcf, eps)


def test_policy_information_scales_with_neutral_factor():
    eps = 0.2
    base = word_distance_cost(cyclic_group(4))
    doubled_group = direct_product(cyclic_group(4), cyclic_group(2))
    doubled = PolicyCostFunction(doubled_group,
                                 lambda a, b: base.cost(a // 2, b // 2))
    per_base = policy_information(base, eps)
    per_doubled = policy_information(doubled, eps)
    assert abs(per_base - per_doubled) < 1e-6


def test_lever_metric_is_positive_definite():
    for group in (cyclic_group(6), dihedral_group(4)):
        metric = lever_metric(word_distance_cost(group))
        point = np.zeros(metric.dimension)
        vals = np.linalg.eigvalsh(metric(point))
        assert vals[0] > 0


@pytest.mark.parametrize("bad", [2, 4], ids=["two-letter-word", "longer"])
def test_lever_metric_needs_a_finite_cost_on_every_element(bad):
    # in C6 the generator's one two-letter word is r2; r4 is no such word
    pcf = PolicyCostFunction(cyclic_group(6),
                             lambda a, b: math.nan if b == bad else 1.0)
    with pytest.raises(VariationalError,
                       match=f"cost is not finite at element r{bad}"):
        lever_metric(pcf)


def test_optimal_policy_path_runs():
    pcf = word_distance_cost(dihedral_group(4))
    path = optimal_policy_path(pcf, np.zeros(2), 50)
    assert path.points.shape == (51, 2)
    assert np.all(np.isfinite(path.points))
