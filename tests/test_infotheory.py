import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from grovekit.expr import parse
from grovekit.infotheory import (
    Axis,
    GridDistribution,
    GridSpec,
    InfoError,
    InfoTensorBinding,
    MAX_GRID_CELLS,
    MetricBinding,
    build_nested_distribution,
    cramer_rao_report,
    fisher_information,
    grid,
    information_density,
    offset_pairs,
    smoothed_delta,
)


def test_offset_pairs_move_one_coordinate_up_then_down():
    p = np.array([1.0, -0.0])
    calls = []
    pairs = list(offset_pairs(lambda q: calls.append(repr(q.tolist()))
                              or len(calls), p, 0.5))
    assert pairs == [(1, 2), (3, 4)]
    # the coordinate that is not moved keeps its bits, sign of zero too
    assert calls == ["[1.5, -0.0]", "[0.5, -0.0]", "[1.0, 0.5]",
                     "[1.0, -0.5]"]
    assert repr(p.tolist()) == "[1.0, -0.0]"


def test_smoothed_delta_peak_and_mass():
    eps = 0.1
    x = np.linspace(-1, 1, 4001)
    vals = smoothed_delta(x, 0.0, eps)
    assert vals.max() == pytest.approx(1.0 / (eps * math.sqrt(2 * math.pi)))
    assert np.trapezoid(vals, x) == pytest.approx(1.0, abs=1e-6)


BAD_WIDTHS = (0.0, -1.0, math.nan, math.inf)


def test_smoothed_delta_rejects_bad_width():
    for eps in BAD_WIDTHS:
        with pytest.raises(InfoError, match="smoothing width"):
            smoothed_delta(0.0, 0.0, eps)


def test_axis_validation():
    with pytest.raises(InfoError):
        Axis("x", 0.0, 0.0, 16)
    with pytest.raises(InfoError, match="axis x: width"):
        Axis("x", -1e308, 1e308, 16)
    with pytest.raises(InfoError):
        Axis("x", 0.0, 1.0, 4)
    with pytest.raises(InfoError):
        GridSpec((Axis("x", 0, 1, 8), Axis("x", 0, 1, 8)))


def test_grid_cell_bound():
    # the bound is checked before any array is made
    assert GridSpec((Axis("x", 0, 1, MAX_GRID_CELLS),)).shape == (
        MAX_GRID_CELLS,)
    with pytest.raises(InfoError, match="cells"):
        GridSpec((Axis("x", 0, 1, MAX_GRID_CELLS + 1),))
    with pytest.raises(InfoError, match="cells"):
        grid(("m", 0, 1, 62_500_000), ("a", 0, 1, 10 ** 9))


def test_distribution_normalizes():
    g = grid(("x", -3.0, 3.0, 128))
    d = GridDistribution.from_function(g, lambda x: np.exp(-0.5 * x * x), 1.0)
    assert d.mass == pytest.approx(1.0, abs=1e-6)


def test_distribution_rejects_negative_values():
    g = grid(("x", -1.0, 1.0, 16))
    with pytest.raises(InfoError):
        GridDistribution(g, -np.ones(g.shape), 0.1)


def test_serialization_round_trip():
    g = grid(("m", -1.0, 1.0, 16), ("a", -2.0, 2.0, 32))
    d = build_nested_distribution(parse("sig(m1)"),
                                  MetricBinding(sigma=lambda m: m), g, 0.2)
    restored = GridDistribution.loads(d.dumps())
    assert np.array_equal(restored.values, d.values)
    assert restored.eps == d.eps
    assert restored.grid == d.grid


_axes = st.lists(st.tuples(
    st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.integers(8, 24)),
    min_size=1, max_size=2)


@given(_axes.flatmap(lambda axes: st.tuples(
    st.just(axes),
    arrays(float, tuple(c for _, _, c in axes),
           elements=st.floats(0.0, 1e6)),
    st.floats(1e-6, 1e3))))
def test_distribution_round_trip_property(data):
    axes, values, eps = data
    spec = GridSpec(tuple(Axis(f"x{i}", lo, lo + width, count)
                          for i, (lo, width, count) in enumerate(axes)))
    values[(0,) * values.ndim] += 1.0  # some mass
    dist = GridDistribution(spec, values, eps)
    text = dist.dumps()
    restored = GridDistribution.loads(text)
    assert np.array_equal(restored.values, dist.values)
    assert restored.grid == dist.grid and restored.eps == dist.eps
    assert restored.dumps() == text
    assert not restored.values.flags.writeable


def test_distribution_loads_keeps_checks():
    text = GridDistribution(grid(("x", 0.0, 1.0, 8)), np.ones(8), 0.1).dumps()
    head, *cells = text.splitlines()
    with pytest.raises(InfoError):
        GridDistribution.loads("\n".join([head, "-1.0"] + cells[1:]))
    with pytest.raises(InfoError):
        GridDistribution.loads("\n".join([head] + ["0.0"] * 8))
    # the width is outside input too, held to the same rule
    g = grid(("x", 0.0, 1.0, 8))
    for eps in BAD_WIDTHS:
        with pytest.raises(InfoError, match="smoothing width"):
            GridDistribution(g, np.ones(8), eps)
        with pytest.raises(InfoError, match="smoothing width"):
            GridDistribution.loads(
                "\n".join([head.replace("eps 0.1", f"eps {eps!r}")] + cells))
    # unnormalised text is normalised on load
    doubled = GridDistribution.loads("\n".join([head] + ["2.0"] * 8))
    assert doubled.mass == pytest.approx(1.0)


_GOOD_HEAD = "axes x:0.0:1.0:8 eps 0.1"


@pytest.mark.parametrize("text", [
    "",
    "axes\n",
    "axes eps 0.1\n" + "1.0\n" * 8,
    "axes x:0.0:1.0 eps 0.1\n" + "1.0\n" * 8,
    "axes x:0.0:1.0:eight eps 0.1\n" + "1.0\n" * 8,
    "axes x:0.0:1.0:8 eps wide\n" + "1.0\n" * 8,
    _GOOD_HEAD + "\n" + "1.0\n" * 7 + "one\n",
    _GOOD_HEAD + "\n" + "1.0\n" * 7,
    _GOOD_HEAD + "\n" + "1.0\n" * 9,
    "axes a:-1e308:1e308:8 eps 1.0\n" + "0.125\n" * 8,
], ids=["empty", "bare-axes", "no-axis", "three-part-axis", "text-count",
        "text-eps", "text-cell", "too-few-cells", "too-many-cells",
        "infinite-width"])
def test_malformed_distribution_text_is_an_info_error(text):
    with pytest.raises(InfoError):
        GridDistribution.loads(text)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_gaussian_location_information(scale):
    span = 6 * scale
    g = grid(("m", -0.5, 0.5, 16), ("a", -span - 0.5, span + 0.5, 256))
    d = build_nested_distribution(parse("sig(m1)"),
                                  MetricBinding(sigma=lambda m: m), g, scale)
    info = fisher_information(d, "a")
    assert info == pytest.approx(1.0 / scale ** 2, rel=0.01)


def test_information_nonnegative_on_random_distributions():
    rng = np.random.default_rng(7)
    g = grid(("x", -2.0, 2.0, 64))
    x = g.axes[0].centers()
    for _ in range(100):
        centers = rng.uniform(-1.5, 1.5, size=3)
        eps = float(rng.uniform(0.05, 0.5))
        vals = sum(smoothed_delta(x, c, eps) for c in centers)
        d = GridDistribution(g, vals, eps)
        assert fisher_information(d, 0) >= 0.0


def test_cramer_rao_products_near_one():
    for scale in (0.5, 1.0, 2.0):
        span = 7 * scale
        g = grid(("a", -span, span, 512))
        d = GridDistribution.from_function(
            g, lambda a: smoothed_delta(a, 0.0, scale), scale)
        rep = cramer_rao_report(d)
        assert 0.99 <= rep.products[0] <= 1.01


def test_refinement_stability():
    coarse = grid(("a", -4.0, 4.0, 128))
    fine = grid(("a", -4.0, 4.0, 256))
    vals = []
    for g in (coarse, fine):
        d = GridDistribution.from_function(
            g, lambda a: smoothed_delta(a, 0.0, 0.5), 0.5)
        vals.append(fisher_information(d, 0))
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)


def test_depth_one_identity_reduces_to_depth_zero():
    # With tau the identity, averaging the outer offset against the
    # density recovers the inner smoothed delta of sigma(m) - b.
    eps = 0.12
    peak = 1.0 / (eps * math.sqrt(2 * math.pi))
    g = grid(("m", -1.0, 1.0, 16),
             ("b", -1.8, 1.8, 48),
             ("a", -1.0, peak + 4 * eps, 96))
    d = build_nested_distribution(
        parse("sig tau(m1)"),
        MetricBinding(sigma=lambda m: m, tau=lambda t: t), g, eps)
    acent = g.axes[2].centers()
    num = (d.values * acent[None, None, :]).sum(axis=2)
    den = d.values.sum(axis=2)
    mcent = g.axes[0].centers()
    bcent = g.axes[1].centers()
    target = smoothed_delta(mcent[:, None] - bcent[None, :], 0.0, eps)
    assert np.max(np.abs(num / den - target)) / target.max() < 1e-4


def test_map_substitution_binding():
    g = grid(("m", -1.0, 1.0, 32), ("a", -1.5, 1.5, 64))
    d = build_nested_distribution(
        parse("sig(phi)"),
        MetricBinding(sigma=lambda m: m, phi=lambda m: m ** 2), g, 0.2)
    assert d.mass == pytest.approx(1.0, abs=1e-9)


def test_missing_binding_is_reported():
    g = grid(("m", -1.0, 1.0, 16), ("a", -1.5, 1.5, 16))
    with pytest.raises(InfoError, match="sigma"):
        build_nested_distribution(parse("sig(m1)"), MetricBinding(), g, 0.2)
    g1 = grid(("m", -1.0, 1.0, 16), ("b", -1.5, 1.5, 16), ("a", -1.5, 1.5, 16))
    with pytest.raises(InfoError, match="tau"):
        build_nested_distribution(parse("sig tau(m1)"),
                                  MetricBinding(sigma=lambda m: m), g1, 0.2)


def test_nonfinite_sigma_is_reported():
    g = grid(("m", -1.0, 1.0, 16), ("a", -1.5, 1.5, 16))
    with pytest.raises(InfoError, match="non-finite"):
        build_nested_distribution(
            parse("sig(m1)"),
            MetricBinding(sigma=lambda m: np.where(m > 0, m, np.inf)), g, 0.2)


def test_wrong_axis_count_is_reported():
    g = grid(("m", -1.0, 1.0, 16))
    with pytest.raises(InfoError, match="axes"):
        build_nested_distribution(parse("sig(m1)"),
                                  MetricBinding(sigma=lambda m: m), g, 0.2)


def _constant_binding(value, offset):
    comps = [[[lambda x, v=value: v for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
    return InfoTensorBinding(comps, np.full((4, 4), offset))


def test_information_density_constant_tensor_is_zero():
    bind = _constant_binding(0.25, 1.0)
    assert information_density(bind, [0.1, 0.2, 0.3, 0.4], 0.5) == 0.0


def test_information_density_sixteenfold_symmetry():
    comps = [[[lambda x: 0.3 * x for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
    bind = InfoTensorBinding(comps, np.full((4, 4), 0.2))
    mbar = np.array([0.1, 0.2, 0.3, 0.4])
    eps, h = 0.5, 4e-5  # the function's step, 1e-4 * max|mbar|
    total = information_density(bind, mbar, eps)
    d0 = bind.delta_matrix(mbar, eps)
    dlog = np.empty(4)
    for i in range(4):
        up, dn = mbar.copy(), mbar.copy()
        up[i] += h
        dn[i] -= h
        dlog[i] = (math.log(bind.delta_matrix(up, eps)[0, 0])
                   - math.log(bind.delta_matrix(dn, eps)[0, 0])) / (2 * h)
    single = sum(d0[i, j] * dlog[i] * dlog[j]
                 for i in range(4) for j in range(4))
    assert total == pytest.approx(16.0 * single, rel=1e-8)


def test_information_density_sums_tensor_terms_left_to_right(python312_sum):
    # at mbar the terms are (1.0, 1e100, 1.0, -1e100): their sum is 0.0
    # left to right at every offset point, and near 2.0 compensated
    terms = [lambda x: x, lambda x: 1e100, lambda x: 1.0, lambda x: -1e100]
    bind = InfoTensorBinding([[terms] * 4] * 4, np.zeros((4, 4)))
    assert information_density(bind, [1.0, 0.0, 0.0, 0.0], 1.0) == 0.0


def test_information_density_underflow_guard():
    bind = _constant_binding(0.0, 50.0)  # offsets far from tensor values
    with pytest.raises(InfoError, match="eps"):
        information_density(bind, [0.0, 0.0, 0.0, 0.0], 0.5)


def test_information_density_rejects_bad_width():
    bind = _constant_binding(0.25, 0.0)
    for eps in BAD_WIDTHS:
        with pytest.raises(InfoError, match="smoothing width"):
            information_density(bind, [0.1, 0.2, 0.3, 0.4], eps)


def test_information_density_validates_mbar():
    bind = _constant_binding(0.0, 0.0)
    with pytest.raises(InfoError):
        information_density(bind, [0.0, 0.0], 0.5)
