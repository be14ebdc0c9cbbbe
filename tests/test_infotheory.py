import gc
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import (
    array_shapes,
    arrays,
    mutually_broadcastable_shapes,
)

from grovekit import infotheory
from grovekit.expr import parse
from grovekit.infotheory import (
    Axis,
    GridDistribution,
    GridSpec,
    InfoError,
    InfoTensorBinding,
    LOG_FLOOR_RATIO,
    MAX_GRID_CELLS,
    MetricBinding,
    build_nested_distribution,
    cramer_rao_report,
    fisher_information,
    grid,
    information_density,
    location_family,
    offset_pairs,
    smoothed_delta,
    _central_differences,
    _pairwise_sum,
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


def _smoothed_delta_reference(x, center, eps):
    """The kernel as one expression, each step allocating its own array."""
    z = (np.asarray(x, dtype=float) - center) / eps
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / (eps * math.sqrt(2.0 * math.pi))


#: signed zeros, subnormals, and z whose square is subnormal or overflows
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1.4e154,
                -1.4e154, 1e200, 1.7976931348623157e308, math.inf, math.nan)
_kernel_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


@given(mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4)
       .flatmap(lambda s: st.tuples(
           st.one_of(arrays(float, s.input_shapes[0], elements=_kernel_floats),
                     _kernel_floats, st.integers(-3, 3)),
           st.one_of(arrays(float, s.input_shapes[1], elements=_kernel_floats),
                     _kernel_floats))),
       st.one_of(st.sampled_from((5e-324, 1e-300, 0.5, 1.0, 1e300)),
                 st.floats(min_value=5e-324, max_value=1e308)))
def test_smoothed_delta_is_bit_equal_to_the_expression(args, eps):
    x, center = args
    with np.errstate(all="ignore"):
        got = smoothed_delta(x, center, eps)
        expected = _smoothed_delta_reference(x, center, eps)
    # a scalar stays an np.float64, an array an array of the same shape
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


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
    # each width is finite, their cell volume is not
    with pytest.raises(InfoError, match="cell volume must be finite"):
        GridSpec((Axis("a", -1e300, 1e300, 8), Axis("b", -1e300, 1e300, 8)))


@pytest.mark.parametrize("axis,message", [
    (2, "axis index 2 out of range"), (-1, "axis index -1 out of range"),
    ("z", "no axis named 'z'")])
def test_axis_index_names_a_bad_axis(axis, message):
    spec = grid(("m", 0.0, 1.0, 8), ("a", 0.0, 1.0, 8))
    assert (spec.axis_index("a"), spec.axis_index(0)) == (1, 0)
    with pytest.raises(InfoError, match=f"^{message}$"):
        spec.axis_index(axis)


def _peak_above_start(fn):
    """``fn()`` and the most bytes it held at once beyond those held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


#: the bench's nested grid, 256 x 4096 cells: one float64 array is 8 MiB
_BENCH_GRID = grid(("m", -0.5, 0.5, 256), ("a", -6.5, 6.5, 4096))
_GRID_ARRAY = 8 * 256 * 4096

#: the bench's Cramer-Rao line, 262,144 cells: one float64 array is 2 MiB
_LINE = grid(("a", -7.0, 7.0, 64 * 4096))
_LINE_ARRAY = 8 * 64 * 4096


@pytest.mark.parametrize("axis", [_LINE.axes[0], *_BENCH_GRID.axes,
                                  Axis("y", 1e-3, 2.5e7, 9),
                                  Axis("z", -1e300, 1e300, 8)],
                         ids=lambda axis: f"{axis.name}{axis.count}")
def test_axis_centres_have_the_formulas_bits(axis):
    expected = axis.lo + (np.arange(axis.count) + 0.5) * axis.spacing
    assert axis.centers().tobytes() == expected.tobytes()
    for lo, hi in ((0, 1), (3, 8), (axis.count - 5, axis.count)):
        assert axis.centers(lo, hi).tobytes() == expected[lo:hi].tobytes()


def test_meshes_are_read_only_views():
    meshes, peak = _peak_above_start(_BENCH_GRID.meshes)
    assert peak < _GRID_ARRAY // 8
    full = np.meshgrid(*[a.centers() for a in _BENCH_GRID.axes],
                       indexing="ij")
    for mesh, expected in zip(meshes, full):
        assert mesh.shape == _BENCH_GRID.shape
        assert mesh.tobytes() == expected.tobytes()
        assert not mesh.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        meshes[0][0, 0] = 1.0


def test_line_meshes_hold_one_line_array():
    # the centres themselves, viewed by the mesh without a copy
    meshes, peak = _peak_above_start(_LINE.meshes)
    assert meshes[0].tobytes() == _LINE.axes[0].centers().tobytes()
    assert peak <= _LINE_ARRAY + 2 ** 16


def test_nested_build_holds_only_its_density():
    dist, peak = _peak_above_start(lambda: build_nested_distribution(
        parse("sig(m1)"), MetricBinding(sigma=lambda m: m), _BENCH_GRID, 1.0))
    assert dist.values.shape == _BENCH_GRID.shape
    assert peak <= _GRID_ARRAY + 2 ** 16


def test_build_and_fisher_hold_one_grid_array():
    def build_and_fisher():
        dist = build_nested_distribution(
            parse("sig(m1)"), MetricBinding(sigma=lambda m: m),
            _BENCH_GRID, 1.0)
        return [fisher_information(dist, axis) for axis in ("a", "m")]

    infos, peak = _peak_above_start(build_and_fisher)
    assert infos[0] == pytest.approx(1.0, rel=0.01)
    assert peak <= _GRID_ARRAY + 2 ** 21


def test_from_function_and_cramer_rao_hold_two_line_arrays():
    # from_function holds the kernel's values and their copy; the report
    # then holds at most half a line array besides the density
    def build_and_report():
        dist = GridDistribution.from_function(
            _LINE, lambda a: smoothed_delta(a, 0.0, 1.0), 1.0)
        return cramer_rao_report(dist)

    report, peak = _peak_above_start(build_and_report)
    assert 0.99 <= report.products[0] <= 1.01
    assert peak <= 2 * _LINE_ARRAY + 2 ** 16


def test_constructor_leaves_the_callers_values_alone():
    values = np.arange(1.0, 73.0).reshape(8, 9)
    before = values.tobytes()
    dist = GridDistribution(grid(("y", 0.0, 1.0, 8), ("x", 0.0, 1.0, 9)),
                            values, 0.1)
    assert values.tobytes() == before
    assert values.flags.writeable
    assert not dist.values.flags.writeable
    assert not np.shares_memory(values, dist.values)


def test_walks_leave_no_cycle_holding_the_density():
    # with the cyclic collector off, only reference counts free the density
    gc.disable()
    try:
        dist = build_nested_distribution(
            parse("sig(m1)"), MetricBinding(sigma=lambda m: m),
            grid(("m", -0.5, 0.5, 64), ("a", -6.5, 6.5, 4096)), 1.0)
        held = weakref.ref(dist.values)
        for axis in ("m", "a"):
            fisher_information(dist, axis)
            dist.marginal_moments(axis)
        del dist
        assert held() is None
    finally:
        gc.enable()


def test_dumps_peaks_below_two_and_a_half_times_its_text():
    # the command line's info grid: 128 x 2048 = 262,144 cells
    dist = build_nested_distribution(
        parse("sig(m1)"), MetricBinding(sigma=lambda m: m),
        grid(("m", -0.5, 0.5, 128), ("a", -6.5, 6.5, 2048)), 1.0)
    text, peak = _peak_above_start(dist.dumps)
    assert text.count("\n") == 1 + 128 * 2048
    assert peak < 2.5 * len(text)


@pytest.mark.parametrize("shape", [(8,), (9, 3), (5, 7, 8), (256, 4096)])
def test_central_differences_are_np_gradient(shape):
    # magnitudes from 1e-300 to 1e300, both signs
    rng = np.random.default_rng(len(shape))
    f = (rng.choice((-1.0, 1.0), shape)
         * 10.0 ** rng.uniform(-300.0, 300.0, shape))
    for axis in range(len(shape)):
        for dx in (0.0037, 1.0, 2.5e7):
            with np.errstate(all="ignore"):
                expected = np.gradient(f, dx, axis=axis)
                got = _central_differences(f, dx, axis)
            assert got.tobytes() == expected.tobytes()


@given(array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=6)
       .flatmap(lambda shape: st.tuples(
           arrays(float, shape, elements=st.one_of(
               st.floats(), st.floats(-1e300, 1e300))),
           st.integers(0, len(shape) - 1))),
       st.floats(min_value=5e-324, max_value=1e308))
def test_central_differences_property(data, dx):
    f, axis = data
    with np.errstate(all="ignore"):
        expected = np.gradient(f, dx, axis=axis)
        got = _central_differences(f, dx, axis)
    assert got.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf, -1e-300,
                                  -0.0])
@pytest.mark.parametrize("make", ["constructor", "from_function", "loads"])
def test_density_values_must_be_finite_and_nonnegative(make, cell):
    g = grid(("x", 0.0, 1.0, 8))
    values = np.ones(8)
    values[3] = cell
    build = {
        "constructor": lambda: GridDistribution(g, values, 0.1),
        "from_function": lambda: GridDistribution.from_function(
            g, lambda x: values, 0.1),
        "loads": lambda: GridDistribution.loads("\n".join(
            [_GOOD_HEAD, *map(repr, values.tolist())])),
    }[make]
    if cell == 0.0:  # a negative zero is a zero density
        assert np.signbit(build().values[3])
    else:
        with pytest.raises(InfoError, match="^density values must be "
                           "finite and nonnegative$"):
            build()


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
    "axes a:-1e300:1e300:8 b:-1e300:1e300:8 eps 1.0\n" + "1.0\n" * 64,
], ids=["empty", "bare-axes", "no-axis", "three-part-axis", "text-count",
        "text-eps", "text-cell", "too-few-cells", "too-many-cells",
        "infinite-width", "infinite-cell-volume"])
def test_malformed_distribution_text_is_an_info_error(text):
    with pytest.raises(InfoError):
        GridDistribution.loads(text)


def _loads_reference(text):
    """`GridDistribution.loads` as one list of lines and one of floats."""
    lines = text.strip().splitlines()
    header = lines[0].split() if lines else []
    if len(header) < 3 or header[0] != "axes" or header[-2] != "eps":
        raise InfoError("bad distribution header")
    try:
        axes = []
        for part in header[1:-2]:
            name, lo, hi, count = part.split(":")
            axes.append(Axis(name, float(lo), float(hi), int(count)))
        eps = float(header[-1])
        cells = [float(v) for v in lines[1:]]
    except ValueError as exc:
        raise InfoError(f"malformed distribution text: {exc}") from None
    spec = GridSpec(tuple(axes))
    size = math.prod(spec.shape)
    if len(cells) != size:
        raise InfoError(f"distribution text has {len(cells)} cells, "
                        f"its grid {spec.shape} has {size}")
    values = np.array(cells).reshape(spec.shape)
    dist = GridDistribution(spec, values, eps)
    if math.isclose(float(values.sum()) * spec.cell_volume, 1.0,
                    rel_tol=infotheory.NORMALISED_REL_TOL):
        values.setflags(write=False)
        dist.values = values
    return dist


def _loaded(load, text):
    try:
        dist = load(text)
    except Exception as exc:  # the kind and message are compared
        return type(exc).__name__, str(exc)
    return (dist.grid, dist.eps, dist.values.tobytes(),
            dist.values.flags.writeable)


_HEADS = {"axes x:0.0:1.0:8 eps 0.1": 8,
          " axes x:0:1:8  y:-1:1:8 eps 0.5 ": 64,
          "axes x:0.0:0.125:8 eps 1e-3": 8,
          "axes x:0:1:8 x:0:1:8 eps 0.1": 64,
          "axes x:0:1:4096 y:0:1:8192 eps 0.1": 2 ** 25,
          "axes x:0.0:1.0:8 eps 0.0": 8,
          "axes x:0:1:8 eps": 8,
          "axes x:0:1:8 eps 0.1 extra": 8}
_CELLS = st.one_of(
    st.sampled_from(("0.125", "0.0", "-0.0", " 2.5\t", "1_0", "\u00a01.5")),
    st.floats(0.0, 1e3).map(repr))
_BAD_CELLS = ("", "one", "-1.0", "nan", "inf", "1e999")
_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
           "\n\n", " \n")
_SPACE = st.sampled_from(("", " ", "\n", "\n \t", "\r\n\r\n", "\u3000", "\xa0"))


@st.composite
def _distribution_texts(draw):
    """Headers good and bad, then about as many cells as they ask for, a
    bad cell or an odd line break among them at times."""
    head = draw(st.sampled_from(sorted(_HEADS)))
    count = min(_HEADS[head], 64) + draw(st.sampled_from((0, 0, -1, 1, 2)))
    parts = [head, *draw(st.lists(_CELLS, min_size=count, max_size=count))]
    at = draw(st.integers(1, len(parts) - 1)) if count else 0
    if at and draw(st.booleans()):
        parts[at] = draw(st.sampled_from(_BAD_CELLS))
    breaks = [draw(st.sampled_from(_BREAKS))] * (len(parts) - 1)
    if at and draw(st.booleans()):
        breaks[at - 1] = draw(st.sampled_from(_BREAKS))
    text = "".join(p + b for p, b in zip(parts, breaks + [""]))
    return draw(_SPACE) + text + draw(_SPACE)


@given(_distribution_texts(), st.integers(1, 40))
@example("axes x:0.0:1.0:8 eps 0.1\n" + "0.125\n" * 8, 1)
@example("axes x:0.0:1.0:8 eps 0.1\r\n" + "0.125\r\n" * 8, 1)
@example("axes x:0.0:1.0:8 eps 0.1\n" + "0.125\n" * 10, 1)
@example("  \n\t", 1)
def test_loads_matches_the_whole_text_reference(text, chunk):
    # a short chunk puts cuts between the cells of a short text
    with mock.patch.object(infotheory, "_LOADS_CHUNK", chunk):
        assert (_loaded(GridDistribution.loads, text)
                == _loaded(_loads_reference, text))


def test_loads_peaks_below_its_text():
    # the command line's info grid: 128 x 2048 = 262,144 cells, 2 MiB
    dist = build_nested_distribution(
        parse("sig(m1)"), MetricBinding(sigma=lambda m: m),
        grid(("m", -0.5, 0.5, 128), ("a", -6.5, 6.5, 2048)), 1.0)
    text = dist.dumps()
    restored, peak = _peak_above_start(lambda: GridDistribution.loads(text))
    assert restored.values.tobytes() == dist.values.tobytes()
    assert peak < len(text)
    # the parsed cells and a chunk of lines: a normalised text is not
    # divided by its mass into a second grid array
    assert peak < 3 << 20


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_gaussian_location_information(scale):
    d = location_family(scale)
    assert d.grid.shape == (16, 256)
    info = fisher_information(d, "a")
    assert info == pytest.approx(1.0 / scale ** 2, rel=0.01)


@pytest.mark.parametrize("scale,span,samples", [(1.0, 6.0, 256),
                                                (0.8, 6.0, 2048),
                                                (0.3, 4.0, 64),
                                                (5.0, 9.5, 100)])
def test_location_family_is_the_nested_build_on_its_grid(scale, span,
                                                         samples):
    half = span * scale
    spec = grid(("m", -0.5, 0.5, max(8, samples // 16)),
                ("a", -half - 0.5, half + 0.5, samples))
    built = build_nested_distribution(
        parse("sig(m1)"), MetricBinding(sigma=lambda m: m), spec, scale)
    family = location_family(scale, span, samples)
    assert family.grid == spec and family.eps == scale
    assert family.values.tobytes() == built.values.tobytes()


@pytest.mark.parametrize("args,message", [
    ((1e200,), "must be > 0 with 1/scale^2 finite and nonzero"),
    ((0.0,), "must be > 0 with 1/scale^2 finite and nonzero"),
    ((math.nan,), "must be > 0 with 1/scale^2 finite and nonzero"),
    ((1.0, 0.0), "span must be at least 4 kernel widths, got 0.0"),
    ((1.0, 3.999), "span must be at least 4 kernel widths, got 3.999"),
    ((1.0, math.nan), "span must be at least 4 kernel widths, got nan"),
    ((1.0, 6.0, 7), "axis a: need at least 8 samples"),
    ((1.0, 6.0, 8), "an offset cell is (2 * span * scale + 1) / samples "
                    "= 1.625 wide, more than scale = 1.0"),
    ((0.001,), "an offset cell is (2 * span * scale + 1) / samples "
               "= 0.003953125 wide, more than scale = 0.001"),
    ((1.0, 1000.0), "an offset cell is (2 * span * scale + 1) / samples "
                    "= 7.81640625 wide, more than scale = 1.0"),
], ids=["scale-1e200", "scale-0", "scale-nan", "span-0", "span-3.999",
        "span-nan", "samples-7", "samples-8", "scale-0.001", "span-1000"])
def test_location_family_refuses_a_grid_that_misses_the_answer(args,
                                                               message):
    with pytest.raises(InfoError) as err:
        location_family(*args)
    assert str(err.value) == message


def test_location_family_accepts_a_cell_as_wide_as_the_kernel():
    # 13 samples make cells of exactly scale = 1; 12 make them wider
    assert location_family(1.0, 6.0, 13).grid.axes[1].spacing == 1.0
    with pytest.raises(InfoError, match="an offset cell"):
        location_family(1.0, 6.0, 12)


def _fisher_whole_grid(dist, axis):
    """The Fisher information over the whole grid at once, the plain
    formula the slab walk must match bit for bit."""
    i = dist.grid.axis_index(axis)
    floor = LOG_FLOOR_RATIO * float(dist.values.max())
    dlogf = np.gradient(np.log(np.maximum(dist.values, floor)),
                        dist.grid.axes[i].spacing, axis=i)
    try:
        with np.errstate(under="raise"):
            terms = dist.values * dlogf * dlogf
    except FloatingPointError:
        return "underflow"
    return repr(float(np.sum(terms) * dist.grid.cell_volume))


def _fisher_or_underflow(dist, axis):
    try:
        return repr(fisher_information(dist, axis))
    except InfoError as err:
        assert str(err) == "Fisher information underflows on this grid"
        return "underflow"


@given(array_shapes(min_dims=1, max_dims=3, min_side=8, max_side=13)
       .flatmap(lambda shape: st.tuples(
           arrays(float, shape, elements=st.one_of(
               st.just(0.0), st.floats(1e-6, 1e6))),
           st.integers(0, len(shape) - 1))),
       st.sampled_from([1, 7, 64, 100]))
@example((np.arange(1.0, 73.0).reshape(8, 9), 0), 64)
def test_slab_walk_matches_the_whole_grid_formula(data, slab):
    values, axis = data
    spec = GridSpec(tuple(Axis(f"x{k}", -1.0, 2.0, n)
                          for k, n in enumerate(values.shape)))
    if not values.any():
        values[(0,) * values.ndim] = 1.0
    dist = GridDistribution(spec, values, 0.1)
    expected = _fisher_whole_grid(dist, axis)
    with mock.patch.object(infotheory, "_FISHER_SLAB", slab):
        assert _fisher_or_underflow(dist, axis) == expected


def _moments_whole_grid(dist, axis):
    """The marginal moments by the plain formulas over whole arrays, which
    the leaf walk must match bit for bit."""
    i = dist.grid.axis_index(axis)
    other = tuple(j for j in range(dist.values.ndim) if j != i)
    weights = dist.values.sum(axis=other) if other else dist.values
    weights = weights / weights.sum()
    x = dist.grid.axes[i].centers()
    mean = float(np.sum(weights * x))
    return mean, float(np.sum(weights * (x - mean) ** 2))


@st.composite
def _walked_densities(draw):
    """Densities on 1-D to 3-D grids of 129 to about 20,000 cells, spread
    over twelve decades, some with most of their cells zero."""
    shape = draw(st.one_of(
        st.tuples(st.integers(129, 20000)),
        st.tuples(st.integers(8, 141), st.integers(8, 141))
        .filter(lambda s: math.prod(s) >= 129),
        st.tuples(st.integers(8, 27), st.integers(8, 27),
                  st.integers(8, 27))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = 10.0 ** rng.uniform(-6.0, 6.0, shape)
    values[rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    return values


@given(_walked_densities(), st.sampled_from([128, 129, 200, 1000, 4096]))
@example(np.arange(1.0, 129.0).reshape(16, 8), 128)
@example(np.linspace(0.0, 1.0, 129), 128)
def test_leaf_walk_matches_numpys_whole_grid_sums(values, leaf):
    spec = GridSpec(tuple(Axis(f"x{k}", -1.0, 2.0, n)
                          for k, n in enumerate(values.shape)))
    if not values.any():
        values[(0,) * values.ndim] = 1.0
    dist = GridDistribution(spec, values, 0.1)
    with mock.patch.object(infotheory, "_FISHER_SLAB", leaf):
        for axis in range(values.ndim):
            assert (_fisher_or_underflow(dist, axis)
                    == _fisher_whole_grid(dist, axis))
            assert (repr(dist.marginal_moments(axis))
                    == repr(_moments_whole_grid(dist, axis)))


@given(st.integers(1, 20000), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 128, 129, 200, 1000, 4096]))
@example(128, 0, 128)
@example(129, 0, 128)
def test_pairwise_sum_is_np_sum(n, seed, leaf):
    x = np.random.default_rng(seed).standard_normal(n)
    with mock.patch.object(infotheory, "_FISHER_SLAB", leaf):
        got = _pairwise_sum(lambda lo, hi: x[lo:hi], 0, n)
    assert repr(float(got)) == repr(float(np.sum(x)))


@pytest.mark.parametrize("width,underflows", [(1e200, True), (1.0, False)])
def test_underflow_in_a_later_slab_is_reported(width, underflows):
    # 64 rows of 8 cells in 4 leaves of 128 cells; only the last row varies
    # along x, and on the wide grid its terms, near 1e-400, underflow
    spec = grid(("y", 0.0, 1.0, 64), ("x", 0.0, width, 8))
    values = np.ones(spec.shape)
    values[-1] = np.arange(1.0, 9.0)
    dist = GridDistribution(spec, values, 0.1)
    leaves = []
    terms = infotheory._fisher_terms

    def counted(cells, floor, dx, lo, hi):
        leaves.append((lo, hi))
        return terms(cells, floor, dx, lo, hi)

    with mock.patch.object(infotheory, "_FISHER_SLAB", 128), \
            mock.patch.object(infotheory, "_fisher_terms", counted):
        if underflows:
            with pytest.raises(InfoError) as err:
                fisher_information(dist, "x")
            assert str(err.value) == (
                "Fisher information underflows on this grid")
        else:
            assert fisher_information(dist, "x") > 0.0
    assert leaves == [(0, 128), (128, 256), (256, 384), (384, 512)]
    assert (_fisher_whole_grid(dist, "x") == "underflow") == underflows


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sigma_and_tau_are_reported(bad):
    g = grid(("m", -1.0, 1.0, 16), ("a", -1.5, 1.5, 16))
    m, a = (axis.centers() for axis in g.axes)
    sigma = MetricBinding(sigma=lambda x: np.where(x == m[5], bad, x))
    with pytest.raises(InfoError) as raised:
        build_nested_distribution(parse("sig(m1)"), sigma, g, 0.2)
    # the first bad cell in C order
    assert str(raised.value) == ("non-finite sigma/tau evaluation at grid "
                                 f"point {(float(m[5]), float(a[0]))}")
    g1 = grid(("m", -1.0, 1.0, 16), ("b", -1.5, 1.5, 16), ("a", -1.5, 1.5, 16))
    tau = MetricBinding(sigma=lambda x: x,
                        tau=lambda s: np.where(s == m[5], bad, s))
    with pytest.raises(InfoError, match="^non-finite tau evaluation$"):
        build_nested_distribution(parse("sig tau(m1)"), tau, g1, 0.2)


def test_wrong_axis_count_is_reported():
    g = grid(("m", -1.0, 1.0, 16))
    with pytest.raises(InfoError, match="axes"):
        build_nested_distribution(parse("sig(m1)"),
                                  MetricBinding(sigma=lambda m: m), g, 0.2)


def _constant_binding(value, offset):
    comps = [[[lambda x, v=value: v for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
    return InfoTensorBinding(comps, np.full((4, 4), offset))


@pytest.mark.parametrize("shape", [(4,), (3, 4), (4, 4, 1)])
def test_binding_offsets_must_be_four_by_four(shape):
    comps = _constant_binding(0.25, 1.0).Lambda
    with pytest.raises(InfoError, match="^offsets must be 4x4$"):
        InfoTensorBinding(comps, np.zeros(shape))


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_tensor_component_is_named(value):
    comps = [[[lambda x: 0.25] * 4 for _ in range(4)] for _ in range(4)]
    comps[2][1] = [lambda x: 0.25] * 3 + [lambda x: value]
    bind = InfoTensorBinding(comps, np.ones((4, 4)))
    with pytest.raises(InfoError,
                       match=r"^non-finite tensor component at \(2, 1\)$"):
        information_density(bind, [0.1, 0.2, 0.3, 0.4], 0.5)


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
