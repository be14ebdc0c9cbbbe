"""Smoothed nested-delta distributions on grids and information functionals.

Dirac deltas are regularised as Gaussian kernels of width eps, which keeps
the Fisher-type integrals finite and analytically checkable.  Quadrature
is the midpoint rule on cell centres; log-derivatives use central
differences in the interior and one-sided differences at boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain
from operator import add
from typing import Callable, Iterator, Sequence

import numpy as np

from .expr import ARG_MAP, ARG_POINT, TopologyExpr, parse


class InfoError(Exception):
    pass


#: Relative floor applied inside logarithms; keeps low-density cells from
#: producing -inf while perturbing integrals below test tolerances.
LOG_FLOOR_RATIO = 1e-12

#: Mass tolerance within which `GridDistribution.loads` takes stored values
#: as normalised; it covers the rounding of a normalised grid's sum.
NORMALISED_REL_TOL = 1e-9

#: Most cells a grid may hold: one float64 array over it takes 128 MiB.
#: Building a nested distribution and taking its Fisher information holds
#: one such array, the density, 128 MiB at the bound, besides temporaries
#: of about `_FISHER_SLAB` cells.
MAX_GRID_CELLS = 2 ** 24

#: Cells `GridDistribution.dumps` renders per step; one ``str`` per cell of
#: a whole grid would weigh several times the text it makes.
_DUMPS_CHUNK = 4096

#: Most cells `_pairwise_sum` sums in one leaf (or 128, numpy's own
#: smallest block, if that is more).
_FISHER_SLAB = 1 << 16

#: Characters of text `GridDistribution.loads` splits into lines per step,
#: rounded up to the next newline: the cells are parsed into one array, and
#: only this much text has a ``str`` and a float per line at once.
_LOADS_CHUNK = 1 << 16


def _stripped_line_chunks(text: str) -> Iterator[list[str]]:
    """The lines of ``text.strip().splitlines()``, a list per piece of the
    text of about `_LOADS_CHUNK` characters, without copying the whole
    text."""
    # str.strip removes the characters for which str.isspace holds
    start, end = 0, len(text)
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    while start < end:
        # a cut just after a newline splits no line and no "\r\n"
        cut = text.find("\n", start + _LOADS_CHUNK, end)
        cut = end if cut < 0 else cut + 1
        yield text[start:cut].splitlines()
        start = cut


def offset_pairs(f: Callable, p: np.ndarray, h: float) -> Iterator[tuple]:
    """``(f(p + h e_i), f(p - h e_i))`` for each coordinate i in order, the
    other coordinates keeping their bits; central differences use them."""
    for i in range(len(p)):
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        yield f(up), f(dn)


def check_width(eps: float) -> float:
    """``eps`` when it is a smoothing width, 0 < eps < inf (never nan)."""
    if not 0 < eps < math.inf:
        raise InfoError(f"smoothing width must lie in (0, inf), got {eps!r}")
    return eps


def smoothed_delta(x, center, eps: float):
    """Gaussian kernel of width eps centred at ``center``; integrates to 1.

    ``x`` and ``center`` broadcast; a scalar result is an ``np.float64``.
    The kernel is ``exp((-0.5 * z) * z) / (eps * sqrt(2 pi))`` with
    ``z = (x - center) / eps``.  One array of the result's shape is made,
    ``z``, and every step is computed into it.  The exponent is taken as
    ``-0.5 * (z * z)``: scaling by -0.5 is exact wherever ``z * z`` is a
    normal float, and where it is not, both forms exponentiate to the same
    1.0 or 0.0, so the result has the bits of the plain expression.
    """
    eps = check_width(eps)
    # a 0-d array where x and center are scalars, so every step is in place
    z = np.asarray(np.asarray(x, dtype=float) - center)
    z /= eps
    # a far-out z squares to inf, and exp(-inf) is exactly the 0 it should be
    with np.errstate(over="ignore"):
        np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    z /= eps * math.sqrt(2.0 * math.pi)
    return z if z.ndim else z[()]


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InfoError(f"axis {self.name}: bounds must be finite")
        if self.hi <= self.lo:
            raise InfoError(f"axis {self.name}: upper bound must exceed lower")
        if not math.isfinite(self.hi - self.lo):
            raise InfoError(f"axis {self.name}: width hi - lo must be finite")
        if self.count < 8:
            raise InfoError(f"axis {self.name}: need at least 8 samples")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.count

    def centers(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The centres of cells ``lo:hi`` (all cells by default), made in
        one float array."""
        c = np.arange(lo, self.count if hi is None else hi, dtype=float)
        c += 0.5
        c *= self.spacing
        c += self.lo
        return c


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid; one Axis per dimension."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not self.axes:
            raise InfoError("grid needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise InfoError(f"duplicate axis names {names}")
        cells = math.prod(self.shape)
        if cells > MAX_GRID_CELLS:
            raise InfoError(f"grid of shape {self.shape} has {cells} cells, "
                            f"more than {MAX_GRID_CELLS}")
        # finite axis widths may still multiply to an infinite volume
        if not math.isfinite(self.cell_volume):
            raise InfoError(f"grid cell volume must be finite, got "
                            f"{self.cell_volume!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.axes)

    @property
    def cell_volume(self) -> float:
        return math.prod(a.spacing for a in self.axes)

    def axis_index(self, axis: int | str) -> int:
        if isinstance(axis, int):
            if not 0 <= axis < len(self.axes):
                raise InfoError(f"axis index {axis} out of range")
            return axis
        for i, a in enumerate(self.axes):
            if a.name == axis:
                return i
        raise InfoError(f"no axis named {axis!r}")

    def meshes(self) -> list[np.ndarray]:
        """Each axis's cell centres broadcast over the grid, "ij" order.

        The meshes are read-only views of one vector each: they have the
        grid's shape and allocate nothing besides the centres.
        """
        sparse = np.meshgrid(*[a.centers() for a in self.axes],
                             indexing="ij", sparse=True, copy=False)
        return [np.broadcast_to(m, self.shape) for m in sparse]


def grid(*axes: tuple[str, float, float, int]) -> GridSpec:
    return GridSpec(tuple(Axis(*a) for a in axes))


def _checked_mass(grid: GridSpec, values: np.ndarray, eps: float) -> float:
    """The mass of ``values`` on ``grid``, once their shape, the width
    ``eps`` and the values themselves pass every check of a distribution."""
    if values.shape != grid.shape:
        raise InfoError(
            f"value shape {values.shape} does not match grid {grid.shape}")
    check_width(eps)
    # two reductions, not boolean grids: a nan makes both of them nan
    if not (values.min() >= 0 and math.isfinite(values.max())):
        raise InfoError("density values must be finite and nonnegative")
    total = values.sum() * grid.cell_volume
    if total <= 0:
        raise InfoError("density has zero mass on the grid")
    return total


class GridDistribution:
    """A normalised nonnegative density sampled on a GridSpec."""

    def __init__(self, grid: GridSpec, values: np.ndarray, eps: float):
        values = np.asarray(values, dtype=float)
        self._hold(grid, values / _checked_mass(grid, values, eps), eps)

    def _hold(self, grid: GridSpec, values: np.ndarray, eps: float) -> None:
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.eps = eps

    @classmethod
    def _owning(cls, grid: GridSpec, values: np.ndarray, eps: float,
                mass: float) -> "GridDistribution":
        """A distribution over ``values``, an array no other code holds,
        divided in place by ``mass``: the bits `__init__`'s division gives,
        without a second grid array."""
        values /= mass
        dist = cls.__new__(cls)
        dist._hold(grid, values, eps)
        return dist

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable[..., np.ndarray],
                      eps: float) -> "GridDistribution":
        values = np.asarray(fn(*grid.meshes()), dtype=float)
        # a copy: ``fn`` may return a read-only mesh or an array it keeps
        values = np.broadcast_to(values, grid.shape).copy()
        return cls._owning(grid, values, eps,
                           _checked_mass(grid, values, eps))

    def marginal_moments(self, axis: int | str) -> tuple[float, float]:
        """Mean and variance of the marginal along one axis.

        They are ``np.sum(w * x)`` and ``np.sum(w * (x - mean) ** 2)`` for
        the normalised marginal weights ``w`` and the axis's centres ``x``,
        to the bit, but each sum walks numpy's pairwise tree with
        `_pairwise_sum` (a run of more than 128 cells splits after half
        its length, rounded down to a multiple of 8), making ``w`` and
        ``x`` for one leaf at a time: numpy adds the same operands in the
        same order, and a 1-D grid holds no array of its size besides the
        density.
        """
        i = self.grid.axis_index(axis)
        ax = self.grid.axes[i]
        other = tuple(j for j in range(len(self.grid.axes)) if j != i)
        weights = self.values.sum(axis=other) if other else self.values
        total = weights.sum()
        mean = float(_pairwise_sum(
            lambda lo, hi: weights[lo:hi] / total * ax.centers(lo, hi),
            0, ax.count))
        var = float(_pairwise_sum(
            lambda lo, hi: (weights[lo:hi] / total
                            * (ax.centers(lo, hi) - mean) ** 2),
            0, ax.count))
        return mean, var

    # -- serialisation -----------------------------------------------------

    def dumps(self) -> str:
        head = " ".join(
            f"{a.name}:{a.lo!r}:{a.hi!r}:{a.count}" for a in self.grid.axes)
        flat = self.values.ravel(order="C")
        chunks = ("\n".join(map(repr, flat[i:i + _DUMPS_CHUNK].tolist()))
                  for i in range(0, flat.size, _DUMPS_CHUNK))
        # the empty last part ends the text with a newline
        return "\n".join([f"axes {head} eps {self.eps!r}", *chunks, ""])

    @classmethod
    def loads(cls, text: str) -> "GridDistribution":
        """Read `dumps` text; every malformed text raises InfoError.

        The cells are parsed a bounded chunk of lines at a time into one
        float64 array.
        """
        chunks = _stripped_line_chunks(text)
        first = next(chunks, [])
        header = first[0].split() if first else []
        if len(header) < 3 or header[0] != "axes" or header[-2] != "eps":
            raise InfoError("bad distribution header")
        try:
            axes = []
            for part in header[1:-2]:
                name, lo, hi, count = part.split(":")
                axes.append(Axis(name, float(lo), float(hi), int(count)))
            eps = float(header[-1])
            size = math.prod(a.count for a in axes)
            # a grid past the bound is refused below, once every cell parsed
            values = np.empty(size if size <= MAX_GRID_CELLS else 0)
            found = 0
            for lines in chain([first[1:]], chunks):
                cells = [float(v) for v in lines]
                keep = max(0, min(len(cells), values.size - found))
                values[found:found + keep] = cells[:keep]
                found += len(cells)
        except ValueError as exc:
            raise InfoError(f"malformed distribution text: {exc}") from None
        spec = GridSpec(tuple(axes))
        if found != size:
            raise InfoError(f"distribution text has {found} cells, "
                            f"its grid {spec.shape} has {size}")
        values = values.reshape(spec.shape)
        total = _checked_mass(spec, values, eps)
        # Dumped values are normalised already, and dividing them by their
        # mass once more would move their last bits: keep them as stored
        # (dividing by 1 keeps every bit).
        if math.isclose(total, 1.0, rel_tol=NORMALISED_REL_TOL):
            total = 1.0
        return cls._owning(spec, values, eps, total)


# ---------------------------------------------------------------------------
# nested delta construction
# ---------------------------------------------------------------------------

@dataclass
class MetricBinding:
    """Function handles for the symbols of a depth-0/1 expression.

    ``sigma`` takes as many point arguments as the expression's tuple;
    ``tau`` acts on sigma values; ``phi`` is an optional self-map of the
    point space used by the map-substitution form.
    """

    sigma: Callable[..., np.ndarray] | None = None
    tau: Callable[[np.ndarray], np.ndarray] | None = None
    phi: Callable[[np.ndarray], np.ndarray] | None = None


def build_nested_distribution(expr: TopologyExpr, binding: MetricBinding,
                              grid: GridSpec, eps: float) -> GridDistribution:
    """Evaluate the expression's nested smoothed deltas on the grid.

    The grid must carry one axis per point argument (any names) followed by
    one offset axis per operator level, ordered innermost first (the
    deepest delta's offset comes right after the point axes).
    """
    if expr.is_trivial:
        raise InfoError("cannot build a distribution for the trivial tree")
    depth = expr.depth
    if depth > 1:
        raise InfoError("distribution construction supports depth 0 and 1 only")
    uses_map = any(a.kind == ARG_MAP for a in expr.args)
    n_points = 1 if uses_map else sum(1 for a in expr.args if a.kind == ARG_POINT)
    n_offsets = depth + 1
    if len(grid.axes) != n_points + n_offsets:
        raise InfoError(
            f"grid needs {n_points} point axes plus {n_offsets} offset axes, "
            f"got {len(grid.axes)}")
    if binding.sigma is None:
        raise InfoError("binding does not supply 'sigma'")
    if depth >= 1 and binding.tau is None:
        raise InfoError("binding does not supply 'tau'")
    if uses_map and binding.phi is None:
        raise InfoError("binding does not supply 'phi'")

    meshes = grid.meshes()
    points = meshes[:n_points]
    offsets = meshes[n_points:]

    if uses_map:
        inner = binding.sigma(binding.phi(points[0]))
    else:
        inner = binding.sigma(*points)
    inner = np.asarray(inner, dtype=float)
    if not (math.isfinite(inner.min()) and math.isfinite(inner.max())):
        idx = np.unravel_index(int(np.argmin(np.isfinite(inner))), grid.shape)
        loc = tuple(float(m[idx]) for m in meshes)
        raise InfoError(f"non-finite sigma/tau evaluation at grid point {loc}")
    if depth >= 1:
        inner = np.asarray(binding.tau(inner), dtype=float)
        if not (math.isfinite(inner.min()) and math.isfinite(inner.max())):
            raise InfoError("non-finite tau evaluation")

    value = inner
    for off in offsets:  # innermost offset first
        value = smoothed_delta(value, off, eps)
    # every offset mesh has the grid's shape, so value is a new grid array
    return GridDistribution._owning(grid, value, eps,
                                    _checked_mass(grid, value, eps))


# ---------------------------------------------------------------------------
# the Gaussian location family
# ---------------------------------------------------------------------------

def check_scale(scale: float) -> float:
    """``scale`` when the information 1/scale^2 it should give is finite
    and nonzero (so 0 < scale < inf, never nan)."""
    if not (scale > 0 and 0 < scale * scale < math.inf):
        raise InfoError("must be > 0 with 1/scale^2 finite and nonzero")
    return scale


def check_span(span: float) -> float:
    """``span`` when it is at least 4 kernel widths, past which the kernel
    holds less than 1e-4 of its mass (never nan)."""
    if not span >= 4:
        raise InfoError(f"span must be at least 4 kernel widths, got {span!r}")
    return span


def location_family(scale: float, span: float = 6.0,
                    samples: int = 256) -> GridDistribution:
    """The Gaussian location family ``sig(m1)`` with ``sigma = m``, smoothed
    at width ``scale``: its Fisher information along the offset axis ``a``
    is 1/scale^2.

    The location axis ``m`` spans [-0.5, 0.5] in ``max(8, samples // 16)``
    cells; the offset axis ``a`` reaches ``span * scale`` past it on each
    side in ``samples`` cells.  A grid too short or too coarse for the
    kernel misses that answer, so the family is built only when
    `check_scale` and `check_span` hold, the grid passes its own checks,
    and an offset cell, ``(2 * span * scale + 1) / samples`` wide, is no
    wider than ``scale``.
    """
    half = check_span(span) * check_scale(scale)
    spec = GridSpec((Axis("m", -0.5, 0.5, max(8, samples // 16)),
                     Axis("a", -half - 0.5, half + 0.5, samples)))
    cell = spec.axes[1].spacing
    if not cell <= scale:
        raise InfoError(f"an offset cell is (2 * span * scale + 1) / samples "
                        f"= {cell!r} wide, more than scale = {scale!r}")
    return build_nested_distribution(
        parse("sig(m1)"), MetricBinding(sigma=lambda m: m), spec, eps=scale)


# ---------------------------------------------------------------------------
# information functionals
# ---------------------------------------------------------------------------

def _central_differences(f: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """``np.gradient(f, dx, axis=axis)`` for a float array f and a scalar
    spacing dx, bit for bit, written into one new array: central
    differences inside, one-sided ones at both ends."""
    out = np.empty_like(f)
    f, d = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * dx
    # slices, not indices: on a 1-D array an index gives no view to write
    np.subtract(f[1:2], f[0:1], out=d[0:1])
    np.subtract(f[-1:], f[-2:-1], out=d[-1:])
    d[0:1] /= dx
    d[-1:] /= dx
    return out


def _floored_log(f: np.ndarray, floor: float) -> np.ndarray:
    """``log(max(f, floor))``, computed in one new array."""
    out = np.maximum(f, floor)
    return np.log(out, out=out)


def _pairwise_sum(leaf: Callable[[int, int], np.ndarray], lo: int,
                  hi: int) -> np.float64:
    """``np.sum`` of cells ``lo:hi`` of a C-order array whose cells ``a:b``
    ``leaf(a, b)`` makes on demand, to the bit.

    numpy sums a contiguous array along one pairwise tree (``pairwise_sum``
    in ``_core/src/umath/loops_utils.h.src``): a run of more than 128 cells
    is split after ``n // 2`` cells rounded down to a multiple of 8, and a
    shorter run is added with 8 accumulators.  This walk splits exactly
    there down to runs of at most ``max(_FISHER_SLAB, 128)`` cells and sums
    each with ``np.add.reduce``, so every addition is one numpy makes, with
    the same operands in the same order.
    """
    n = hi - lo
    if n <= max(_FISHER_SLAB, 128):
        return np.add.reduce(leaf(lo, hi))
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(leaf, lo, lo + half)
            + _pairwise_sum(leaf, lo + half, hi))


def _cuts(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """``lo:hi`` cut at the multiples of ``width``: the rest of one run of
    ``width`` cells, whole runs, the start of one run (empty parts left
    out); when no multiple falls inside, ``lo:hi`` itself."""
    head = min(-(-lo // width) * width, hi)
    tail = max(hi // width * width, head)
    return [(a, b) for a, b in ((lo, head), (head, tail), (tail, hi))
            if a < b]


def _log_gradients(cells: np.ndarray, floor: float, dx: float, lo: int,
                   hi: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(a, b, d)`` for consecutive parts ``a:b`` of the C-order cells
    ``lo:hi`` of ``cells``, a grid viewed as (lines, n, width) with the
    differentiated axis in the middle: ``d`` is `_central_differences` of
    ``log(max(f, floor))`` along that axis over those cells, with the bits
    of the whole grid's, computed from a window of the cells they need.

    Whole lines are differentiated as they are.  In part of a line, the
    window holds its rows (``width`` cells each) and one more row on each
    side inside the line; part of a row keeps only its own columns.
    """
    _, n, width = cells.shape
    line = n * width
    for a, b in _cuts(lo, hi, line):
        if a % line == 0 and b % line == 0:
            d = _central_differences(
                _floored_log(cells[a // line:b // line], floor), dx, 1)
            yield a, b, d.reshape(-1)
            continue
        base = a - a % line
        rows = cells[a // line]
        for c, e in _cuts(a - base, b - base, width):
            r0, c0 = divmod(c, width)
            r1, c1 = -(-e // width), min(width, c0 + e - c)
            w0 = max(r0 - 1, 0)
            d = _central_differences(
                _floored_log(rows[w0:min(r1 + 1, n), c0:c1], floor), dx, 0)
            yield base + c, base + e, d[r0 - w0:r1 - w0].reshape(-1)


def _fisher_terms(cells: np.ndarray, floor: float, dx: float, lo: int,
                  hi: int) -> np.ndarray:
    """``(f * dlogf) * dlogf`` over the C-order cells ``lo:hi`` of
    ``cells``, shaped as `_log_gradients` takes it."""
    f = cells.reshape(-1)
    parts = []
    for a, b, dlogf in _log_gradients(cells, floor, dx, lo, hi):
        with np.errstate(under="raise"):
            terms = f[a:b] * dlogf
            terms *= dlogf
        parts.append(terms)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def fisher_information(dist: GridDistribution, axis: int | str) -> float:
    """Quadrature of f * (d ln f / dx)^2 along the given axis; >= 0.

    The result has the bits of the whole-grid formula, ``np.sum`` of
    ``f * dlogf * dlogf`` with ``dlogf`` the `_central_differences` of the
    floored logarithm, but holds no array of the grid's shape besides the
    density: `_pairwise_sum` splits the C-order cells where numpy's own
    pairwise sum splits them (a run of more than 128 cells after half its
    length, rounded down to a multiple of 8), so numpy adds the same
    operands in the same order, and makes the terms of one leaf of at most
    `_FISHER_SLAB` cells at a time, each from a window of just the cells
    its differences read.  Raises InfoError when a term underflows, as on
    a grid whose density is so small that the sum would read 0 or lose
    its leading digits.
    """
    i = dist.grid.axis_index(axis)
    shape = dist.grid.shape
    cells = dist.values.reshape(math.prod(shape[:i]), shape[i],
                                math.prod(shape[i + 1:]))
    floor = LOG_FLOOR_RATIO * float(dist.values.max())
    leaf = partial(_fisher_terms, cells, floor, dist.grid.axes[i].spacing)
    try:
        total = _pairwise_sum(leaf, 0, dist.values.size)
    except FloatingPointError:
        raise InfoError("Fisher information underflows on this grid") from None
    return float(total * dist.grid.cell_volume)


@dataclass(frozen=True)
class CramerRaoReport:
    """Per-axis Fisher information with the classical variance check."""

    axis_names: tuple[str, ...]
    information: tuple[float, ...]
    variance: tuple[float, ...]

    @property
    def products(self) -> tuple[float, ...]:
        return tuple(v * i for v, i in zip(self.variance, self.information))

    def lines(self) -> list[str]:
        out = []
        for name, info, var, prod in zip(
                self.axis_names, self.information, self.variance, self.products):
            out.append(f"axis = {name}")
            out.append(f"information = {info!r}")
            out.append(f"variance = {var!r}")
            out.append(f"variance_x_information = {prod!r}")
        return out


def cramer_rao_report(dist: GridDistribution) -> CramerRaoReport:
    names, infos, variances = [], [], []
    for i, axis in enumerate(dist.grid.axes):
        names.append(axis.name)
        infos.append(fisher_information(dist, i))
        variances.append(dist.marginal_moments(i)[1])
    return CramerRaoReport(tuple(names), tuple(infos), tuple(variances))


# ---------------------------------------------------------------------------
# 3-index information density
# ---------------------------------------------------------------------------

TENSOR_DIM = 4  # four arguments, by dimension criticality


@dataclass
class InfoTensorBinding:
    """A 4x4x4 tensor of scalar maps plus a 4x4 offset matrix.

    Component (i, j) of the delta matrix is the smoothed delta of
    ``sum_k Lambda[i][j][k](mbar[k]) - offsets[i][j]``.
    """

    Lambda: Sequence[Sequence[Sequence[Callable[[float], float]]]]
    offsets: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        if self.offsets.shape != (TENSOR_DIM, TENSOR_DIM):
            raise InfoError(f"offsets must be {TENSOR_DIM}x{TENSOR_DIM}")

    def delta_matrix(self, mbar: np.ndarray, eps: float) -> np.ndarray:
        # summed left to right: the builtin sum compensates from Python 3.12
        z = np.array([[reduce(add, (float(self.Lambda[i][j][k](mbar[k]))
                                    for k in range(TENSOR_DIM)), 0.0)
                       for j in range(TENSOR_DIM)] for i in range(TENSOR_DIM)])
        if not np.isfinite(z).all():
            i, j = np.argwhere(~np.isfinite(z))[0]
            raise InfoError(f"non-finite tensor component at ({i}, {j})")
        return smoothed_delta(z, self.offsets, eps)


def information_density(binding: InfoTensorBinding, mbar, eps: float) -> float:
    """Scalar density: D_ij summed against log-derivative products.

    Log-derivatives of every component are taken by central differences in
    each of the four arguments, with step ``max(1e-5, 1e-4 * max|mbar|)``;
    i, j contract against the delta matrix and k, l contract the two
    derivative factors.
    """
    mbar = np.asarray(mbar, dtype=float)
    if mbar.shape != (TENSOR_DIM,):
        raise InfoError(f"mbar must have {TENSOR_DIM} components")
    h = max(1e-5, 1e-4 * float(np.max(np.abs(mbar)) or 1.0))

    d0 = binding.delta_matrix(mbar, eps)
    peak = 1.0 / (eps * math.sqrt(2.0 * math.pi))
    if d0.min() < LOG_FLOOR_RATIO * peak:
        raise InfoError(
            "delta matrix underflows at this point; use a larger eps or "
            "offsets closer to the tensor values")

    # dlog[i, k, l]: derivative of ln D_kl with respect to mbar_i
    dlog = np.array([
        (np.log(up) - np.log(dn)) / (2.0 * h)
        for up, dn in offset_pairs(lambda m: binding.delta_matrix(m, eps),
                                   mbar, h)])

    return float(np.einsum("ij,ikl,jkl->", d0, dlog, dlog))
