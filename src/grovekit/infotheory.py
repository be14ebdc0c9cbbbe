"""Smoothed nested-delta distributions on grids and information functionals.

Dirac deltas are regularised as Gaussian kernels of width eps, which keeps
the Fisher-type integrals finite and analytically checkable.  Quadrature
is the midpoint rule on cell centres; log-derivatives use central
differences in the interior and one-sided differences at boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Iterator, Sequence

import numpy as np

from .expr import ARG_MAP, ARG_POINT, TopologyExpr


class InfoError(Exception):
    pass


#: Relative floor applied inside logarithms; keeps low-density cells from
#: producing -inf while perturbing integrals below test tolerances.
LOG_FLOOR_RATIO = 1e-12

#: Mass tolerance within which `GridDistribution.loads` takes stored values
#: as normalised; it covers the rounding of a normalised grid's sum.
NORMALISED_REL_TOL = 1e-9

#: Most cells a grid may hold: one float64 array over it takes 128 MiB.
MAX_GRID_CELLS = 2 ** 24


def offset_pairs(f: Callable, p: np.ndarray, h: float) -> Iterator[tuple]:
    """``(f(p + h e_i), f(p - h e_i))`` for each coordinate i in order, the
    other coordinates keeping their bits; central differences use them."""
    for i in range(len(p)):
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        yield f(up), f(dn)


def smoothed_delta(x, center, eps: float):
    """Gaussian kernel of width eps centred at ``center``; integrates to 1."""
    # the comparison is false for nan as well
    if not 0 < eps < math.inf:
        raise InfoError(f"smoothing width must lie in (0, inf), got {eps!r}")
    z = (np.asarray(x, dtype=float) - center) / eps
    # a far-out z squares to inf, and exp(-inf) is exactly the 0 it should be
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / (eps * math.sqrt(2.0 * math.pi))


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

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.count) + 0.5) * self.spacing


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
        return np.meshgrid(*[a.centers() for a in self.axes], indexing="ij")


def grid(*axes: tuple[str, float, float, int]) -> GridSpec:
    return GridSpec(tuple(Axis(*a) for a in axes))


class GridDistribution:
    """A normalised nonnegative density sampled on a GridSpec."""

    def __init__(self, grid: GridSpec, values: np.ndarray, eps: float):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise InfoError(
                f"value shape {values.shape} does not match grid {grid.shape}")
        if not 0 < eps < math.inf:
            raise InfoError(
                f"smoothing width must lie in (0, inf), got {eps!r}")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise InfoError("density values must be finite and nonnegative")
        total = values.sum() * grid.cell_volume
        if total <= 0:
            raise InfoError("density has zero mass on the grid")
        self.grid = grid
        self.values = values / total
        self.values.setflags(write=False)
        self.eps = eps

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable[..., np.ndarray],
                      eps: float) -> "GridDistribution":
        values = np.asarray(fn(*grid.meshes()), dtype=float)
        values = np.broadcast_to(values, grid.shape).copy()
        return cls(grid, values, eps)

    def marginal_moments(self, axis: int | str) -> tuple[float, float]:
        """Mean and variance of the marginal along one axis."""
        i = self.grid.axis_index(axis)
        other = tuple(j for j in range(len(self.grid.axes)) if j != i)
        weights = self.values.sum(axis=other) if other else self.values
        weights = weights / weights.sum()
        x = self.grid.axes[i].centers()
        mean = float(np.sum(weights * x))
        var = float(np.sum(weights * (x - mean) ** 2))
        return mean, var

    # -- serialisation -----------------------------------------------------

    def dumps(self) -> str:
        head = " ".join(
            f"{a.name}:{a.lo!r}:{a.hi!r}:{a.count}" for a in self.grid.axes)
        lines = [f"axes {head} eps {self.eps!r}"]
        lines.extend(repr(float(v)) for v in self.values.ravel(order="C"))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "GridDistribution":
        """Read `dumps` text; every malformed text raises InfoError."""
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
        dist = cls(spec, values, eps)
        # Dumped values are normalised already, and dividing them by their
        # mass once more would move their last bits: keep them as stored.
        if math.isclose(float(values.sum()) * spec.cell_volume, 1.0,
                        rel_tol=NORMALISED_REL_TOL):
            values.setflags(write=False)
            dist.values = values
        return dist


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
    if not np.all(np.isfinite(inner)):
        idx = np.unravel_index(int(np.argmin(np.isfinite(inner))), grid.shape)
        loc = tuple(float(m[idx]) for m in meshes)
        raise InfoError(f"non-finite sigma/tau evaluation at grid point {loc}")
    if depth >= 1:
        inner = np.asarray(binding.tau(inner), dtype=float)
        if not np.all(np.isfinite(inner)):
            raise InfoError("non-finite tau evaluation")

    value = inner
    for off in offsets:  # innermost offset first
        value = smoothed_delta(value, off, eps)
    return GridDistribution(grid, value, eps)


# ---------------------------------------------------------------------------
# information functionals
# ---------------------------------------------------------------------------

def _log_with_floor(values: np.ndarray) -> np.ndarray:
    floor = LOG_FLOOR_RATIO * float(values.max())
    return np.log(np.maximum(values, floor))


def fisher_information(dist: GridDistribution, axis: int | str) -> float:
    """Quadrature of f * (d ln f / dx)^2 along the given axis; >= 0.

    Raises InfoError when a term underflows, as on a grid whose density is
    so small that the sum would read 0 or lose its leading digits.
    """
    i = dist.grid.axis_index(axis)
    logf = _log_with_floor(dist.values)
    dlogf = np.gradient(logf, dist.grid.axes[i].spacing, axis=i)
    try:
        with np.errstate(under="raise"):
            terms = dist.values * dlogf * dlogf
    except FloatingPointError:
        raise InfoError("Fisher information underflows on this grid") from None
    return float(np.sum(terms) * dist.grid.cell_volume)


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
