"""Criticality solving and geodesics over policy-lever space.

Payoffs are plain finite-dimensional functionals; criticality means a
vanishing central-difference gradient.  Metrics on lever space come either
from user callables or from second differences of a finite-group policy
cost, and geodesics are integrated with a classical fourth-order
Runge-Kutta scheme.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .infotheory import Axis, offset_pairs, smoothed_delta


class VariationalError(Exception):
    pass


class CriticalityError(VariationalError):
    """Raised when the iteration cap is reached; carries the best point."""

    def __init__(self, message: str, best_theta: np.ndarray, residual: float):
        super().__init__(message)
        self.best_theta = best_theta
        self.residual = residual


@dataclass(frozen=True)
class Functional:
    """A real-valued payoff over a d-dimensional parameter vector."""

    evaluate: Callable[[np.ndarray], float]
    dimension: int
    tag: str = ""

    def parameters(self, theta) -> np.ndarray:
        """``theta`` as a float vector, checked to have `dimension` entries."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dimension,):
            raise VariationalError(
                f"{self.tag or 'functional'}: expected {self.dimension} "
                f"parameters, got shape {theta.shape}")
        return theta

    def __call__(self, theta) -> float:
        return float(self.evaluate(self.parameters(theta)))


def first_variation(F: Functional, theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of F at theta."""
    if h <= 0:
        raise VariationalError("step h must be > 0")
    theta = F.parameters(theta)
    grad = np.empty(F.dimension)
    # theta is checked, so its offset points go to F.evaluate directly
    pairs = offset_pairs(lambda q: float(F.evaluate(q)), theta, h)
    for i, (fu, fd) in enumerate(pairs):
        if not (math.isfinite(fu) and math.isfinite(fd)):
            raise VariationalError(
                f"non-finite evaluation while varying component {i} at "
                f"offset ±{h}")
        grad[i] = (fu - fd) / (2.0 * h)
    return grad


def solve_critical(F: Functional, theta0, tol: float = 1e-6,
                   h: float = 1e-5, max_iter: int = 50000,
                   step0: float = 1.0,
                   trace: list | None = None) -> np.ndarray:
    """Damped gradient descent with backtracking until |grad| < tol.

    Deterministic: fixed step schedule, no randomness.  The first point
    reaching the residual tolerance is returned.  Hitting the iteration
    cap raises CriticalityError carrying the best point seen.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    best_theta, best_res = theta.copy(), math.inf
    step = step0
    # an overflowing evaluation is reported by first_variation or skipped
    # by the line search, so numpy's float warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        value = F(theta)
        for it in range(max_iter):
            grad = first_variation(F, theta, h)
            res = math.sqrt(float(grad @ grad))
            if trace is not None:
                trace.append((it, theta.copy(), value, res))
            if res < best_res:
                best_theta, best_res = theta.copy(), res
            if res < tol:
                return theta
            moved = False
            while step > 1e-14:
                cand = theta - step * grad
                cval = F(cand)
                if math.isfinite(cval) and cval < value:
                    theta, value = cand, cval
                    step *= 1.5
                    moved = True
                    break
                step *= 0.5
            if not moved:
                # cannot descend further at machine scale; report best point
                break
    raise CriticalityError(
        f"no point with residual < {tol} within {max_iter} iterations "
        f"(best residual {best_res:.3e})", best_theta, best_res)


def critical_trace_csv(trace: Sequence[tuple]) -> str:
    if not trace:
        return "iteration,value,residual\n"
    d = len(trace[0][1])
    buf = io.StringIO()
    cols = ",".join(f"theta{i}" for i in range(d))
    buf.write(f"iteration,{cols},value,residual\n")
    for it, theta, value, res in trace:
        pts = ",".join(repr(float(t)) for t in theta)
        buf.write(f"{it},{pts},{value!r},{res!r}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# metrics and geodesics
# ---------------------------------------------------------------------------

MIN_EIGENVALUE = 1e-9
#: most lever coordinates a metric may have; `christoffel` keeps a d x d x d
#: array, 2 MiB at this bound
MAX_METRIC_DIMENSION = 64


def _check_metric_dimension(dimension: int) -> None:
    if dimension > MAX_METRIC_DIMENSION:
        raise VariationalError(f"at most {MAX_METRIC_DIMENSION} metric "
                               f"dimensions, got {dimension}")


def _is_diagonal(g: np.ndarray) -> bool:
    """True when every off-diagonal entry of g is +0 or -0."""
    return np.count_nonzero(g) == np.count_nonzero(g.diagonal())


@dataclass(frozen=True)
class MetricField:
    """Pointwise symmetric positive-definite metric on lever space.

    ``constant`` promises that ``matrix_at`` returns the same matrix at
    every point; `integrate_geodesic` then computes the connection once
    per path instead of at every RK4 stage.

    Every call checks the matrix.  A diagonal matrix, such as the sphere
    metric, is decided without LAPACK: its eigenvalues are its diagonal
    entries, and `christoffel` inverts it by taking their reciprocals.
    Both give the verdict and the bits the general route gives.
    """

    dimension: int
    matrix_at: Callable[[np.ndarray], np.ndarray]
    constant: bool = False

    def __post_init__(self):
        _check_metric_dimension(self.dimension)

    def __call__(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        g = np.asarray(self.matrix_at(p), dtype=float)
        if g.shape != (self.dimension, self.dimension):
            raise VariationalError(
                f"metric returned shape {g.shape}, expected "
                f"({self.dimension}, {self.dimension})")
        diag = g.diagonal().tolist()
        if _is_diagonal(g) and not any(map(math.isnan, diag)):
            # symmetric, with its diagonal for eigenvalues; a nan on the
            # diagonal goes the general way, where allclose calls it
            # not symmetric
            vals = sorted(diag)
        else:
            # exact equality implies allclose, so the cheap test decides first
            if not ((g == g.T).all() or np.allclose(g, g.T, atol=0.0)):
                raise VariationalError(
                    f"metric is not symmetric at {p.tolist()}")
            # a non-finite entry makes eigvalsh fail or return nan or inf
            try:
                vals = np.linalg.eigvalsh(g).tolist()
            except np.linalg.LinAlgError:
                vals = [math.nan]
        if not (vals[0] > MIN_EIGENVALUE and vals[-1] < math.inf):
            kind = "positive-definite" if np.isfinite(g).all() else "finite"
            raise VariationalError(f"metric is not {kind} at {p.tolist()}")
        return g


def euclidean_metric(dimension: int) -> MetricField:
    _check_metric_dimension(dimension)
    return constant_metric(np.eye(dimension))


def constant_metric(matrix) -> MetricField:
    matrix = np.asarray(matrix, dtype=float)
    return MetricField(matrix.shape[0], lambda p: matrix, constant=True)


def sphere_metric() -> MetricField:
    """Unit 2-sphere in (theta, phi) coordinates, diag(1, sin^2 theta)."""
    def g(p):
        if not math.isfinite(p[0]):
            raise VariationalError(f"sphere metric needs a finite theta, "
                                   f"got {float(p[0])!r}")
        s = math.sin(p[0])
        return np.array([[1.0, 0.0], [0.0, s * s]])
    return MetricField(2, g)


#: offset of the central metric differences in `christoffel`
CHRISTOFFEL_H = 1e-5


def christoffel(g: MetricField, p) -> np.ndarray:
    """Connection coefficients Gamma^k_ij by central metric differences."""
    p = np.asarray(p, dtype=float)
    # dg[l] = d g / d p_l
    dg = np.array([(up - dn) / (2.0 * CHRISTOFFEL_H)
                   for up, dn in offset_pairs(g, p, CHRISTOFFEL_H)])
    G = g(p)
    ginv = (np.diag(1.0 / G.diagonal()) if _is_diagonal(G)
            else np.linalg.inv(G))
    # br[l, i, j] = d_i g_lj + d_j g_li - d_l g_ij
    br = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, br)


#: most RK4 steps one geodesic may take; every point is kept in memory
MAX_GEODESIC_STEPS = 100_000


def _csv_columns(d: int) -> str:
    """The column header of a d-dimensional `GeodesicPath` csv."""
    return ",".join([f"p{i}" for i in range(d)] + [f"v{i}" for i in range(d)])


@dataclass(frozen=True)
class GeodesicPath:
    """Discrete geodesic: points and velocities at uniform parameter steps."""

    points: np.ndarray        # (steps + 1, d)
    velocities: np.ndarray    # (steps + 1, d)
    h: float

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    def energies(self, g: MetricField) -> np.ndarray:
        """g(v, v) at every sample; constant along a true geodesic.

        Raises VariationalError naming the first sample whose energy is
        not finite, such as one whose velocity squared overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.array([float(v @ g(p) @ v)
                            for p, v in zip(self.points, self.velocities)])
        bad = ~np.isfinite(out)
        if bad.any():
            raise VariationalError(
                f"energy is not finite at sample {int(np.argmax(bad))}")
        return out

    def to_csv(self) -> str:
        d = self.points.shape[1]
        v0 = ";".join(repr(float(v)) for v in self.velocities[0])
        buf = io.StringIO()
        buf.write(f"# h={self.h!r} velocity={v0}\n")
        buf.write(_csv_columns(d) + "\n")
        for p, v in zip(self.points, self.velocities):
            buf.write(",".join(repr(float(x)) for x in (*p, *v)) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "GeodesicPath":
        lines = text.strip().splitlines()
        if not lines or not lines[0].startswith("# h="):
            raise VariationalError("missing geodesic header")
        try:
            h = float(lines[0].split("h=")[1].split()[0])
            rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[2:]]
        except (IndexError, ValueError) as exc:
            raise VariationalError(f"malformed geodesic csv: {exc}") from None
        if not rows:
            raise VariationalError("geodesic csv has no rows")
        widths = sorted({len(row) for row in rows})
        if len(widths) > 1 or widths[0] % 2:
            raise VariationalError(
                f"geodesic csv rows need one even column count, got {widths}")
        d = widths[0] // 2
        if lines[1] != _csv_columns(d):
            raise VariationalError(
                f"geodesic csv needs the column header {_csv_columns(d)}")
        arr = np.array(rows)
        return cls(arr[:, :d], arr[:, d:], h)


def integrate_geodesic(g: MetricField, start, velocity, steps: int,
                       h: float) -> GeodesicPath:
    """Integrate x'' = -Gamma(x)(v, v) with classical RK4.

    A metric failure mid-path, or a step that leaves a point or velocity
    that is not finite, raises VariationalError with the finite partial
    path before it attached as the ``partial`` attribute.  For a constant
    metric the connection is computed once, at step 0, and reused by every
    stage: the metric differences are exactly zero and its inverse is the
    same at every point, so the path is bit-identical to evaluating it per
    stage.
    """
    if steps < 1:
        raise VariationalError("need at least one step")
    if steps > MAX_GEODESIC_STEPS:
        raise VariationalError(
            f"at most {MAX_GEODESIC_STEPS} steps, got {steps}")
    if not 0 < h < math.inf:
        raise VariationalError("step h must be finite and > 0")
    x = np.asarray(start, dtype=float).copy()
    v = np.asarray(velocity, dtype=float).copy()
    if x.shape != (g.dimension,) or v.shape != (g.dimension,):
        raise VariationalError(
            f"start and velocity need shape ({g.dimension},), "
            f"got {x.shape} and {v.shape}")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise VariationalError(
            f"start and velocity must be finite, got {x.tolist()} and "
            f"{v.tolist()}")
    # x and v are rebound each step, never changed in place
    points, velocities = [x], [v]
    fixed = None  # a constant metric's connection, set at step 0
    failure = None

    def accel(xx, vv):
        gamma = christoffel(g, xx) if fixed is None else fixed
        return -np.einsum("kij,i,j->k", gamma, vv, vv)

    # an overflow leaves inf or nan in x or v, which ends the path and is
    # reported once instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            try:
                if g.constant and n == 0:
                    fixed = christoffel(g, x)
                k1x, k1v = v, accel(x, v)
                k2x, k2v = v + 0.5 * h * k1v, accel(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
                k3x, k3v = v + 0.5 * h * k2v, accel(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
                k4x, k4v = v + h * k3v, accel(x + h * k3x, v + h * k3v)
            except VariationalError as exc:
                failure = f"metric failed at step {n}: {exc}"
                break
            x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            # a Python test is far quicker than np.isfinite on a few entries
            if not all(map(math.isfinite, x.tolist() + v.tolist())):
                failure = f"path is not finite at step {n}"
                break
            points.append(x)
            velocities.append(v)
    points, velocities = np.array(points), np.array(velocities)
    if failure is not None:
        err = VariationalError(failure)
        err.partial = GeodesicPath(points, velocities, h)
        raise err
    return GeodesicPath(points, velocities, h)


# ---------------------------------------------------------------------------
# finite groups and policy cost
# ---------------------------------------------------------------------------

MAX_GROUP_ORDER = 64


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group by composition table; element 0 is the identity."""

    labels: tuple[str, ...]
    table: np.ndarray            # table[a, b] = index of a*b
    generators: tuple[int, ...]
    #: inverses[a] = index of a^-1, read from the table once
    inverses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise VariationalError("group must be nonempty")
        if n > MAX_GROUP_ORDER:
            raise VariationalError(f"group order {n} exceeds {MAX_GROUP_ORDER}")
        if len(self.generators) > MAX_GROUP_ORDER:
            raise VariationalError(f"at most {MAX_GROUP_ORDER} generators, "
                                   f"got {len(self.generators)}")
        t = np.asarray(self.table)
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise VariationalError("malformed composition table")
        if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
            raise VariationalError("element 0 is not an identity")
        # every row and column must be a permutation (inverses exist)
        full = np.arange(n)
        bad = ~(np.all(np.sort(t, axis=1) == full, axis=1)
                & np.all(np.sort(t, axis=0) == full[:, None], axis=0))
        if bad.any():
            raise VariationalError(
                f"element {self.labels[int(np.argmax(bad))]} has no inverse")
        # exhaustive associativity check: (a*b)*c == a*(b*c)
        if not np.array_equal(t[t[:, :, None], np.arange(n)[None, None, :]],
                              t[np.arange(n)[:, None, None], t[None, :, :]]):
            raise VariationalError("composition table is not associative")
        for x in self.generators:
            if not 0 <= x < n:
                raise VariationalError(f"generator index {x} out of range")
        object.__setattr__(self, "inverses", np.argmax(t == 0, axis=1))

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inverses[a])


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = tuple(f"r{i}" for i in range(n))
    return FiniteGroup(labels, table, (1 % n,))


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; (r, s) with s r s = r^-1."""
    idx = np.arange(2 * n)
    # element r^i is index i and s r^i is index n + i
    ra, fa = idx[:, None] % n, idx[:, None] // n
    rb, fb = idx[None, :] % n, idx[None, :] // n
    table = np.where(fa == 0, (ra + rb) % n + n * fb,
                     (ra - rb) % n + n * (1 - fb))
    labels = tuple(f"r{i}" for i in range(n)) + tuple(f"sr{i}" for i in range(n))
    return FiniteGroup(labels, table, (1 % n, n))


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    if na * nb > MAX_GROUP_ORDER:
        raise VariationalError(
            f"product order {na * nb} exceeds {MAX_GROUP_ORDER}")

    # (i, j) is index i * nb + j, and (i, j)(k, l) = (ik, jl)
    table = (a.table[:, None, :, None] * nb
             + b.table[None, :, None, :]).reshape(na * nb, na * nb)
    labels = tuple(f"{la}.{lb}" for la in a.labels for lb in b.labels)
    gens = tuple(x * nb for x in a.generators) + b.generators
    return FiniteGroup(labels, table, gens)


@dataclass(frozen=True)
class PolicyCostFunction:
    """Pairwise action cost over a finite group.

    ``cost(a, b)`` takes two element indices and returns a real; the
    scalar profile used by the information density is P(g) = cost(e, g).
    """

    group: FiniteGroup
    cost: Callable[[int, int], float]

    def profile(self) -> np.ndarray:
        vals = np.array([float(self.cost(0, g))
                         for g in range(self.group.order)])
        if not np.all(np.isfinite(vals)):
            bad = int(np.nonzero(~np.isfinite(vals))[0][0])
            raise VariationalError(
                f"cost is not finite at element {self.group.labels[bad]}")
        return vals


def word_distance_cost(group: FiniteGroup) -> PolicyCostFunction:
    """cost(a, b) = generator word length of a^-1 b (breadth-first)."""
    gens = np.array(group.generators, dtype=int)
    # moves[g] = g x for every generator x and every inverse generator
    moves = group.table[:, np.concatenate((gens, group.inverses[gens]))]
    dist = np.full(group.order, -1, dtype=int)
    dist[0] = 0
    frontier, length = np.zeros(1, dtype=int), 0
    while frontier.size:
        length += 1
        reached = moves[frontier]
        dist[reached[dist[reached] < 0]] = length
        frontier = np.flatnonzero(dist == length)
    if dist.min() < 0:
        raise VariationalError("generators do not generate the group")
    return PolicyCostFunction(
        group, lambda a, b: float(dist[group.mul(group.inverse(a), b)]))


#: offset samples of the quadrature in `policy_information`
POLICY_INFO_SAMPLES = 512
#: spectrum floor that keeps `lever_metric` positive-definite
LEVER_EIGEN_FLOOR = 1e-6


def policy_information(pcf: PolicyCostFunction, eps: float) -> float:
    """Information of the policy density f(g, a) = smoothed delta of P(g) - a.

    The score combines the offset derivative with symmetric log-differences
    along each generator direction.  The group sum uses counting measure
    weighted by 1/|G|, so a constant cost yields the single-delta
    self-information, 1/eps^2, and a cost-neutral direct factor leaves the
    value unchanged.  Raises VariationalError when eps is not in (0, inf)
    or the sum overflows, as its score terms, of order 1/eps^2, do for eps
    near 1e-150 and below; InfoError when the offset grid, the cost range
    widened by 6 eps on each side, is not finite or has no width.
    """
    # the comparison is false for nan as well
    if not 0 < eps < math.inf:
        raise VariationalError(
            f"smoothing width must lie in (0, inf), got {eps!r}")
    group = pcf.group
    prof = pcf.profile()
    alpha = Axis("a", float(prof.min()) - 6.0 * eps,
                 float(prof.max()) + 6.0 * eps, POLICY_INFO_SAMPLES)
    da = alpha.spacing
    f = smoothed_delta(prof[:, None], alpha.centers(), eps)  # (|G|, samples)
    floor = 1e-300
    logf = np.log(np.maximum(f, floor))
    # an overflow anywhere below leaves the sum inf or nan, which is
    # reported once as an error instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        dlog_a = np.gradient(logf, da, axis=1)
        score2 = dlog_a ** 2
        for x in group.generators:
            # the neighbours g x and g x^-1 of every element g
            fwd, bwd = group.table[:, x], group.table[:, group.inverse(x)]
            dlog_g = 0.5 * (logf[fwd] - logf[bwd])
            score2 = score2 + dlog_g ** 2
        info = float(np.sum(f * score2) * da) / group.order
    if not math.isfinite(info):
        raise VariationalError(
            f"policy information overflows at smoothing width {eps!r}")
    return info


def lever_metric(pcf: PolicyCostFunction) -> MetricField:
    """Constant metric from second cost differences on length-2 words.

    h_ij = P(x_i x_j) - P(x_i) - P(x_j) + P(e) over the generator levers,
    symmetrized; the spectrum is floored at LEVER_EIGEN_FLOOR to keep the
    field positive-definite.  P is read from `PolicyCostFunction.profile`,
    so the cost must be finite on every group element, as
    `policy_information` also requires.
    """
    group = pcf.group
    gens = list(group.generators)
    if not gens:
        raise VariationalError("policy group declares no generators")
    prof = pcf.profile()
    pe = prof[0]
    p1 = prof[gens]
    p2 = prof[group.table[np.ix_(gens, gens)]]  # p2[i, j] = P(x_i x_j)
    h = p2 - p1[:, None] - p1[None, :] + pe
    sym = 0.5 * (h + h.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, LEVER_EIGEN_FLOOR)
    return constant_metric(vecs @ np.diag(vals) @ vecs.T)


def optimal_policy_path(pcf: PolicyCostFunction, start, steps: int,
                        h: float = 0.01) -> GeodesicPath:
    """Geodesic of the lever metric from ``start``, leaving it along the
    unit vector of the first lever axis."""
    metric = lever_metric(pcf)
    return integrate_geodesic(metric, start, np.eye(metric.dimension)[0],
                              steps, h)
