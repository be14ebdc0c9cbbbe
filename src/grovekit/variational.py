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

from .infotheory import (Axis, _central_differences, check_width,
                         offset_pairs, smoothed_delta)


class VariationalError(Exception):
    pass


class CriticalityError(VariationalError):
    """Raised when the iteration cap is reached; carries the best point."""

    def __init__(self, message: str, best_theta: np.ndarray, residual: float):
        super().__init__(message)
        self.best_theta = best_theta
        self.residual = residual


#: most lever coordinates of a functional or a metric; `christoffel` keeps
#: a d x d x d array, 2 MiB at this bound
MAX_LEVER_DIMENSION = 64


def check_lever_dimension(dimension: int) -> int:
    if dimension < 1:
        raise VariationalError(f"lever dimension must be >= 1, "
                               f"got {dimension}")
    if dimension > MAX_LEVER_DIMENSION:
        raise VariationalError(f"at most {MAX_LEVER_DIMENSION} lever "
                               f"dimensions, got {dimension}")
    return dimension


@dataclass(frozen=True)
class Functional:
    """A real-valued payoff over a d-dimensional parameter vector."""

    evaluate: Callable[[np.ndarray], float]
    dimension: int
    tag: str = ""

    def __post_init__(self):
        check_lever_dimension(self.dimension)

    def parameters(self, theta) -> np.ndarray:
        """``theta`` as a float vector, checked to have `dimension` entries;
        its entries may be nan or inf, as a line search's candidates are."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dimension,):
            raise _wrong_length(f"{self.tag or 'functional'} parameters",
                                self.dimension, theta)
        return theta

    def __call__(self, theta) -> float:
        return float(self.evaluate(self.parameters(theta)))


def check_step_size(h: float) -> float:
    if not 0 < h < math.inf:
        raise VariationalError("step h must be finite and > 0")
    return h


def check_tolerance(tol: float) -> float:
    if not tol > 0:
        raise VariationalError("tol must be > 0")
    return tol


def _wrong_length(name: str, dimension: int,
                  vector: np.ndarray) -> VariationalError:
    """The fault of a ``name`` vector whose shape is not ``(dimension,)``;
    it gives the shape, not the entries, so it stays one short line."""
    return VariationalError(f"{name} must be {dimension} finite numbers, "
                            f"got shape {vector.shape}")


def check_vector(values, dimension: int, name: str) -> np.ndarray:
    """``name`` as ``dimension`` finite floats, the dimension checked first."""
    check_lever_dimension(dimension)
    vector = np.asarray(values, dtype=float)
    if vector.shape != (dimension,):
        raise _wrong_length(name, dimension, vector)
    if not np.isfinite(vector).all():
        # at most `MAX_LEVER_DIMENSION` entries
        raise VariationalError(
            f"{name} must be {dimension} finite numbers, got {vector.tolist()}")
    return vector


def first_variation(F: Functional, theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of F at theta."""
    h = check_step_size(h)
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
    cap raises CriticalityError carrying the best point seen, and a
    start whose value is not finite raises VariationalError.
    """
    tol = check_tolerance(tol)
    theta = check_vector(theta0, F.dimension, "theta0").copy()
    best_theta, best_res = theta.copy(), math.inf
    step = step0
    # an overflowing evaluation is reported by first_variation or skipped
    # by the line search, so numpy's float warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        value = F(theta)
        if not math.isfinite(value):
            raise VariationalError(f"value {value} at theta0 is not finite")
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


def _is_diagonal(g: np.ndarray, diag: list[float]) -> bool:
    """True when every off-diagonal entry of g is +0 or -0; ``diag`` is
    ``g.diagonal().tolist()``.  A nan is nonzero in both counts."""
    return np.count_nonzero(g) == len(diag) - diag.count(0.0)


@dataclass(frozen=True)
class MetricField:
    """Pointwise symmetric positive-definite metric on lever space.

    ``constant`` promises that ``matrix_at`` returns the same matrix at
    every point; `integrate_geodesic` then computes the connection once
    per path instead of at every RK4 stage.

    Every call checks the matrix and names its first fault in the order
    shape, finite, symmetric, positive-definite.  A diagonal matrix, such
    as the sphere metric, is symmetric and its eigenvalues are exactly its
    entries, so it is accepted iff its least entry exceeds MIN_EIGENVALUE,
    without LAPACK.  `christoffel` inverts it by the reciprocals of its
    entries, which give the bits of the general inverse.  Any other matrix
    is accepted iff the least eigenvalue `eigvalsh` gives exceeds
    MIN_EIGENVALUE, even when its largest one overflows to inf.
    """

    dimension: int
    matrix_at: Callable[[np.ndarray], np.ndarray]
    constant: bool = False

    def __post_init__(self):
        check_lever_dimension(self.dimension)

    def __call__(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        g = np.asarray(self.matrix_at(p), dtype=float)
        if g.shape != (self.dimension, self.dimension):
            raise VariationalError(
                f"metric returned shape {g.shape}, expected "
                f"({self.dimension}, {self.dimension})")
        diag = g.diagonal().tolist()
        # a nan off the diagonal is nonzero, so it takes the general check
        diagonal = _is_diagonal(g, diag)
        if not (all(map(math.isfinite, diag)) if diagonal
                else np.isfinite(g).all()):
            raise VariationalError(f"metric is not finite at {p.tolist()}")
        if diagonal:
            vals = sorted(diag)
        else:
            # exact equality implies allclose, so the cheap test decides first
            if not ((g == g.T).all() or np.allclose(g, g.T, atol=0.0)):
                raise VariationalError(
                    f"metric is not symmetric at {p.tolist()}")
            # eigvalsh of a finite matrix may overflow; the least value decides
            try:
                vals = np.linalg.eigvalsh(g).tolist()
            except np.linalg.LinAlgError:
                vals = [math.nan]
        if not vals[0] > MIN_EIGENVALUE:
            raise VariationalError(
                f"metric is not positive-definite at {p.tolist()}")
        return g


def euclidean_metric(dimension: int) -> MetricField:
    return constant_metric(np.eye(check_lever_dimension(dimension)))


def constant_metric(matrix) -> MetricField:
    matrix = np.asarray(matrix, dtype=float)
    return MetricField(matrix.shape[0], lambda p: matrix, constant=True)


def sphere_metric() -> MetricField:
    """Unit 2-sphere in (theta, phi) coordinates, diag(1, sin^2 theta)."""
    template = np.array([[1.0, 0.0], [0.0, 0.0]])

    def g(p):
        if not math.isfinite(p[0]):
            raise VariationalError(f"sphere metric needs a finite theta, "
                                   f"got {float(p[0])!r}")
        s = math.sin(p[0])
        m = template.copy()
        m[1, 1] = s * s
        return m
    return MetricField(2, g)


#: offset of the central metric differences in `christoffel`
CHRISTOFFEL_H = 1e-5


def christoffel(g: MetricField, p) -> np.ndarray:
    """Connection coefficients Gamma^k_ij by central metric differences.

    A diagonal metric is inverted by the reciprocals of its entries, and
    row k of the result is 0.5 / g_kk times row k of the bracket below.
    Where that bracket is not finite, as when the difference of two metric
    entries near 1e306 overflows, only its own rows hold inf or nan; the
    general route's inverse would multiply its zero entries into every row
    and spread nan.  A geodesic's acceleration is then not finite on
    either route, so `integrate_geodesic` stops at the same step, but a
    later stage of that step may name a point holding inf where the
    general route's would hold nan.
    """
    p = np.asarray(p, dtype=float)
    # ev[2l] and ev[2l + 1] are g at p + h e_l and p - h e_l
    ev = np.array([m for pair in offset_pairs(g, p, CHRISTOFFEL_H)
                   for m in pair])
    # dg[l] = d g / d p_l
    dg = (ev[0::2] - ev[1::2]) / (2.0 * CHRISTOFFEL_H)
    G = g(p)
    # br[l, i, j] = d_i g_lj + d_j g_li - d_l g_ij
    br = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    diag = G.diagonal()
    if _is_diagonal(G, diag.tolist()):
        # + 0.0 makes a -0.0 product +0.0, as the general route's sum,
        # which starts at +0.0, does
        return 0.5 * ((1.0 / diag)[:, None, None] * br + 0.0)
    return 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(G), br)


#: most RK4 steps one geodesic may take; every point is kept in memory
MAX_GEODESIC_STEPS = 100_000


def check_steps(steps: int) -> int:
    if steps < 1:
        raise VariationalError("need at least one step")
    if steps > MAX_GEODESIC_STEPS:
        raise VariationalError(f"at most {MAX_GEODESIC_STEPS} steps, got {steps}")
    return steps


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
    steps, h, d = check_steps(steps), check_step_size(h), g.dimension
    x, v = check_vector(start, d, "start"), check_vector(velocity, d, "velocity")
    # the state y = (x, v) is rebound each step, never changed in place
    y = np.concatenate((x, v))
    states = [y]
    fixed = None  # a constant metric's connection, set at step 0
    failure = None

    def rate(yy):
        """(x', v') = (v, -Gamma(x)(v, v)) at the state yy."""
        xx, vv = yy[:d], yy[d:]
        gamma = christoffel(g, xx) if fixed is None else fixed
        return np.concatenate((vv, -np.einsum("kij,i,j->k", gamma, vv, vv)))

    # an overflow leaves inf or nan in y, which ends the path and is
    # reported once instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            try:
                if g.constant and n == 0:
                    fixed = christoffel(g, y[:d])
                k1 = rate(y)
                k2 = rate(y + 0.5 * h * k1)
                k3 = rate(y + 0.5 * h * k2)
                k4 = rate(y + h * k3)
            except VariationalError as exc:
                failure = f"metric failed at step {n}: {exc}"
                break
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            # a Python test is far quicker than np.isfinite on a few entries
            if not all(map(math.isfinite, y.tolist())):
                failure = f"path is not finite at step {n}"
                break
            states.append(y)
    states = np.array(states)
    points, velocities = states[:, :d], states[:, d:]
    if failure is not None:
        err = VariationalError(failure)
        err.partial = GeodesicPath(points, velocities, h)
        raise err
    return GeodesicPath(points, velocities, h)


# ---------------------------------------------------------------------------
# finite groups and policy cost
# ---------------------------------------------------------------------------

MAX_GROUP_ORDER = 64


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group by composition table; element 0 is the identity.

    The table is kept as the read-only integer array that was checked,
    whatever sequence is given.  Two groups are equal only when they are
    the same object.
    """

    labels: tuple[str, ...]
    table: np.ndarray            # table[a, b] = index of a*b
    generators: tuple[int, ...]
    #: inverses[a] = index of a^-1, read from the table once
    inverses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise VariationalError("group must be nonempty")
        if n > MAX_GROUP_ORDER:
            raise VariationalError(f"group order {n} exceeds {MAX_GROUP_ORDER}")
        if len(self.generators) > MAX_GROUP_ORDER:
            raise VariationalError(f"at most {MAX_GROUP_ORDER} generators, "
                                   f"got {len(self.generators)}")
        t = np.array(self.table, dtype=int)
        # the int copy drops a fraction, so it must equal what was given
        if (t.shape != (n, n) or t.min() < 0 or t.max() >= n
                or not np.array_equal(t, self.table)):
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
        # exhaustive associativity check, one row a at a time:
        # (a*b)*c == a*(b*c) for every b, c
        if not all(np.array_equal(t[t[a]], t[a][t]) for a in range(n)):
            raise VariationalError("composition table is not associative")
        for x in self.generators:
            if not 0 <= x < n:
                raise VariationalError(f"generator index {x} out of range")
        inverses = np.argmax(t == 0, axis=1)
        for name, array in (("table", t), ("inverses", inverses)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

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
    # r1 generates the rotations; order 1 has only r0, and order 0 fails
    return FiniteGroup(labels, table, (int(n > 1),))


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; (r, s) with s r s = r^-1."""
    idx = np.arange(2 * n)
    # element r^i is index i and s r^i is index n + i
    ra, fa = idx[:, None] % n, idx[:, None] // n
    rb, fb = idx[None, :] % n, idx[None, :] // n
    table = np.where(fa == 0, (ra + rb) % n + n * fb,
                     (ra - rb) % n + n * (1 - fb))
    labels = tuple(f"r{i}" for i in range(n)) + tuple(f"sr{i}" for i in range(n))
    # r1 generates the rotations; order 1 has only r0, and order 0 fails
    return FiniteGroup(labels, table, (int(n > 1), n))


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
    value unchanged.  Raises InfoError when eps is not in (0, inf) or the
    offset grid, the cost range widened by 6 eps on each side, is not
    finite or has no width; VariationalError when the sum overflows, as
    its score terms, of order 1/eps^2, do for eps near 1e-150 and below.
    """
    eps = check_width(eps)
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
        dlog_a = _central_differences(logf, da, 1)
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
