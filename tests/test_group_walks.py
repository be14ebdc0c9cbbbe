"""The table-driven group walks against their element-at-a-time originals.

Each reference below is the per-element loop that `FiniteGroup.inverse`,
`word_distance_cost`, `policy_information` and `lever_metric` used before
they read the composition table directly.  The table forms must give the
same bytes on every small group: cyclic groups of order 1-64, dihedral
groups of order 2-64 and direct products of order at most 64.
"""

import numpy as np
import pytest

from grovekit.infotheory import smoothed_delta
from grovekit.variational import (
    LEVER_EIGEN_FLOOR,
    MAX_GROUP_ORDER,
    POLICY_INFO_SAMPLES,
    FiniteGroup,
    VariationalError,
    cyclic_group,
    dihedral_group,
    direct_product,
    lever_metric,
    policy_information,
    word_distance_cost,
)

EPS = 0.4


def ref_inverse(group, a):
    return int(np.nonzero(group.table[a] == 0)[0][0])


def ref_word_distances(group):
    dist = np.full(group.order, -1, dtype=int)
    dist[0] = 0
    frontier = [0]
    gens = (set(group.generators)
            | {ref_inverse(group, x) for x in group.generators})
    while frontier:
        nxt = []
        for g in frontier:
            for x in gens:
                t = group.mul(g, x)
                if dist[t] < 0:
                    dist[t] = dist[g] + 1
                    nxt.append(t)
        frontier = nxt
    return dist


def ref_policy_information(pcf, eps):
    group = pcf.group
    prof = pcf.profile()
    lo = float(prof.min()) - 6.0 * eps
    hi = float(prof.max()) + 6.0 * eps
    da = (hi - lo) / POLICY_INFO_SAMPLES
    alpha = lo + (np.arange(POLICY_INFO_SAMPLES) + 0.5) * da
    f = smoothed_delta(prof[:, None], alpha[None, :], eps)
    logf = np.log(np.maximum(f, 1e-300))
    score2 = np.gradient(logf, da, axis=1) ** 2
    for x in group.generators:
        fwd = np.array([group.mul(g, x) for g in range(group.order)])
        bwd = np.array([group.mul(g, ref_inverse(group, x))
                        for g in range(group.order)])
        score2 = score2 + (0.5 * (logf[fwd] - logf[bwd])) ** 2
    return float(np.sum(f * score2) * da) / group.order


def ref_lever_matrix(pcf):
    group = pcf.group
    gens = group.generators
    d = len(gens)
    pe = float(pcf.cost(0, 0))
    p1 = [float(pcf.cost(0, x)) for x in gens]
    h = np.empty((d, d))
    for i, xi in enumerate(gens):
        for j, xj in enumerate(gens):
            h[i, j] = (float(pcf.cost(0, group.mul(xi, xj)))
                       - p1[i] - p1[j] + pe)
    vals, vecs = np.linalg.eigh(0.5 * (h + h.T))
    vals = np.maximum(vals, LEVER_EIGEN_FLOOR)
    return vecs @ np.diag(vals) @ vecs.T


def small_groups():
    groups = [(f"C{n}", cyclic_group(n)) for n in range(1, 65)]
    groups += [(f"D{n}", dihedral_group(n)) for n in range(1, 33)]
    factors = ([(f"C{n}", cyclic_group(n)) for n in range(2, 33)]
               + [(f"D{n}", dihedral_group(n)) for n in range(2, 17)])
    groups += [(f"{na}x{nb}", direct_product(a, b))
               for na, a in factors for nb, b in factors
               if a.order <= b.order and a.order * b.order <= MAX_GROUP_ORDER]
    return groups


GROUPS = small_groups()


def test_the_group_set_covers_every_family():
    names = [name for name, _ in GROUPS]
    assert len(names) == len(set(names)) > 200
    assert {g.order for _, g in GROUPS} == set(range(1, MAX_GROUP_ORDER + 1))


@pytest.mark.parametrize("group", [g for _, g in GROUPS],
                         ids=[name for name, _ in GROUPS])
def test_table_walks_match_the_loop_references(group):
    assert [group.inverse(a) for a in range(group.order)] == [
        ref_inverse(group, a) for a in range(group.order)]
    pcf = word_distance_cost(group)
    profile = pcf.profile()
    assert profile.tobytes() == ref_word_distances(group).astype(float).tobytes()
    assert (np.float64(policy_information(pcf, EPS)).tobytes()
            == np.float64(ref_policy_information(pcf, EPS)).tobytes())
    metric = lever_metric(pcf)
    assert (metric(np.zeros(metric.dimension)).tobytes()
            == ref_lever_matrix(pcf).tobytes())


def test_inverses_stay_out_of_repr():
    assert "inverses" not in repr(cyclic_group(3))


def test_word_distance_needs_generating_set():
    group = FiniteGroup(cyclic_group(4).labels, cyclic_group(4).table, (2,))
    with pytest.raises(VariationalError, match="do not generate"):
        word_distance_cost(group)
    # a group with no generators reaches only the identity
    trivial = FiniteGroup(("e",), np.zeros((1, 1), dtype=int), ())
    assert word_distance_cost(trivial).profile().tolist() == [0.0]
