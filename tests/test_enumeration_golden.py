"""Golden digests of the topology enumerator.

Each digest is the sha256 of sorted renders.  They were taken before the
enumerator's rules, caps and partition handling were restructured and must
never change: any change that adds, drops or rewrites a single enumerated
form shows up here.  The matrix covers depths 0-2 x every subset of the
shipped exclusion rules x {shipped caps, every cap 9} x three cost models,
table 2 with entry 27 as printed, and the groves of every partition of
2-4, pruned and unpruned.  `test_every_rule_changes_the_matrix` keeps the
matrix from silently losing a rule's effect.
"""

import hashlib
import itertools

import pytest

from grovekit.enumeration import (
    enumerate_groves,
    partitions_of,
    verify_against_table,
)
from grovekit.expr import GroveError, render
from grovekit.model import DEFAULT_CAPS, DEFAULT_EXCLUSIONS, CostModel

RULES = sorted(DEFAULT_EXCLUSIONS)
SUBSETS = [frozenset(c) for r in range(len(RULES) + 1)
           for c in itertools.combinations(RULES, r)]
CAPS = {
    "shipped": DEFAULT_CAPS,
    "nine": tuple((9,) * (d + 2) for d in range(len(DEFAULT_CAPS))),
}
COSTS = {
    "unit": {},
    "lift2": {"lift_cost": 2},
    "insert2": {"insert_cost": 2},
}
MATRIX = [(depth, caps, costs)
          for depth in range(3) for caps in CAPS for costs in COSTS]
GROVE_CASES = [(part.parts, pruned)
               for n in (2, 3, 4) for part in partitions_of(n)
               for pruned in (True, False)]


def topologies(depth, **kwargs):
    return verify_against_table(depth, CostModel(**kwargs)).produced


def digest(lines) -> str:
    text = "".join(line + "\n" for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_digest(depth, caps, costs) -> str:
    lines = []
    for rules in SUBSETS:
        forms = topologies(depth, caps=CAPS[caps], exclusions=rules,
                           **COSTS[costs])
        lines.append("# " + ",".join(sorted(rules)))
        lines += sorted(map(render, forms))
    return digest(lines)


def grove_digest(parts, pruned) -> str:
    try:
        groves = enumerate_groves(parts, pruned=pruned)
    except GroveError as exc:
        return digest([f"GroveError: {exc}"])
    return digest(sorted(g.render() for g in groves))


GOLDEN_MATRIX = {
    (0, 'shipped', 'unit'):
        "f780a3af2bcaba7afc1d4e77df0eedf15e1bad82dd2f19f69d639dc99d3e649e",
    (0, 'shipped', 'lift2'):
        "8346c941c28f57d58d1756d3894ab10f0509cebd3dd8927ba3fc67df279d819f",
    (0, 'shipped', 'insert2'):
        "f780a3af2bcaba7afc1d4e77df0eedf15e1bad82dd2f19f69d639dc99d3e649e",
    (0, 'nine', 'unit'):
        "f780a3af2bcaba7afc1d4e77df0eedf15e1bad82dd2f19f69d639dc99d3e649e",
    (0, 'nine', 'lift2'):
        "8346c941c28f57d58d1756d3894ab10f0509cebd3dd8927ba3fc67df279d819f",
    (0, 'nine', 'insert2'):
        "f780a3af2bcaba7afc1d4e77df0eedf15e1bad82dd2f19f69d639dc99d3e649e",
    (1, 'shipped', 'unit'):
        "59c9ec29457224039190454a10203cbfbc6926f6f1142f4a342485f6ef9b4294",
    (1, 'shipped', 'lift2'):
        "28fc0899999c1198c5811ee2e55db31f3d34bdf89dfc0924d3085c153155557d",
    (1, 'shipped', 'insert2'):
        "27b5a2ca2dc412a2b45226f0ec60f36313369458c767a1d992df2ee98f1a2c23",
    (1, 'nine', 'unit'):
        "a1f125eb0ad9084967b560a34c176777ffeb8f4ca91a8099525841410748dc06",
    (1, 'nine', 'lift2'):
        "17939ba75c66ab399141ee0664ba5aed43f62b5f140fabfb349f29f93f174c10",
    (1, 'nine', 'insert2'):
        "62a0bd87ef29f36ae535476891a5751ab1e67f67247cd223fd8c59af587e2694",
    (2, 'shipped', 'unit'):
        "9cfc34bd9ff6fb6fc9e5f5e068868180374d190f9b04643b689c0dd88f55dfb8",
    (2, 'shipped', 'lift2'):
        "d0b96a95deefb01180140fb8ec06bdde774924b3ee303887d0f459262eb534d9",
    (2, 'shipped', 'insert2'):
        "03044305afd04006cf0efc01307362168637f5d70922e086342fa8702f0d455b",
    (2, 'nine', 'unit'):
        "fd95b6782afd557f3ed67c3e08586e23acb5c3163573117218702a7b40ad130e",
    (2, 'nine', 'lift2'):
        "5aa167652a7802b3ddb71a8553e33099f52b0c8f9e6619725ccec8cf2ce1d557",
    (2, 'nine', 'insert2'):
        "291c1e2489da8bd0d972932da7cddff8b1ef3ec410dac27d23dd782184eb0a3e",
}

GOLDEN_ENTRY27 = (
    "b2513e7b8f30d8bb1ec7dd0921f2a7280069597cf68c6ba4a53413f0ca29dc6b")

GOLDEN_GROVES = {
    ((2,), True):
        "5320a9c10deea00838141a1cb013a66dc9327f2eae2171df5b9721306c644d7a",
    ((2,), False):
        "5320a9c10deea00838141a1cb013a66dc9327f2eae2171df5b9721306c644d7a",
    ((1, 1), True):
        "8badb2a83b31a6eb825a4610ceb960b7cd6a5a834b8261521a51cba190e37ca3",
    ((1, 1), False):
        "668ea4e85b5dd261f6b83fff5673c5c771706e28d0d07a93f2f1aafc3fd3dfa5",
    ((3,), True):
        "06557d9d5bb74d4df6c13a9ef46c1e68fb13565a93f38b4ac976ccd399f489be",
    ((3,), False):
        "06557d9d5bb74d4df6c13a9ef46c1e68fb13565a93f38b4ac976ccd399f489be",
    ((2, 1), True):
        "edec0f29bf1df3bccd306d6352374e95ae2d884ab426e9fc13a25db2e18e454e",
    ((2, 1), False):
        "e77f79ed58b28151b5bdc9630db4ea63b6ba50664dfc5fad9f598235830d7450",
    ((1, 1, 1), True):
        "13f1b306474273cb278be1319d1fb03cbd85151a879c5862c81e575ffe8a916c",
    ((1, 1, 1), False):
        "0f3c26bea9d1606959a80421db1f3fc0204d80946e4b1995ce5cec6c83f653e2",
    ((4,), True):
        "8c8d292fc5015ec719973dbde020a54ab3f1c7f8b51158f5961becbfcb0ae3be",
    ((4,), False):
        "8c8d292fc5015ec719973dbde020a54ab3f1c7f8b51158f5961becbfcb0ae3be",
    ((3, 1), True):
        "58a539d04838817ae9c8f12a01420128d94493e800d7d90e785afd5d7685df48",
    ((3, 1), False):
        "e78591bd58e730c8c6bae4120e7678bba80cd4631601088f20ea446b9bd0697f",
    ((2, 2), True):
        "f967836f2032993b0cb6c429af7c8e0c8e6371903d12595ad0b33df976888da1",
    ((2, 2), False):
        "f245f69dfc07faa54aedbe50fc045478833fbefc0c53b62b4985a82bd189f202",
    ((2, 1, 1), True):
        "668e267a20da258bd47f031e90636d36d47a9399625aafa848eb9613e56f1c71",
    ((2, 1, 1), False):
        "fc3fd80dd0243df636ac14c79d181c76dbd60fe114efa0c0f3a10eef728f9148",
    ((1, 1, 1, 1), True):
        "ff1e26e1d8745824524469db144797cd1b360dfdcd03a1db2f96e8cbd765b647",
    ((1, 1, 1, 1), False):
        "c427e218b1516bdcf96c67ccec0c6ac57ab03576c993ddd6213a973c14b8b3f3",
}


@pytest.mark.parametrize("case", MATRIX,
                         ids=lambda case: "-".join(map(str, case)))
def test_golden_matrix(case):
    assert matrix_digest(*case) == GOLDEN_MATRIX[case]


def test_golden_table2_entry27_as_printed():
    forms = topologies(2, table2_entry27_as_printed=True)
    assert digest(sorted(map(render, forms))) == GOLDEN_ENTRY27


@pytest.mark.parametrize("case", GROVE_CASES,
                         ids=lambda case: "-".join(map(str, case)))
def test_golden_groves(case):
    assert grove_digest(*case) == GOLDEN_GROVES[case]


def test_every_rule_changes_the_matrix():
    for rule in RULES:
        assert any(topologies(depth, exclusions=frozenset({rule}))
                   != topologies(depth, exclusions=frozenset())
                   for depth in range(3)), rule
