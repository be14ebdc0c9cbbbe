"""Golden digests of the expression parser.

Each digest is the sha256 of one line per text: the text's ``repr`` and
either ``repr(parse(text))`` or the name of the exception class it raised.
They were taken before the parser was rewritten and must never change:
any text the parser reads differently, accepts or rejects differently
shows up here.  ``repr`` is digested rather than ``render`` so that the
renderer may change without moving these digests.

Two sets of texts are covered: seeded random strings over the atoms of
the grammar (three in ten free strings, the rest expression-shaped
strings, some with a few atoms inserted, deleted or replaced), and every
single-character deletion and every insertion of ``( ) , ^ 1 m`` and a
space into every line of the three shipped tables.  Left out are the texts whose reading is meant to
differ from the parser the digests were taken on: text ending in
whitespace, and ``op`` names numbered below 3 or with a leading zero.
"""

import hashlib
import random
import re

import pytest

from grovekit.enumeration import TABLE_FILES, table_path
from grovekit.expr import GroveParseError, parse

NAMES = ["sig", "tau", "phi", "m", "op", "m1", "m2", "m0", "tau2", "op3",
         "op4"]
LIFTS = ["^(1)", "^(2)", "^(m1)"]
ATOMS = NAMES + LIFTS + ["(", ")", ",", "1", "#", "^", " "]
INSERTS = ["(", ")", ",", "^", "1", "m", " "]
RANDOM_TEXTS = 20_000
EXCLUDED = re.compile(r"\s$|(?<![a-z])op(?:0|[12](?!\d))")


TIERS = [["sig"], ["tau", "tau2"], ["phi"], ["op3"], ["op4"]]
ARGS = ["m", "m1", "m2", "m0", "phi"]


def _symbol(rng: random.Random, names: list[str]) -> list[str]:
    return [rng.choice(names)] + ([rng.choice(LIFTS[:2])]
                                  if rng.random() < 0.3 else [])


def _group(rng: random.Random, names: list[str], bare: bool) -> list[str]:
    atoms = _symbol(rng, names)
    for _ in range(rng.randrange(3)):
        atoms += [","] + [" "] * rng.randrange(2) + _symbol(rng, names)
    return atoms if bare and len(atoms) < 3 else ["("] + atoms + [")"]


def _random_text(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return "".join(rng.choice(ATOMS) for _ in range(rng.randint(1, 12)))
    atoms: list[str] = []
    for tier in range(rng.randint(1, 4)):
        names = TIERS[tier] + TIERS[tier + 1] * (rng.random() < 0.3)
        atoms += _group(rng, names, rng.random() < 0.7) + [" "]
    atoms[-1:] = _group(rng, ARGS, False)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        at = rng.randrange(len(atoms) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            atoms.insert(at, rng.choice(ATOMS))
        elif edit == 1 and at < len(atoms):
            del atoms[at]
        elif at < len(atoms):
            atoms[at] = rng.choice(ATOMS)
    return "".join(atoms)


def random_texts() -> list[str]:
    rng = random.Random(20191)
    return [_random_text(rng) for _ in range(RANDOM_TEXTS)]


def table_edit_texts() -> list[str]:
    texts = []
    for name in TABLE_FILES.values():
        for line in table_path(name).read_text().splitlines():
            texts += [line[:i] + line[i + 1:] for i in range(len(line))]
            texts += [line[:i] + c + line[i:] for i in range(len(line) + 1)
                      for c in INSERTS]
    return texts


def outcomes(texts: list[str]) -> list[tuple[str, object]]:
    """(text, parsed expression or the GroveParseError) per kept text."""
    out = []
    for text in texts:
        if EXCLUDED.search(text):
            continue
        try:
            out.append((text, parse(text)))
        except GroveParseError as exc:
            out.append((text, exc))
    return out


def digest(results) -> str:
    lines = [f"{text!r} " + (type(result).__name__
                             if isinstance(result, Exception)
                             else repr(result))
             for text, result in results]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GOLDEN = {
    "random":
        "e644fc9e8765defd8f66c0e2772a6f684b5f4685ad3dedf8bdbed84448543e54",
    "table-edits":
        "38740e116d997024a134c0b97bf3ed9f7667ed3d6a3790e1250c4903bf29c8bf",
}

SETS = {"random": random_texts, "table-edits": table_edit_texts}


@pytest.mark.parametrize("name", sorted(SETS))
def test_golden_parse(name):
    results = outcomes(SETS[name]())
    rejected = [(text, r) for text, r in results if isinstance(r, Exception)]
    assert len(results) - len(rejected) >= 1000
    assert len(rejected) >= 1000
    for text, exc in rejected:
        assert 0 <= exc.position <= len(text), (text, exc)
    assert digest(results) == GOLDEN[name]
