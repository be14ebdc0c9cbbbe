import functools
import string

import pytest
from hypothesis import given, strategies as st

from grovekit.enumeration import TABLE_FILES, enumerate_topologies, table_path
from grovekit.expr import (
    TRIVIAL,
    CompositionError,
    DecoratedSymbol,
    Grove,
    GroveError,
    GroveParseError,
    TopologyExpr,
    arg,
    base_chain,
    canonicalize,
    factor,
    is_prime,
    multiply,
    op,
    parse,
    render,
)
from grovekit.model import charges, rank


ZEROTH_ORDER = ["sig(m1, m2)", "sig(phi)", "sig^(1)(m1)"]


def test_render_parse_round_trip_zeroth_order():
    for text in ZEROTH_ORDER:
        assert render(parse(text)) == text


def test_parse_depth_one_chain():
    e = parse("sig^(1) tau(m1, m2)")
    assert e.depth == 1
    assert render(e) == "sig^(1) tau(m1, m2)"


def test_parse_trivial_tree():
    assert parse("1") is TRIVIAL
    assert render(TRIVIAL) == "1"


def test_parse_map_substitution():
    e = parse("sig(phi)")
    assert len(e.args) == 1
    assert e.args[0].kind == "phi"


def test_parse_rejects_garbage():
    for bad in ["", "sig", "sig(m1", "bogus(m1)", "sig()", "sig(phi, m1)",
                "sig(m0)", "sig^(m1)", "op(m1)", "sig(tau)", "m(m1)",
                "sig(m1 m2)", "sig(m1,,)", "sig(m1)(m2)"]:
        with pytest.raises(GroveParseError):
            parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(GroveParseError) as err:
        parse("sig(m1# )")
    assert "position" in str(err.value) or "char" in str(err.value)


def test_canonicalize_sorts_tuples():
    a = parse("sig (tau, phi)(m1)")
    b = parse("sig (phi, tau)(m1)")
    assert a == b


def test_canonicalize_orders_lifted_args_last():
    assert render(parse("sig tau(m2^(1), m1)")) == "sig tau(m1, m2^(1))"


def test_indices_relabelled_from_one():
    e = parse("sig (tau2, tau3)(m1)")
    assert render(e) == "sig (tau1, tau2)(m1)"


def test_base_chain_shapes():
    for depth in (0, 1, 2):
        e = base_chain(depth)
        assert e.depth == depth
        assert rank(e) == 0


def test_multiply_concatenates_levels():
    left = parse("sig^(1)(m1)")
    right = parse("sig(m1, m2)")
    product = multiply(left, right)
    assert render(product) == "sig^(1) tau(m1, m2)"
    assert product.depth == left.depth + right.depth + 1


def test_multiply_rank_additive():
    left = parse("sig^(1)(m1)")
    right = parse("sig(m1, m2)")
    product = multiply(left, right)
    assert rank(product) == rank(left) + rank(right)
    assert rank(product) == sum(charges(product).values())


def test_multiply_rejects_decorated_left_args():
    with pytest.raises(CompositionError):
        multiply(parse("sig(m1, m2)"), parse("sig(m1)"))
    with pytest.raises(CompositionError):
        multiply(parse("sig(m1^(1))"), parse("sig(m1)"))


def test_trivial_is_two_sided_unit():
    e = parse("sig^(1) tau(m1, m2)")
    assert multiply(TRIVIAL, e) == e
    assert multiply(e, TRIVIAL) == e
    assert multiply(TRIVIAL, TRIVIAL) == TRIVIAL


def test_factor_returns_prime_levels():
    product = multiply(parse("sig^(1)(m1)"), parse("sig(m1, m2)"))
    primes = factor(product)
    assert len(primes) == 2
    assert all(is_prime(p) for p in primes)
    rebuilt = primes[0]
    for p in primes[1:]:
        rebuilt = multiply(rebuilt, p)
    assert rebuilt == product


def test_every_cut_multiplies_back():
    chain = multiply(multiply(parse("sig^(1)(m1)"), parse("sig(m1)")),
                     parse("sig(m1, m2)"))
    primes = factor(chain)
    assert len(primes) == 3
    for k in range(len(primes) + 1):
        left = functools.reduce(multiply, primes[:k], TRIVIAL)
        right = functools.reduce(multiply, primes[k:], TRIVIAL)
        assert multiply(left, right) == chain


def test_primality():
    assert is_prime(parse("sig^(1)(m1)"))
    assert is_prime(parse("sig(m1, m2)"))
    assert not is_prime(TRIVIAL)
    assert not is_prime(multiply(parse("sig^(1)(m1)"), parse("sig(m1)")))


def test_every_zeroth_order_form_is_prime():
    for text in ZEROTH_ORDER:
        assert is_prime(parse(text))


def test_grove_rendering():
    g = Grove((parse("sig(m1)"), parse("sig^(1)(m1)")))
    assert " | " in g.render()
    assert parse(g.render().split(" | ")[0]) == parse("sig(m1)")


def test_validation_rejects_bad_tiers():
    with pytest.raises(Exception):
        TopologyExpr(((op(1),),), (arg(1),))  # level 0 must start at tier 0


TABLE_LINES = [line for name in TABLE_FILES.values()
               for line in table_path(name).read_text().splitlines()]


@pytest.mark.parametrize("suffix", [" ", "\t", "\n"])
def test_parse_ignores_trailing_whitespace(suffix):
    for text in TABLE_LINES + ["1"]:
        assert parse(text + suffix) == parse(text)


def test_op_names_read_as_tiers():
    assert parse("op0(m1)") == parse("sig(m1)")
    assert parse("op00 op1 op2 op03(m1)") == parse("sig tau phi op3(m1)")
    assert parse("sig (tau, op2^(1))(m1)") == parse("sig (tau, phi^(1))(m1)")


def test_render_writes_synthetic_tiers_without_index():
    e = canonicalize(TopologyExpr(
        tuple((op(t),) for t in range(3)) + ((op(3), op(3, 2, 1), op(4)),),
        (arg(),)))
    assert render(e) == "sig tau phi (op3, op3^(1), op4)(m1)"
    assert parse(render(e)) == e


def test_products_of_enumerated_forms_round_trip():
    forms = [e for depth in range(3) for e in enumerate_topologies(depth)]
    lefts = [a for a in forms if a.args == (arg(),)]
    assert len(lefts) * len(forms) == 896
    for left in lefts:
        for right in forms:
            product = multiply(left, right)
            assert parse(render(product)) == product


@st.composite
def small_exprs(draw):
    """Canonical expressions of depth 0-4 built from op() and arg()."""
    lifts = st.integers(0, 2)
    levels = []
    for tier in range(draw(st.integers(0, 4)) + 1):
        same = draw(st.lists(lifts, min_size=1, max_size=3))
        inserted = draw(st.lists(lifts, max_size=2))
        levels.append(tuple(op(tier, i + 1, lift) for i, lift in enumerate(same))
                      + tuple(op(tier + 1, i + 1, lift)
                              for i, lift in enumerate(inserted)))
    if draw(st.booleans()):
        args = (arg(lift=draw(lifts), map_subst=True),)
    else:
        args = tuple(arg(i + 1, lift) for i, lift in
                     enumerate(draw(st.lists(lifts, min_size=1, max_size=3))))
    return canonicalize(TopologyExpr(tuple(levels), args))


@given(small_exprs())
def test_parse_render_round_trip(e):
    assert parse(render(e)) == e


TEXT_ATOMS = ["sig", "tau", "phi", "op", "m", "0", "1", "3", "^(", "^", "(",
              ")", ",", " "]


@given(st.one_of(
    st.text(string.ascii_lowercase + string.digits + "(),^ \t"),
    st.lists(st.sampled_from(TEXT_ATOMS)).map("".join)))
def test_parse_raises_only_parse_errors(text):
    try:
        parse(text)
    except GroveParseError as exc:
        assert 0 <= exc.position <= len(text)


@given(st.sampled_from(["sig(m1)", "sig^(1)(m1)"]),
       small_exprs())
def test_product_depth_and_rank_additivity(left_text, right):
    left = parse(left_text)
    product = multiply(left, right)
    assert product.depth == left.depth + right.depth + 1
    assert rank(product) == rank(left) + rank(right)
    assert rank(product) == sum(charges(product).values())
    assert canonicalize(product) == product


def test_tier_errors_are_grove_errors():
    # a level of argument symbols, and a negative tier
    with pytest.raises(GroveError, match="unknown operator name 'm'"):
        TopologyExpr(((arg(),),), (arg(),))
    with pytest.raises(GroveError, match="tier must be >= 0"):
        op(-1)
