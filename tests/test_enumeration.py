import pytest
from hypothesis import given, strategies as st

from grovekit.enumeration import (
    ENTRY27_MODEL,
    ENTRY27_PRINTED,
    MAX_GROVES,
    PartitionSpec,
    count_by_rank,
    enumerate_groves,
    enumerate_situations,
    enumerate_topologies,
    load_situations_reference,
    load_table,
    partitions_of,
    total_multiplicity,
    verify_against_table,
)
from grovekit.expr import GroveError, parse, render
from grovekit.regsim import RegsimError
from grovekit.model import (
    DEFAULT_CAPS,
    DEFAULT_EXCLUSIONS,
    CostModel,
    model_from_config,
    model_to_config,
    charges,
    load_config,
    numbers,
    rank,
    read_key,
    reject_unread,
)


def test_counts_by_rank():
    assert count_by_rank(1) == 3
    assert count_by_rank(2) == 11
    assert count_by_rank(3) == 42


def test_totals():
    assert total_multiplicity(1) == 12
    assert total_multiplicity(2) == 54


@pytest.mark.parametrize("count,value,depth", [
    (count_by_rank, 0, -1), (count_by_rank, 4, 3), (total_multiplicity, 3, 3),
    (total_multiplicity, -1, -1), (total_multiplicity, -2, -2)])
def test_rank_and_total_take_the_topology_depth_range(count, value, depth):
    with pytest.raises(GroveError) as err:
        count(value)
    assert str(err.value) == (f"unsupported depth {depth}; "
                              "shipped build caps at 2")


def test_total_of_depth_zero_is_the_rank_one_count():
    assert total_multiplicity(0) == count_by_rank(1) == 3


def test_partitions_of_three():
    parts = {p.parts for p in partitions_of(3)}
    assert parts == {(3,), (2, 1), (1, 1, 1)}


def test_partition_validation():
    with pytest.raises(GroveError):
        PartitionSpec((1, 2))
    with pytest.raises(GroveError):
        PartitionSpec(())


@pytest.mark.parametrize("table", [0, 1, 2])
def test_tables_verify(table):
    result = verify_against_table(table)
    if table == 2:
        assert not result.exact
        assert result.entry27_exception_only
        assert result.missing == {parse(ENTRY27_PRINTED)}
        assert result.extra == {parse(ENTRY27_MODEL)}
    else:
        assert result.exact
    assert result.acceptable


def test_entry27_switch_makes_table2_exact():
    model = CostModel(table2_entry27_as_printed=True)
    assert verify_against_table(2, model).exact


def test_table_round_trips():
    for table in (0, 1, 2):
        for expr in load_table(table):
            assert parse(render(expr)) == expr


def test_enumerated_ranks_match_depth():
    model = CostModel()
    for depth in (0, 1, 2):
        for expr in enumerate_topologies(depth, model):
            assert rank(expr, model) == depth + 1
            assert expr.depth == depth
            ch = charges(expr, model)
            assert len(ch) == len(model.caps[depth])
            assert all(c <= cap for c, cap in zip(ch.values(), model.caps[depth]))


def test_charges_are_per_level_ground_to_head():
    # the lift of a phi inserted into the tau level is charged to the ground
    assert charges(parse("sig (tau, phi^(1))(m1)")) == {
        "ground": 1, "tau": 1, "sig": 0}
    assert list(charges(parse("sig^(1) (tau, tau) phi(m1, m2)"))) == [
        "ground", "phi", "tau", "sig"]
    model = CostModel(lift_cost=2, extra_arg_cost=3, map_subst_cost=5)
    assert charges(parse("sig^(1) tau(m1, m2^(1))"), model) == {
        "ground": 5, "tau": 0, "sig": 2}
    assert charges(parse("sig(phi)"), model) == {"ground": 5, "sig": 0}


def test_groves_pruned_counts():
    assert len(enumerate_groves(PartitionSpec((1, 1)))) == 1
    assert len(enumerate_groves(PartitionSpec((2,)))) == 11
    assert (len(enumerate_groves(PartitionSpec((2,))))
            + len(enumerate_groves(PartitionSpec((1, 1)))) == 12)


def test_groves_unpruned_product_count():
    pruned = enumerate_groves(PartitionSpec((1, 1)), pruned=True)
    unpruned = enumerate_groves(PartitionSpec((1, 1)), pruned=False)
    assert len(unpruned) == 9  # ordered pairs of the three rank-1 forms
    assert len(pruned) == 1


# 3^12, 11^6 and 42^4 groves; one part fewer is within the bound
@pytest.mark.parametrize("parts", [(1,) * 12, (2,) * 6, (3, 3, 3, 3)])
def test_unpruned_groves_are_bounded(parts):
    with pytest.raises(GroveError,
                       match=f"^more than {MAX_GROVES} unpruned groves$"):
        enumerate_groves(PartitionSpec(parts), pruned=False)
    assert len(enumerate_groves(PartitionSpec(parts))) <= 42


def test_depth_cap_is_enforced():
    with pytest.raises(GroveError):
        enumerate_topologies(3, CostModel())


def test_situations_order_one():
    forms = {s.render() for s in enumerate_situations(1)}
    assert forms == {"Pow^(1)(A)", "Pow(A^(1))", "Pow Pow(A)"}


def test_situations_order_two_match_reference():
    forms = {s.render() for s in enumerate_situations(2)}
    assert forms == load_situations_reference()
    assert len(forms) == 11


def test_situations_order_three_reported():
    count = len(enumerate_situations(3))
    assert count == 19  # model output; the narrative bound is "up to 31"
    assert count <= 31


def test_situation_costs_match_order():
    for order in (1, 2, 3):
        for s in enumerate_situations(order):
            assert s.cost() == order


def test_model_config_round_trip():
    model = CostModel(table2_entry27_as_printed=True)
    text = model_to_config(model)
    restored = model_from_config_text(text)
    assert restored == model


_models = st.builds(
    CostModel,
    lift_cost=st.integers(1, 5), extra_arg_cost=st.integers(1, 5),
    insert_cost=st.integers(1, 5), map_subst_cost=st.integers(1, 5),
    caps=st.tuples(*[st.tuples(*[st.integers(0, 9)] * (d + 2))
                     for d in range(3)]),
    exclusions=st.frozensets(st.sampled_from(sorted(DEFAULT_EXCLUSIONS))),
    table2_entry27_as_printed=st.booleans())


@given(_models)
def test_model_config_round_trip_property(model):
    text = model_to_config(model)
    restored = model_from_config_text(text)
    assert restored == model
    assert model_to_config(restored) == text


def test_cost_model_caps_cover_every_depth():
    with pytest.raises(GroveError, match="caps must give 3 depths, got 2"):
        CostModel(caps=DEFAULT_CAPS[1:])
    with pytest.raises(GroveError, match="caps must give 3 depths, got 4"):
        CostModel(caps=DEFAULT_CAPS + ((1, 1, 1, 1, 1),))
    with pytest.raises(GroveError, match="caps for depth 0 must have 2 entries"):
        CostModel(caps=((2, 1, 1),) + DEFAULT_CAPS[1:])
    with pytest.raises(GroveError, match="caps for depth 1 must be >= 0"):
        CostModel(caps=(DEFAULT_CAPS[0], (2, 1, -5), DEFAULT_CAPS[2]))


def test_cost_model_is_frozen_and_hashable():
    assert CostModel().caps == DEFAULT_CAPS == ((1, 1), (2, 1, 1), (3, 2, 1, 1))
    assert hash(CostModel()) == hash(CostModel())
    listed = CostModel(caps=[[1, 1], [2, 1, 1], [3, 2, 1, 1]])
    assert listed.caps == DEFAULT_CAPS and listed == CostModel()
    assert all(type(caps) is tuple for caps in (listed.caps, *listed.caps))
    rules = set(DEFAULT_EXCLUSIONS)
    assert hash(CostModel(exclusions=rules)) == hash(CostModel())
    # a checked model cannot lose its depth-2 chains to an unchecked cap
    model = CostModel()
    with pytest.raises(TypeError):
        model.caps[2] = (-5,)
    assert len(enumerate_topologies(2, model)) == 42


def test_load_config_comments_and_repeated_keys(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# header\na = 1  # note\n\n  b=two words # x\nc =\n")
    assert load_config(path) == {"a": "1", "b": "two words", "c": ""}
    path.write_text("a = 1\nb = 2\na = 1\n")
    with pytest.raises(GroveError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:3: repeated key 'a'"
    path.write_text("a = 1\nb\n")
    with pytest.raises(GroveError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:2: expected 'key = value'"


def test_no_file_reads_as_no_keys():
    assert load_config(None) == load_config("") == {}
    assert model_from_config(None) == CostModel()


def test_read_key_names_origin_key_and_value_in_the_loaders_error():
    # a scenario's parsers raise RegsimError, a GroveError, for a bad value
    assert issubclass(RegsimError, GroveError)

    def odd(text):
        if text == "3":
            raise RegsimError("three is odd")
        return int(text)

    cfg = {"a": "x", "b": "3", "c": "1,,2", "d": "5"}
    assert read_key(cfg, "f", "absent", int, 7) == 7
    with pytest.raises(GroveError, match=r"^f: a = 'x': expected an integer$"):
        read_key(cfg, "f", "a", int)
    with pytest.raises(GroveError, match=r"^f: b = '3': three is odd$"):
        read_key(cfg, "f", "b", odd)
    with pytest.raises(GroveError, match=r"^f: c = '1,,2': expected numbers "
                                         r"separated by commas$"):
        read_key(cfg, "f", "c", numbers)
    with pytest.raises(GroveError, match=r"^f: unknown key 'd'$"):
        reject_unread(cfg, "f")
    assert read_key(cfg, "f", "d", int) == 5
    reject_unread(cfg, "f")
    with pytest.raises(GroveError, match=r": lift_cost = 'x': expected an "
                                         r"integer$"):
        model_from_config_text("lift_cost = x\n")


def model_from_config_text(text: str) -> CostModel:
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        return model_from_config(path)
    finally:
        os.unlink(path)


def test_caps_schedules():
    model = CostModel()
    assert model.caps[1] == (2, 1, 1)
    assert model.caps[2] == (3, 2, 1, 1)
