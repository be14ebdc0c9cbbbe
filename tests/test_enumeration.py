import pytest
from hypothesis import given, strategies as st

from grovekit.enumeration import (
    ENTRY27_MODEL,
    ENTRY27_PRINTED,
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
from grovekit.model import (
    DEFAULT_EXCLUSIONS,
    CostModel,
    model_from_config,
    model_to_config,
    rank,
)


def test_counts_by_rank():
    assert count_by_rank(1) == 3
    assert count_by_rank(2) == 11
    assert count_by_rank(3) == 42


def test_totals():
    assert total_multiplicity(1) == 12
    assert total_multiplicity(2) == 54


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
    model = CostModel().with_entry27_as_printed()
    assert verify_against_table(2, model).exact


def test_table_round_trips():
    for table in (0, 1, 2):
        for expr in load_table(table):
            assert parse(render(expr)) == expr


def test_enumerated_ranks_match_depth():
    model = CostModel()
    for depth in (0, 1, 2):
        for expr in enumerate_topologies(depth, PartitionSpec((depth + 1,)), model):
            assert rank(expr, model) == depth + 1
            assert expr.depth == depth


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


def test_depth_cap_is_enforced():
    with pytest.raises(GroveError):
        enumerate_topologies(3, PartitionSpec((4,)), CostModel())


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
    model = CostModel().with_entry27_as_printed()
    text = model_to_config(model)
    restored = model_from_config_text(text)
    assert restored == model


_models = st.builds(
    CostModel,
    lift_cost=st.integers(1, 5), extra_arg_cost=st.integers(1, 5),
    insert_cost=st.integers(1, 5), map_subst_cost=st.integers(1, 5),
    caps=st.fixed_dictionaries({d: st.tuples(*[st.integers(0, 9)] * (d + 2))
                                for d in range(3)}),
    exclusions=st.frozensets(st.sampled_from(sorted(DEFAULT_EXCLUSIONS))),
    table2_entry27_as_printed=st.booleans())


@given(_models)
def test_model_config_round_trip_property(model):
    text = model_to_config(model)
    restored = model_from_config_text(text)
    assert restored == model
    assert model_to_config(restored) == text


def test_cost_model_caps_cover_every_depth():
    with pytest.raises(GroveError, match="caps missing for depths"):
        CostModel(caps={1: (2, 1, 1)})
    with pytest.raises(GroveError, match=r"\[0, 2\]"):
        CostModel(caps={1: (2, 1, 1), 3: (1, 1, 1, 1, 1)})


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


def test_enumeration_is_deterministic():
    a = [render(e) for e in enumerate_topologies(1, PartitionSpec((2,)), CostModel())]
    b = [render(e) for e in enumerate_topologies(1, PartitionSpec((2,)), CostModel())]
    assert a == b
