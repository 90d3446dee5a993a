from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from cee import (
    AssociationRule,
    ConceptMultiset,
    EditOp,
    EditScript,
    FLATTENED_CONFIG,
    MalformedObject,
    Transaction,
    apriori,
    csed,
    format_local,
    format_local_grouped,
    id_frequency_table,
    mine_rules,
    read_transactions,
    split_replace_token,
    write_transactions,
)


def _script(*ops):
    return EditScript(ops=tuple(ops))


R_AB = EditOp("R", source="a", target="b", cost=2)
R_AC = EditOp("R", source="a", target="c", cost=2)
D_X = EditOp("D", source="x", cost=1)
I_Y = EditOp("I", target="y", cost=1)


# -- transactions -----------------------------------------------------------------


def test_from_scripts_dedups_tokens():
    t = Transaction.from_scripts("s1", [_script(R_AB, D_X), _script(R_AB, I_Y)])
    assert t.items == {"R:a→b", "D:x", "I:y"}


def test_jsonl_round_trip_preserves_arrow(tmp_path):
    t = Transaction(id="s1", items=frozenset({"R:rubber→metallic", "I:dog"}))
    path = tmp_path / "t.jsonl"
    write_transactions(path, [t])
    text = path.read_text(encoding="utf-8")
    assert "→" in text  # not escaped to →
    assert read_transactions(path) == [t]


def test_from_json_requires_keys():
    with pytest.raises(MalformedObject):
        Transaction.from_json('{"id": "x"}')


def test_split_replace_token():
    assert split_replace_token("R:a→b") == ("a", "b")
    assert split_replace_token("D:a") is None
    assert split_replace_token("I:b") is None


# -- apriori -----------------------------------------------------------------------


def _exhaustive_counts(itemsets, min_support):
    """Count every subset of the token universe; keep the frequent ones."""
    import math

    n = len(itemsets)
    universe = sorted(set().union(*itemsets)) if itemsets else []
    min_count = max(1, math.ceil(min_support * n - 1e-9))
    out = {}
    for r in range(1, len(universe) + 1):
        for combo in combinations(universe, r):
            fs = frozenset(combo)
            count = sum(1 for t in itemsets if fs <= t)
            if count >= min_count:
                out[fs] = count
    return out


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.frozensets(st.sampled_from("abcdefghijkl"), min_size=0, max_size=6),
        min_size=1,
        max_size=12,
    ),
    min_support=st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
)
def test_apriori_matches_exhaustive_enumeration(data, min_support):
    assert apriori(data, min_support) == _exhaustive_counts(data, min_support)


def test_apriori_counts_planted_pair():
    data = [{"p", "q"}, {"p", "q"}, {"p", "q", "r"}, {"p"}]
    counts = apriori(data, 0.5)
    assert counts[frozenset({"p"})] == 4
    assert counts[frozenset({"p", "q"})] == 3
    assert frozenset({"r"}) not in counts  # 25% < 50%


def test_apriori_rejects_bad_support():
    with pytest.raises(ValueError):
        apriori([{"a"}], 0.0)
    with pytest.raises(ValueError):
        apriori([{"a"}], 1.5)


# -- rule mining ------------------------------------------------------------------


def test_mined_rule_percentages():
    data = [
        {"R:a→b"},
        {"R:a→c"},
        {"R:a→b"},
        {"D:x"},
    ]
    rules = mine_rules(data, min_support=0.25)
    top = rules[0]
    assert (top.source, top.target, top.frequency) == ("a", "b", 2)
    assert top.support == 50.0
    assert top.antecedent_support == 75.0  # a is replaced in 3 of 4 samples
    assert top.consequent_support == 50.0
    assert [r.support for r in rules] == sorted((r.support for r in rules), reverse=True)


def test_rules_empty_input():
    assert mine_rules([]) == []
    assert mine_rules([{"D:x"}, {"I:y"}]) == []  # no replacement tokens


def test_rule_support_bounded_by_marginals():
    data = [
        {"R:a→b", "R:c→b"},
        {"R:a→d"},
        {"R:a→b"},
        {"R:e→b", "D:z"},
        {"I:q"},
    ]
    for rule in mine_rules(data, min_support=0.01):
        assert rule.support <= min(rule.antecedent_support, rule.consequent_support)
        assert 0 < rule.support <= 100.0


def _rules_via_apriori(itemsets, min_support):
    """Rules built from apriori's frequent 1-itemsets, as an oracle."""
    n = len(itemsets)

    def share(has):
        return 100.0 * sum(1 for t in itemsets if any(has(tok) for tok in t)) / n

    rules = []
    for itemset, count in apriori(itemsets, min_support).items():
        parsed = split_replace_token(min(itemset)) if len(itemset) == 1 else None
        if parsed is None:
            continue
        source, target = parsed
        rules.append(
            AssociationRule(
                source=source,
                target=target,
                frequency=count,
                support=100.0 * count / n,
                antecedent_support=share(
                    lambda tok: tok.startswith("R:") and split_replace_token(tok)[0] == source
                ),
                consequent_support=share(
                    lambda tok: tok.startswith("R:") and split_replace_token(tok)[1] == target
                ),
            )
        )
    return sorted(rules, key=lambda r: (-r.support, r.source, r.target))


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.frozensets(
            st.sampled_from(
                ["R:a→b", "R:a→c", "R:b→c", "R:c→a", "R:a", "R:", "D:a", "I:b", "D:c", "x"]
            ),
            max_size=6,
        ),
        min_size=1,
        max_size=15,
    ),
    min_support=st.floats(min_value=0.01, max_value=1.0),
)
def test_mine_rules_matches_apriori_oracle(data, min_support):
    assert mine_rules(data, min_support) == _rules_via_apriori(data, min_support)


def test_mine_rules_rejects_bad_support():
    with pytest.raises(ValueError):
        mine_rules([{"R:a→b"}], 0.0)
    with pytest.raises(ValueError):
        mine_rules([{"R:a→b"}], 1.5)
    assert mine_rules([], 1.5) == []  # nothing to mine, nothing to check


def test_rule_tie_break_is_lexicographic():
    data = [{"R:b→z", "R:a→z", "R:a→y"}]
    rules = mine_rules(data, min_support=1.0)
    assert [(r.source, r.target) for r in rules] == [("a", "y"), ("a", "z"), ("b", "z")]


def test_rules_from_real_scripts(clevr):
    scripts = [
        csed(ConceptMultiset(["rubber"]), ConceptMultiset(["metallic"]), clevr, FLATTENED_CONFIG)
        for _ in range(3)
    ] + [csed(ConceptMultiset(["red"]), ConceptMultiset(["blue"]), clevr, FLATTENED_CONFIG)]
    transactions = [Transaction.from_scripts(f"s{i}", [s]) for i, s in enumerate(scripts)]
    rules = mine_rules(transactions, min_support=0.5)
    assert len(rules) == 1
    assert rules[0] == AssociationRule(
        source="rubber",
        target="metallic",
        frequency=3,
        support=75.0,
        antecedent_support=75.0,
        consequent_support=75.0,
    )


# -- insert/delete frequency table ---------------------------------------------------


def test_id_frequency_shares():
    data = [
        {"I:person"},
        {"I:person", "D:car"},
        {"I:person"},
        {"I:car"},
    ]
    table = id_frequency_table(data, top_k=5)
    assert table["I"] == [("person", 3, 75.0), ("car", 1, 25.0)]
    assert table["D"] == [("car", 1, 100.0)]
    assert sum(share for _, _, share in table["I"]) == pytest.approx(100.0)


def test_id_frequency_empty_kind_and_top_k():
    table = id_frequency_table([{"I:a"}, {"I:b"}, {"I:a"}], top_k=1)
    assert table["I"] == [("a", 2, pytest.approx(200 / 3))]
    assert table["D"] == []
    with pytest.raises(ValueError):
        id_frequency_table([], top_k=0)


def test_id_frequency_ties_rank_lexicographically():
    table = id_frequency_table([{"D:zebra", "D:ant"}], top_k=2)
    assert [c for c, _, _ in table["D"]] == ["ant", "zebra"]


# -- local rendering -----------------------------------------------------------------


def test_format_local_two_replacements(clevr):
    script = _script(
        EditOp("R", source="rubber", target="metallic", cost=2),
        EditOp("R", source="sphere", target="cylinder", cost=2),
    )
    assert (
        format_local(script, clevr)
        == "{'rubber','sphere'} → {'metallic','cylinder'} | R,R | 4 | Material, Shape"
    )


def test_format_local_single_replacement(clevr):
    script = _script(EditOp("R", source="rubber", target="metallic", cost=2))
    assert format_local(script, clevr) == "'rubber' → 'metallic' | R | 2 | Material"


def test_format_local_empty():
    assert format_local(_script()) == "no edits"


def test_format_local_with_cl_column(clevr):
    script = _script(EditOp("R", source="red", target="blue", cost=2))
    assert format_local(script, clevr, cl=6.0) == "'red' → 'blue' | R | 2 | Color | 6"


def test_format_local_mixed_ops_order(clevr):
    script = _script(
        EditOp("I", target="cube", cost=1),
        EditOp("D", source="red", cost=1),
    )
    assert format_local(script, clevr) == "D {'red'}; I {'cube'} | D,I | 2 | Color, Shape"


def test_format_local_grouped_exact():
    script = _script(
        EditOp("D", source="car", cost=3),
        EditOp("D", source="car", cost=3),
        EditOp("D", source="car", cost=3),
        EditOp("R", source="traffic light", target="light", cost=4),
        EditOp("R", source="stop sign", target="buildings", cost=4),
    )
    assert format_local_grouped(script) == (
        "I: { }\n"
        "D: {'car','car','car'}\n"
        "R: {'stop sign'→'buildings','traffic light'→'light'}"
    )


def test_format_local_grouped_empty():
    assert format_local_grouped(_script()) == "I: { }\nD: { }\nR: { }"
