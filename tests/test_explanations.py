import json
import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cee import errors
from cee import (
    ConceptMultiset,
    EditOp,
    EditScript,
    FLATTENED_CONFIG,
    MalformedObject,
    apriori,
    csed,
    format_local,
)
from cee.explain import (
    AssociationRule,
    edit_set_counts,
    format_local_grouped,
    id_frequency_table,
    mine_rules,
    read_transactions,
    split_replace_token,
    transaction_line,
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
    line = transaction_line("s1", [_script(R_AB, D_X), _script(R_AB, I_Y)])
    assert line == '{"edits": ["D:x", "I:y", "R:a→b"], "id": "s1"}\n'


def test_jsonl_round_trip_preserves_arrow(tmp_path):
    rubber = EditOp("R", source="rubber", target="metallic", cost=2)
    line = transaction_line("s1", [_script(rubber, EditOp("I", target="dog", cost=1))])
    path = tmp_path / "t.jsonl"
    write_transactions(path, [line])
    text = path.read_text(encoding="utf-8")
    assert text == line
    assert "→" in text  # not escaped to \u2192
    assert read_transactions(path) == Counter({frozenset({"R:rubber→metallic", "I:dog"}): 1})


def test_read_transactions_requires_keys(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        read_transactions(path)
    assert str(info.value) == f"{path}:1: line needs 'id' and 'edits'"


@pytest.mark.parametrize("trailer", ["\x0c", "\xa0"], ids=["form-feed", "no-break-space"])
def test_read_transactions_rejects_trailing_text_json_does_not_allow(trailer, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"id": "a", "edits": []}' + trailer + "\n", encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        read_transactions(path)
    assert str(info.value) == f"{path}:1: Extra data: line 1 column 25 (char 24)"


def test_read_transactions_accepts_json_whitespace_around_the_object(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('\t{"id": "a", "edits": ["D:x"]}  \n{"id": "b", "edits": []} \t\n', encoding="utf-8")
    assert read_transactions(path) == Counter({frozenset({"D:x"}): 1, frozenset(): 1})


@pytest.mark.parametrize(
    "lines,message",
    [
        pytest.param(['{"id": "a", "edits": [1]}'], "1: edit 1 is not a string", id="number"),
        pytest.param(['{"id": "a", "edits": ["D:x", ["x"], 1]}'], "1: edit ['x'] is not a string",
                     id="list"),
        pytest.param(['{"id": "a", "edits": ["D:x", {"k": 1}, 1]}'], "1: edit {'k': 1} is not a string",
                     id="object"),
        pytest.param(['{"id": "a", "edits": ["D:x", 1, ["x"]]}'], "1: edit 1 is not a string",
                     id="number-before-a-list"),
        pytest.param(['{"id": "a", "edits": ["D:x", "I:y"]}', '{"id": "b", "edits": ["D:x", "I:y", 2]}'],
                     "2: edit 2 is not a string", id="after-an-interned-list"),
    ],
)
def test_read_transactions_bad_edit_message(lines, message, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        read_transactions(path)
    assert str(info.value) == f"{path}:{message}"


@pytest.mark.parametrize(
    "lines,counts,parsed",
    [
        pytest.param(['{"id": "a", "edits": ["D:x", "I:y"]}', '{"id": "b", "edits": ["I:z"]}',
                      '{"id": "a", "edits": ["D:x", "I:y"]}', '{"id": "c", "edits": ["I:y", "D:x"]}'],
                     {frozenset({"D:x", "I:y"}): 3, frozenset({"I:z"}): 1}, 3,
                     id="equal-edit-sets-counted-together"),
        pytest.param(['{"id": "a", "edits": ["D:x"]}', '{"id": "a", "edits": ["D:x"]} ',
                      '{"id": "a", "edits": ["D:x"]}'],
                     {frozenset({"D:x"}): 3}, 2, id="a-spaced-line-is-no-verbatim-repeat"),
    ],
)
def test_read_transactions_parses_a_verbatim_repeat_once(lines, counts, parsed, tmp_path,
                                                         monkeypatch):
    calls, real = [], errors._parse_line

    def counted(line):
        calls.append(line)
        return real(line)

    monkeypatch.setattr(errors, "_parse_line", counted)
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert read_transactions(path) == counts
    assert len(calls) == parsed == len(set(calls))


GOOD_LINE = '{"id": "a", "edits": ["D:x", "I:y"]}'
OTHER_LINE = '{"id": "b", "edits": ["R:x→y"]}'
BAD_LINE = '{"id": "c", "edits": ["D:x", 7]}'


@pytest.mark.parametrize(
    "lines,number",
    [
        pytest.param([GOOD_LINE, OTHER_LINE, GOOD_LINE, "", GOOD_LINE, OTHER_LINE, BAD_LINE], 7,
                     id="after-repeats"),
        pytest.param([GOOD_LINE, BAD_LINE, GOOD_LINE, BAD_LINE], 2, id="repeated-bad-line"),
        pytest.param([GOOD_LINE + "\r" + GOOD_LINE + "\r\n", BAD_LINE + "\r" + GOOD_LINE, BAD_LINE],
                     4, id="repeated-bad-line-after-cr-and-crlf-breaks"),
        pytest.param([GOOD_LINE, GOOD_LINE, GOOD_LINE.replace('["D:x", "I:y"]', '"D:x"')], 3,
                     id="a-repeat-with-edits-not-a-list"),
    ],
)
def test_read_transactions_reports_a_bad_line_after_repeats_at_its_own_number(
    lines, number, tmp_path
):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        read_transactions(path)
    assert str(info.value).startswith(f"{path}:{number}: ")


VALID_EDITS = ["R:a→b", "R:b→c", "R:c→a", "D:a", "D:c", "I:b", "I:a"]


@settings(max_examples=80, deadline=None)
@given(
    records=st.lists(
        st.fixed_dictionaries({
            "id": st.sampled_from(["a", "b", "c", "0", "1", "2", "3"]),
            "edits": st.lists(st.sampled_from(VALID_EDITS), max_size=4),
        }),
        min_size=1,
        max_size=5,
    ),
    data=st.data(),
)
def test_read_transactions_matches_a_json_loads_reference(records, data, tmp_path_factory):
    # each record spelled two ways, repeated verbatim among blank lines, with mixed endings
    spellings = (
        [json.dumps(r, ensure_ascii=False) for r in records]
        + [json.dumps(r, separators=(",", ":")) for r in records]
        + ["", "  ", "\t"]
    )
    lines = data.draw(st.lists(st.sampled_from(spellings), max_size=30))
    endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                                 max_size=len(lines)))
    path = tmp_path_factory.mktemp("tx") / "t.jsonl"
    path.write_bytes("".join(map(str.__add__, lines, endings)).encode("utf-8"))
    reference_sets = edit_set_counts(
        r["edits"] for r in (json.loads(line) for line in lines if line.strip())
    )
    read_sets = read_transactions(path)
    assert read_sets == reference_sets
    for min_support in (0.01, 0.3, 1.0):
        assert mine_rules(read_sets, min_support) == mine_rules(reference_sets, min_support)
    assert id_frequency_table(read_sets, 3) == id_frequency_table(reference_sets, 3)


def test_split_replace_token():
    assert split_replace_token("R:a→b") == ("a", "b")
    assert split_replace_token("D:a") is None
    assert split_replace_token("I:b") is None


# -- apriori -----------------------------------------------------------------------


def _exhaustive_counts(itemsets, min_support):
    """Count every subset of the token universe; keep the frequent ones."""
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
    assert apriori(edit_set_counts(data), min_support) == _exhaustive_counts(data, min_support)


def test_apriori_counts_planted_pair():
    data = [{"p", "q"}, {"p", "q"}, {"p", "q", "r"}, {"p"}]
    counts = apriori(edit_set_counts(data), 0.5)
    assert counts[frozenset({"p"})] == 4
    assert counts[frozenset({"p", "q"})] == 3
    assert frozenset({"r"}) not in counts  # 25% < 50%


def test_apriori_of_no_transactions_is_empty():
    assert apriori(edit_set_counts([]), 0.5) == {}


def test_apriori_rejects_bad_support():
    with pytest.raises(ValueError):
        apriori(edit_set_counts([{"a"}]), 0.0)
    with pytest.raises(ValueError):
        apriori(edit_set_counts([{"a"}]), 1.5)


# -- rule mining ------------------------------------------------------------------


def test_mined_rule_percentages():
    data = [
        {"R:a→b"},
        {"R:a→c"},
        {"R:a→b"},
        {"D:x"},
    ]
    rules = mine_rules(edit_set_counts(data), min_support=0.25)
    top = rules[0]
    assert (top.source, top.target, top.frequency) == ("a", "b", 2)
    assert top.support == 50.0
    assert top.antecedent_support == 75.0  # a is replaced in 3 of 4 samples
    assert top.consequent_support == 50.0
    assert [r.support for r in rules] == sorted((r.support for r in rules), reverse=True)


def test_rules_empty_input():
    assert mine_rules(edit_set_counts([])) == []
    assert mine_rules(edit_set_counts([{"D:x"}, {"I:y"}])) == []  # no replacement tokens


def test_rule_support_bounded_by_marginals():
    data = [
        {"R:a→b", "R:c→b"},
        {"R:a→d"},
        {"R:a→b"},
        {"R:e→b", "D:z"},
        {"I:q"},
    ]
    for rule in mine_rules(edit_set_counts(data), min_support=0.01):
        assert rule.support <= min(rule.antecedent_support, rule.consequent_support)
        assert 0 < rule.support <= 100.0


def _rules_via_apriori(itemsets, min_support):
    """Rules built from apriori's frequent 1-itemsets, as an oracle."""
    n = len(itemsets)

    def share(has):
        return 100.0 * sum(1 for t in itemsets if any(has(tok) for tok in t)) / n

    rules = []
    for itemset, count in apriori(edit_set_counts(itemsets), min_support).items():
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
    assert mine_rules(edit_set_counts(data), min_support) == _rules_via_apriori(data, min_support)


def _counted_one_by_one(transactions, min_support, top_k):
    """Rules and the insert/delete table from a count over each transaction in
    turn, written without the counting code under test."""
    n = len(transactions)
    token_count, sources, targets = {}, {}, {}
    for tokens in transactions:
        for token in tokens:
            token_count[token] = token_count.get(token, 0) + 1
        pairs = [token[2:].partition("→")[::2] for token in tokens if token.startswith("R:")]
        for side, store in ((0, sources), (1, targets)):
            for concept in {pair[side] for pair in pairs}:
                store[concept] = store.get(concept, 0) + 1
    min_count = max(1, math.ceil(min_support * n - 1e-9))
    rules = [
        AssociationRule(
            source=source,
            target=target,
            frequency=count,
            support=100.0 * count / n,
            antecedent_support=100.0 * sources[source] / n,
            consequent_support=100.0 * targets[target] / n,
        )
        for token, count in token_count.items()
        if token.startswith("R:") and count >= min_count
        for source, target in [token[2:].partition("→")[::2]]
    ]
    rules.sort(key=lambda r: (-r.support, r.source, r.target))
    table = {}
    for kind in ("I", "D"):
        row = {
            token[2:]: count
            for token, count in token_count.items()
            if token.startswith(kind + ":") and token[2:]
        }
        total = sum(row.values())
        ranked = sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        table[kind] = [(concept, count, 100.0 * count / total) for concept, count in ranked]
    return rules, table


@settings(max_examples=80, deadline=None)
@given(
    distinct=st.lists(
        st.frozensets(
            st.sampled_from(
                ["R:a→b", "R:a→c", "R:b→c", "R:c→a", "R:a", "R:", "D:a", "D:c", "D:", "I:b",
                 "I:a", "x"]
            ),
            max_size=6,
        ),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
    min_support=st.floats(min_value=0.01, max_value=1.0),
    top_k=st.integers(min_value=1, max_value=3),
)
def test_counts_over_repeated_transactions_match_a_count_one_by_one(
    distinct, data, min_support, top_k
):
    # sampling from a few distinct sets repeats them in shuffled order
    picks = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))
    edit_sets = edit_set_counts(picks)
    rules, table = _counted_one_by_one(picks, min_support, top_k)
    assert mine_rules(edit_sets, min_support) == rules
    assert id_frequency_table(edit_sets, top_k) == table


SHARED_SIDES = [
    {"R:a→b", "R:a→c", "D:x"},  # two replaces from one source
    {"R:a→c", "R:b→c", "I:y"},  # two replaces into one target
    {"R:a→b", "R:a→c", "D:x"},
    {"D:x", "I:y", "x", "I:"},  # no R token; "x" and "I:" are of no kind
    {"R:a→b"},
    set(),
]


def test_tables_count_a_shared_source_or_target_once_per_transaction():
    edit_sets = edit_set_counts(SHARED_SIDES)
    for min_support in (0.01, 0.3, 0.5, 1.0):
        rules, table = _counted_one_by_one(SHARED_SIDES, min_support, 2)
        assert mine_rules(edit_sets, min_support) == rules
        assert id_frequency_table(edit_sets, 2) == table
    rules = {(r.source, r.target): r for r in mine_rules(edit_sets)}
    assert rules["a", "c"].frequency == 3
    assert rules["a", "c"].antecedent_support == 400 / 6  # a is replaced in 4 of 6
    assert rules["b", "c"].consequent_support == 50.0  # c is a target in 3 of 6
    assert id_frequency_table(edit_sets, 3) == {"I": [("y", 2, 100.0)], "D": [("x", 3, 100.0)]}


def test_mine_rules_rejects_bad_support():
    with pytest.raises(ValueError):
        mine_rules(edit_set_counts([{"R:a→b"}]), 0.0)
    with pytest.raises(ValueError):
        mine_rules(edit_set_counts([{"R:a→b"}]), 1.5)
    with pytest.raises(ValueError):
        mine_rules(edit_set_counts([]), 1.5)


def test_rule_tie_break_is_lexicographic():
    data = [{"R:b→z", "R:a→z", "R:a→y"}]
    rules = mine_rules(edit_set_counts(data), min_support=1.0)
    assert [(r.source, r.target) for r in rules] == [("a", "y"), ("a", "z"), ("b", "z")]


def test_rules_from_real_scripts(clevr):
    scripts = [
        csed(ConceptMultiset(["rubber"]), ConceptMultiset(["metallic"]), clevr, FLATTENED_CONFIG)
        for _ in range(3)
    ] + [csed(ConceptMultiset(["red"]), ConceptMultiset(["blue"]), clevr, FLATTENED_CONFIG)]
    lines = [transaction_line(f"s{i}", [s]) for i, s in enumerate(scripts)]
    rules = mine_rules(edit_set_counts(json.loads(line)["edits"] for line in lines), 0.5)
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
    table = id_frequency_table(edit_set_counts(data), top_k=5)
    assert table["I"] == [("person", 3, 75.0), ("car", 1, 25.0)]
    assert table["D"] == [("car", 1, 100.0)]
    assert sum(share for _, _, share in table["I"]) == pytest.approx(100.0)


def test_id_frequency_empty_kind_and_top_k():
    table = id_frequency_table(edit_set_counts([{"I:a"}, {"I:b"}, {"I:a"}]), top_k=1)
    assert table["I"] == [("a", 2, pytest.approx(200 / 3))]
    assert table["D"] == []
    with pytest.raises(ValueError):
        id_frequency_table(edit_set_counts([]), top_k=0)


def test_id_frequency_ties_rank_lexicographically():
    table = id_frequency_table(edit_set_counts([{"D:zebra", "D:ant"}]), top_k=2)
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


def test_format_local_empty(clevr):
    assert format_local(_script(), clevr) == "no edits"


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
