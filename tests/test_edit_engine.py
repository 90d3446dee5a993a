import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment as scipy_lsa

from cee import (
    ConceptMultiset,
    CostConfig,
    EditOp,
    EditScript,
    FLATTENED_CONFIG,
    InstanceTooLarge,
    Taxonomy,
    UnknownConcept,
    brute_force_csed,
    csed,
    delete_cost,
    clevr_taxonomy,
    insert_cost,
    load_taxonomy,
)
from cee.edits import BRUTE_FORCE_LIMIT, Census, format_cost, operation_census
from cee.harness import random_multiset, random_taxonomy
from cee.taxonomy import PATH_CONFIG
from cee import edits


# -- helpers / primitives -------------------------------------------------------


def test_format_cost_integral_and_fractional():
    assert format_cost(2.0) == "2"
    assert format_cost(2.5) == "2.5"
    assert format_cost(0) == "0"


def test_multiset_multiplicity_and_len():
    ms = ConceptMultiset(["car", "Car", "  car ", "light"])
    assert len(ms) == 4
    assert ms.counts() == {"car": 3, "light": 1}
    assert list(ms) == ["car", "car", "car", "light"]


def test_multiset_equality_ignores_taxonomy_tag():
    assert ConceptMultiset(["a", "b"]) == ConceptMultiset(["b", "a"])


def test_multiset_repr_lists_its_sorted_names():
    assert repr(ConceptMultiset(["b", "a"])) == "ConceptMultiset(['a', 'b'])"


def test_edit_op_validation():
    with pytest.raises(ValueError):
        EditOp("R", source="a")  # replace needs both endpoints
    with pytest.raises(ValueError):
        EditOp("D", source="a", target="b")
    with pytest.raises(ValueError):
        EditOp("I", target="b", cost=-1)
    with pytest.raises(ValueError, match="^insert needs only a target$"):
        EditOp("I", source="x", target="y")
    with pytest.raises(ValueError):
        EditOp("X", source="a", target="b")


def test_edit_op_tokens():
    assert EditOp("R", source="rubber", target="metallic", cost=2).token == "R:rubber→metallic"
    assert EditOp("D", source="car", cost=1).token == "D:car"
    assert EditOp("I", target="dog", cost=1).token == "I:dog"


def test_script_orders_deletes_replaces_inserts():
    script = EditScript(
        ops=[
            EditOp("I", target="a", cost=1),
            EditOp("R", source="z", target="a", cost=2),
            EditOp("R", source="b", target="q", cost=2),
            EditOp("D", source="m", cost=1),
        ]
    )
    assert [op.kind for op in script] == ["D", "R", "R", "I"]
    assert [op.source for op in script if op.kind == "R"] == ["b", "z"]
    assert script.total_cost == 6.0


def _old_sort_key(op):
    """The order key EditScript sorted by before ops stored theirs."""
    return ({"D": 0, "R": 1, "I": 2}[op.kind], op.source or "", op.target or "", op.cost)


def test_edit_op_stored_key_leaves_equality_hash_and_repr_alone():
    op = EditOp("R", source="a", target="b", cost=2.5)
    twin = EditOp("R", source="a", target="b", cost=2.5)
    assert op == twin and op is not twin
    assert hash(op) == hash(twin) == hash(("R", "a", "b", 2.5))
    assert op != EditOp("R", source="a", target="b", cost=3.0)
    assert repr(op) == "EditOp(kind='R', source='a', target='b', cost=2.5)"
    for built in (op, EditOp("D", source="m", cost=1), EditOp("I", target="q", cost=0.5)):
        assert built._key == _old_sort_key(built)
    assert EditOp("I", source="", target="q")._key == (2, "", "q", 0.0)


_NAME = st.sampled_from(["", "a", "b", "car", "z"])


@st.composite
def _edit_op(draw):
    kind = draw(st.sampled_from("DRI"))
    source = draw(_NAME.filter(bool)) if kind in "DR" else draw(st.sampled_from([None, ""]))
    target = draw(_NAME.filter(bool)) if kind in "RI" else None
    cost = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
                | st.sampled_from([0.1, 0.2, 0.3, 1e-9, 2.0**20]))
    return EditOp(kind, source, target, cost)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_edit_op(), max_size=12))
def test_script_order_and_total_match_a_sort_by_the_old_key(ops):
    script = EditScript(tuple(ops))
    expected = sorted(ops, key=_old_sort_key)
    assert [id(op) for op in script.ops] == [id(op) for op in expected]
    assert script.total_cost == float(sum(op.cost for op in expected))


# -- csed golden cases ----------------------------------------------------------


def test_single_material_replace(clevr):
    s = ConceptMultiset(["small", "brown", "rubber", "sphere"])
    t = ConceptMultiset(["small", "brown", "metallic", "sphere"])
    script = csed(s, t, clevr, FLATTENED_CONFIG)
    assert [op.token for op in script] == ["R:rubber→metallic"]
    assert script.total_cost == 2.0


def test_identical_sets_no_edits(clevr):
    s = ConceptMultiset(["red", "cube"])
    assert csed(s, s, clevr, FLATTENED_CONFIG).total_cost == 0.0
    assert len(csed(s, s, clevr, FLATTENED_CONFIG)) == 0


def test_semantic_equivalence_zero_cost(toy_food):
    s = ConceptMultiset(["pasta", "dog"])
    t = ConceptMultiset(["food", "animal"])
    script = csed(s, t, toy_food, PATH_CONFIG)
    assert script.total_cost == 0.0
    assert list(script.ops) == []


def test_replace_plus_insert(clevr):
    # replace ties with delete+insert at cost 2; the tie must resolve to R
    s = ConceptMultiset(["cube"])
    t = ConceptMultiset(["sphere", "red"])
    script = csed(s, t, clevr, FLATTENED_CONFIG)
    assert [op.token for op in script] == ["R:cube→sphere", "I:red"]
    assert [op.cost for op in script] == [2.0, 1.0]
    assert script.total_cost == 3.0


def test_empty_source_all_inserts(clevr):
    script = csed(ConceptMultiset(), ConceptMultiset(["red", "blue"]), clevr, FLATTENED_CONFIG)
    assert [op.token for op in script] == ["I:blue", "I:red"]
    assert script.total_cost == 2.0


def test_empty_target_all_deletes(clevr):
    script = csed(ConceptMultiset(["red", "blue"]), ConceptMultiset(), clevr, FLATTENED_CONFIG)
    assert [op.kind for op in script] == ["D", "D"]
    assert script.total_cost == 2.0


def test_duplicates_are_distinct_items(street):
    s = ConceptMultiset(["car", "car", "traffic light", "car", "stop sign"])
    t = ConceptMultiset(["light", "buildings"])
    script = csed(s, t, street, FLATTENED_CONFIG)
    assert [op.token for op in script] == [
        "D:car", "D:car", "D:car",
        "R:stop sign→buildings", "R:traffic light→light",
    ]
    assert script.total_cost == 7.0


def test_street_case_under_path_profile(street):
    s = ConceptMultiset(["car", "car", "traffic light", "car", "stop sign"])
    t = ConceptMultiset(["light", "buildings"])
    script = csed(s, t, street, PATH_CONFIG)
    assert sorted(op.token for op in script) == [
        "D:car", "D:car", "D:car",
        "R:stop sign→buildings", "R:traffic light→light",
    ]
    assert script.total_cost == 14.0


def test_unknown_concept_propagates(clevr):
    with pytest.raises(UnknownConcept):
        csed(ConceptMultiset(["zebra"]), ConceptMultiset(["red"]), clevr)


@pytest.mark.parametrize(
    "cfg", [PATH_CONFIG, FLATTENED_CONFIG, CostConfig(replace_mode="shortest-path")]
)
def test_csed_resolves_no_name_it_is_given(cfg, monkeypatch):
    tax = clevr_taxonomy()  # fresh, so every price is computed under the counter
    s = ConceptMultiset(["large", "red", "rubber", "cube", "cube"])
    t = ConceptMultiset(["small", "red", "metal", "sphere"])
    calls = []
    real = Taxonomy.resolve
    monkeypatch.setattr(Taxonomy, "resolve", lambda self, name: calls.append(name) or real(self, name))
    assert csed(s, t, tax, cfg).total_cost > 0
    assert calls == []


# -- brute force oracle -----------------------------------------------------------


def test_brute_force_limit_guard(clevr):
    s = ConceptMultiset(["red"] * 7)
    t = ConceptMultiset(["blue"] * 6)
    with pytest.raises(InstanceTooLarge) as info:
        brute_force_csed(s, t, clevr, FLATTENED_CONFIG)
    assert (info.value.size, info.value.limit) == (13, BRUTE_FORCE_LIMIT)


def test_brute_force_identity(clevr):
    s = ConceptMultiset(["red"])
    assert brute_force_csed(s, s, clevr, FLATTENED_CONFIG).total_cost == 0.0


def test_brute_force_inserts_only(clevr):
    script = brute_force_csed(
        ConceptMultiset(), ConceptMultiset(["red", "blue"]), clevr, FLATTENED_CONFIG
    )
    assert [op.kind for op in script] == ["I", "I"]
    assert script.total_cost == 2.0


@pytest.mark.parametrize("cfg", [PATH_CONFIG, FLATTENED_CONFIG], ids=["path", "flattened"])
@pytest.mark.parametrize("solve", [csed, brute_force_csed], ids=["csed", "brute-force"])
def test_a_delete_or_insert_of_the_root_writes_no_op(solve, cfg, street):
    # the root costs 0 to delete or insert, and like a free pair it writes no op
    root = street.root
    assert solve(["car"], [root, "car"], street, cfg).ops == ()
    assert solve([], [root], street, cfg).ops == ()
    assert solve([root, "car"], ["car"], street, cfg).ops == ()
    script = solve([root], ["car"], street, cfg)
    assert [(op.kind, op.source, op.target) for op in script] == [("I", None, "car")]
    assert script.total_cost == insert_cost(street, "car", cfg)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_assignment_matches_brute_force(seed):
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 20))
    cfg = CostConfig(
        unit_edge_cost=rng.choice([0.5, 1.0, 2.0]),
        delete_weight=rng.choice([0.5, 1.0, 2.0]),
        insert_weight=rng.choice([0.5, 1.0, 2.0]),
        replace_mode=rng.choice(["delete-plus-insert", "shortest-path"]),
        flattened=rng.random() < 0.5,
    )
    s = random_multiset(rng, tax, max_size=5)
    t = random_multiset(rng, tax, max_size=5)
    assert csed(s, t, tax, cfg).total_cost == brute_force_csed(s, t, tax, cfg).total_cost


# -- assignment solver ------------------------------------------------------------

# matrix entries that make ties: small integers, quarters with a 1e-9-scale
# bias (as on the dummy routes), and uniform floats
_ENTRY_KINDS = {
    "integer": lambda rng: float(rng.randint(0, 3)),
    "dyadic-eps": lambda rng: rng.randint(0, 8) / 4 + rng.choice((0.0, 1e-9, 2e-9)),
    "uniform": lambda rng: rng.random(),
}


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(sorted(_ENTRY_KINDS)),
)
def test_solver_returns_scipys_columns(seed, size, kind):
    rng = random.Random(seed)
    cost = [[_ENTRY_KINDS[kind](rng) for _ in range(size)] for _ in range(size)]
    rows, cols = edits.linear_sum_assignment(cost)
    want_rows, want_cols = scipy_lsa(np.array(cost))
    assert rows == want_rows.tolist()
    assert cols == want_cols.tolist()


def test_assign_matches_scipy_on_a_pinned_bigtax_instance():
    # from the bigtax workload; regrouping the reduced cost as
    # (min_val - u[i]) + cost[i][j] - v[j] picks columns [2, 1, ...] here
    pair = [[25.0, 20.0, 21.0, 16.0], [29.0, 24.0, 25.0, 20.0]]
    del_costs, ins_costs = [10.0, 14.0], [15.0, 10.0, 11.0, 5.0]
    n, m = len(del_costs), len(ins_costs)
    padded = np.zeros((n + m, n + m))
    padded[:n, :m] = pair
    padded[:n, m:] = np.asarray(del_costs)[:, None] + edits._TIE_EPS
    padded[n:, :m] = np.asarray(ins_costs) + edits._TIE_EPS
    rows, cols = scipy_lsa(padded)
    assert cols.tolist() == [1, 2, 3, 5, 4, 0]
    assert edits.linear_sum_assignment(padded.tolist()) == (rows.tolist(), cols.tolist())
    assert edits._assign(pair, del_costs, ins_costs) == [(0, 1), (1, 2), (2, 3), (5, 0)]


def test_solver_rejects_an_infeasible_matrix():
    with pytest.raises(ValueError, match="infeasible"):
        edits.linear_sum_assignment([[float("inf")]])


_WEIGHT = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    replace_mode=st.sampled_from(["delete-plus-insert", "shortest-path"]),
    weights=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT),
)
def test_remembered_script_matches_a_fresh_solve(seed, replace_mode, weights):
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 20))
    cfg = CostConfig(*weights, replace_mode=replace_mode, flattened=rng.random() < 0.5)
    s = list(random_multiset(rng, tax, max_size=5))
    t = list(random_multiset(rng, tax, max_size=5))
    first = csed(s, t, tax, cfg)
    backward = csed(t, s, tax, cfg)
    rng.shuffle(s)
    rng.shuffle(t)
    assert csed(s, t, tax, cfg) is first  # any item order reads the same script
    for script, (a, b) in ((first, (s, t)), (backward, (t, s))):
        fresh = load_taxonomy(tax.to_text())  # remembers no script yet
        assert script.ops == csed(a, b, fresh, cfg).ops
        # the oracle may pick another optimum of equal cost, so only costs compare;
        # float sums and the tie bias differ from the oracle's far below 1e-6
        oracle = brute_force_csed(a, b, tax, cfg)
        assert script.total_cost == pytest.approx(oracle.total_cost, rel=1e-6)


def test_cost_configs_never_share_scripts():
    tax = clevr_taxonomy()
    s, t = ["large", "red", "rubber", "cube"], ["small", "red", "metal", "sphere"]
    configs = [PATH_CONFIG, CostConfig(delete_weight=2.0), CostConfig(replace_mode="shortest-path")]
    totals = [csed(s, t, tax, cfg).total_cost for cfg in configs]
    assert totals == [12.0, 18.0, 6.0]
    for cfg in configs:
        assert csed(s, t, tax, cfg) == csed(s, t, clevr_taxonomy(), cfg)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    weights=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT, _WEIGHT, _WEIGHT, _WEIGHT),
)
def test_each_cost_model_builds_its_own_ops(seed, weights):
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 20))
    modes = ["delete-plus-insert", "shortest-path"]
    configs = [
        CostConfig(*weights[:3], replace_mode=rng.choice(modes), flattened=rng.random() < 0.5),
        CostConfig(*weights[3:], replace_mode=rng.choice(modes), flattened=rng.random() < 0.5),
    ]
    assume(configs[0] != configs[1])
    pairs = []
    for _ in range(6):
        s, t = random_multiset(rng, tax, max_size=5), random_multiset(rng, tax, max_size=5)
        pairs += [(s, t), (s, ())]  # a whole delete makes the same edits under both configs
    ops_by_config = []
    for cfg in configs:
        for s, t in pairs[2:]:  # the model has solved other pairs before the first
            csed(s, t, tax, cfg)
        scripts = [csed(s, t, tax, cfg) for s, t in pairs]
        for (s, t), script in zip(pairs, scripts):
            fresh = csed(s, t, load_taxonomy(tax.to_text()), cfg)
            assert (script.ops, script.total_cost) == (fresh.ops, fresh.total_cost)
        ops_by_config.append([op for script in scripts for op in script.ops])
    first = {id(op) for op in ops_by_config[0]}
    assert not any(id(op) in first for op in ops_by_config[1])


# -- the closed form: no item with two actionable pairs ---------------------------

_ANY_WEIGHT = st.one_of(_WEIGHT, st.integers(1, 10).map(float), st.just(1 / 3))


def _solved(s, t, tax, cfg):
    """``csed`` on a fresh copy of ``tax`` with the closed form forced to
    decline, so the assignment solve writes the script."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edits, "_direct", lambda *priced: None)
        return csed(s, t, load_taxonomy(tax.to_text()), cfg)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    replace_mode=st.sampled_from(["delete-plus-insert", "shortest-path"]),
    flattened=st.booleans(),
    weights=st.tuples(_ANY_WEIGHT, _ANY_WEIGHT, _ANY_WEIGHT),
)
def test_closed_form_writes_the_solvers_script(seed, replace_mode, flattened, weights):
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 20))
    cfg = CostConfig(*weights, replace_mode=replace_mode, flattened=flattened)
    model = tax.cost_model(cfg)
    pairs = [(random_multiset(rng, tax, max_size=4), random_multiset(rng, tax, max_size=4))
             for _ in range(8)]
    # only the pairs the closed form writes; the others reach the solver either way
    pairs = [(s, t) for s, t in pairs if edits._direct(*edits._priced(s, t, model)) is not None]
    assume(pairs)
    for s, t in pairs:
        closed = csed(s, t, load_taxonomy(tax.to_text()), cfg)
        solved = _solved(s, t, tax, cfg)
        assert (closed.ops, closed.total_cost) == (solved.ops, solved.total_cost)


@pytest.mark.parametrize(
    "s,t,cfg",
    [
        (["red"], ["blue", "green"], FLATTENED_CONFIG),  # red has two partners
        (["red", "red"], ["blue"], FLATTENED_CONFIG),  # two reds compete for blue
        # a replace priced at 2**20 (delete plus insert); its delete and insert are below
        (["red"], ["blue"], CostConfig(delete_weight=2.0**20 - 1, flattened=True)),
        (["red"], [], CostConfig(delete_weight=2.0**20, flattened=True)),  # a delete at 2**20
    ],
    ids=["shared-partner", "duplicate-names", "pair-price-limit", "delete-price-limit"],
)
def test_closed_form_declines(s, t, cfg, clevr, monkeypatch):
    S, T = ConceptMultiset(s), ConceptMultiset(t)
    assert edits._direct(*edits._priced(S, T, clevr.cost_model(cfg))) is None
    calls = []
    solve = edits.linear_sum_assignment
    monkeypatch.setattr(
        edits, "linear_sum_assignment", lambda cost: calls.append(cost) or solve(cost)
    )
    script = csed(S, T, load_taxonomy(clevr.to_text()), cfg)
    assert len(calls) == 1
    assert script.total_cost == brute_force_csed(S, T, clevr, cfg).total_cost


@pytest.mark.parametrize(
    "cfg,cells,tokens",
    [
        # a replace priced at 2**20 - 1, just under the limit
        (CostConfig(delete_weight=2.0**20 - 2, flattened=True), [(0, 0)], ["R:red→blue"]),
        # a partner dearer than its delete plus insert is not matched
        (CostConfig(10.0, 0.1, 0.1, replace_mode="shortest-path", flattened=True),
         [(0, 1), (1, 0)], ["D:red", "I:blue"]),
    ],
    ids=["just-under-the-limit", "dearer-than-delete-plus-insert"],
)
def test_closed_form_writes_one_pair(cfg, cells, tokens, clevr):
    S, T = ConceptMultiset(["red"]), ConceptMultiset(["blue"])
    assert edits._direct(*edits._priced(S, T, clevr.cost_model(cfg))) == cells
    assert csed(S, T, load_taxonomy(clevr.to_text()), cfg).edit_tokens() == tokens
    assert _solved(S, T, clevr, cfg).edit_tokens() == tokens


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_identity_zero_cost(seed):
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 15))
    s = random_multiset(rng, tax, max_size=6)
    assert csed(s, s, tax, FLATTENED_CONFIG).total_cost == 0.0


def test_zero_cost_subsumption(clevr):
    # each generated leaf specializes a distinct target category
    s = ConceptMultiset(["red", "cube", "rubber"])
    t = ConceptMultiset(["color", "shape", "material"])
    assert csed(s, t, clevr, PATH_CONFIG).total_cost == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cost_bounded_by_delete_all_insert_all(seed):
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 15))
    cfg = CostConfig(flattened=rng.random() < 0.5)
    s = random_multiset(rng, tax, max_size=5)
    t = random_multiset(rng, tax, max_size=5)
    bound = sum(delete_cost(tax, x, cfg) for x in s) + sum(
        insert_cost(tax, x, cfg) for x in t
    )
    assert csed(s, t, tax, cfg).total_cost <= bound + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_adding_a_concept_costs_at_most_its_deletion(seed):
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 15))
    cfg = FLATTENED_CONFIG
    s = random_multiset(rng, tax, max_size=4)
    t = random_multiset(rng, tax, max_size=4)
    extra = rng.choice(sorted(tax.nodes - {tax.root}))
    grown = ConceptMultiset(list(s) + [extra])
    base = csed(s, t, tax, cfg).total_cost
    assert csed(grown, t, tax, cfg).total_cost <= base + delete_cost(tax, extra, cfg) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_replace_cost_decomposes_in_delete_plus_insert_mode(seed):
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 15))
    cfg = CostConfig(replace_mode="delete-plus-insert", flattened=rng.random() < 0.5)
    s = random_multiset(rng, tax, max_size=5)
    t = random_multiset(rng, tax, max_size=5)
    for op in csed(s, t, tax, cfg):
        if op.kind == "R":
            assert op.cost == delete_cost(tax, op.source, cfg) + insert_cost(
                tax, op.target, cfg
            )


def test_clevr_replaces_cost_two(clevr):
    s = ConceptMultiset(["red", "cube", "large", "rubber"])
    t = ConceptMultiset(["blue", "sphere", "small", "metallic"])
    script = csed(s, t, clevr, FLATTENED_CONFIG)
    assert all(op.kind == "R" and op.cost == 2.0 for op in script)
    assert script.total_cost == 8.0


# -- census -----------------------------------------------------------------------


def _script(*ops):
    return EditScript(ops=list(ops))


def test_census_hand_sums():
    scripts = [
        _script(EditOp("R", source="a", target="b", cost=2)),
        _script(
            EditOp("R", source="a", target="b", cost=2),
            EditOp("R", source="c", target="d", cost=2),
        ),
    ]
    census = operation_census(scripts)
    assert census.n_replace == 3
    assert census.cost_replace == 6.0
    assert census.mean_total == 3.0


def test_census_deletes_only():
    census = operation_census(
        [_script(*(EditOp("D", source=c, cost=1) for c in ("x", "y", "z")))]
    )
    assert census.n_delete == 3
    assert census.cost_delete == 3.0
    assert census.mean_total == 3.0


def test_census_empty_is_no_data():
    census = operation_census([])
    assert census.mean_total is None
    assert census.n_scripts == 0


def _census_seven_passes(batch):
    """The census as one generator pass per figure, as ``EditScript.count``
    and ``cost_of`` summed it: the reference for the one-pass census."""

    def count(script, kind):
        return sum(1 for op in script.ops if op.kind == kind)

    def cost_of(script, kind):
        return float(sum(op.cost for op in script.ops if op.kind == kind))

    return Census(
        n_scripts=len(batch),
        n_delete=sum(count(s, "D") for s in batch),
        cost_delete=float(sum(cost_of(s, "D") for s in batch)),
        n_replace=sum(count(s, "R") for s in batch),
        cost_replace=float(sum(cost_of(s, "R") for s in batch)),
        n_insert=sum(count(s, "I") for s in batch),
        cost_insert=float(sum(cost_of(s, "I") for s in batch)),
        mean_total=float(sum(s.total_cost for s in batch)) / len(batch) if batch else None,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_census_sums_per_script_then_across_scripts(seed):
    # weight 0.1 makes float sums depend on their grouping
    rng = random.Random(seed)
    tax = random_taxonomy(rng, n_nodes=rng.randint(4, 20))
    cfg = CostConfig(
        unit_edge_cost=0.1, delete_weight=0.1, insert_weight=0.1,
        replace_mode=rng.choice(["delete-plus-insert", "shortest-path"]),
    )
    scripts = [
        csed(random_multiset(rng, tax, max_size=6), random_multiset(rng, tax, max_size=6), tax, cfg)
        for _ in range(rng.randint(0, 40))
    ]
    assert operation_census(scripts) == _census_seven_passes(scripts)
