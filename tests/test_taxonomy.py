import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cee import (
    CostConfig,
    CycleDetected,
    DanglingEdge,
    EmptySource,
    FLATTENED_CONFIG,
    MultipleRoots,
    Taxonomy,
    TaxonomyError,
    UnknownConcept,
    csed,
    delete_cost,
    distance,
    insert_cost,
    is_replaceable,
    load_taxonomy,
    replace_cost,
    resolve_taxonomy,
)
from cee.harness import random_taxonomy
from cee.taxonomy import (
    PATH_CONFIG,
    REPLACE_DELETE_PLUS_INSERT,
    REPLACE_SHORTEST_PATH,
    normalize_concept,
)

def _edges(tax):
    """(child, parent) pairs, read from the serialised form."""
    return [tuple(line.split("\t")) for line in tax.to_text().splitlines()[1:]]


def _leaves(tax):
    return tax.nodes - {parent for _, parent in _edges(tax)}


SIZE_TAX = """\
!root\troot
size\troot
large\tsize
small\tsize
"""


# -- normalization -----------------------------------------------------------


def test_normalize_lowercases_and_collapses_whitespace():
    assert normalize_concept("  Traffic   Light ") == "traffic light"


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_concept("   ")


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_normalize_idempotent(text):
    once = normalize_concept(text)
    assert normalize_concept(once) == once


# -- loading and validation ----------------------------------------------------


def test_load_size_group():
    tax = load_taxonomy(SIZE_TAX)
    assert len(tax.nodes) == 4
    assert tax.depth("large") == 2
    assert tax.root == "root"


def test_load_single_root_node():
    tax = load_taxonomy("!root\tentity\n")
    assert len(tax.nodes) == 1
    assert tax.root == "entity"


def test_load_two_cycle_rejected():
    with pytest.raises(CycleDetected):
        load_taxonomy("a\tb\nb\ta\n")


def test_load_self_loop_rejected():
    with pytest.raises(CycleDetected):
        load_taxonomy("!root\tr\na\ta\n")


def test_load_multiple_roots_rejected():
    # two parentless top nodes and no declaration
    with pytest.raises(MultipleRoots):
        load_taxonomy("a\tr1\nb\tr2\n")


def test_load_two_declared_roots_rejected():
    with pytest.raises(MultipleRoots) as info:
        load_taxonomy("!root\tr2\n!root\tr1\na\tr1\n")
    assert str(info.value) == "expected exactly one root, found ['r1', 'r2']"


def test_load_stray_parentless_node_rejected():
    with pytest.raises(DanglingEdge):
        load_taxonomy("!root\tr\na\tr\nb\tother\n")


# (text for load_taxonomy, root and parents for Taxonomy, error, message)
BAD_HIERARCHIES = [
    pytest.param("!root\tr\na\tr\nb\ta\nb\tc\nc\tb\n",
                 "r", {"a": {"r"}, "b": {"a", "c"}, "c": {"b"}},
                 CycleDetected, "cycle detected through concept 'b'", id="two-cycle"),
    pytest.param("!root\tr\na\tr\nb\tx\n", "r", {"a": {"r"}, "b": {"x"}},
                 DanglingEdge, "concept 'x' never attaches to root 'r'", id="parent-no-concept"),
    pytest.param("!root\tr\na\tr\nb\ts\n", "r", {"a": {"r"}, "b": {"s"}, "s": set()},
                 DanglingEdge, "concept 's' never attaches to root 'r'", id="stray-parentless"),
    pytest.param("!root\tr\nr\ta\n", "r", {"r": {"a"}},
                 DanglingEdge, "concept 'r' is the root but declares a parent",
                 id="root-with-parent"),
    pytest.param("a\tr1\nb\tr2\n", None, {"a": {"r1"}, "b": {"r2"}},
                 MultipleRoots, "expected exactly one root, found ['r1', 'r2']",
                 id="two-roots"),
]


@pytest.mark.parametrize("text,root,parents,error,message", BAD_HIERARCHIES)
def test_every_route_checks_the_hierarchy(text, root, parents, error, message):
    frozen = {child: frozenset(ps) for child, ps in parents.items()}
    with pytest.raises(error) as direct:
        Taxonomy(root, frozen)
    with pytest.raises(error) as loaded:
        load_taxonomy(text)
    assert str(direct.value) == str(loaded.value) == message


def test_load_empty_rejected():
    with pytest.raises(EmptySource):
        load_taxonomy("# only a comment\n")


def test_comments_and_blank_lines_ignored():
    tax = load_taxonomy("# hierarchy\n\n!root\tr\n\na\tr\n")
    assert sorted(tax.nodes) == ["a", "r"]


def test_round_trip_serialization(clevr):
    text = clevr.to_text()
    again = load_taxonomy(text)
    assert again.to_text() == text


def test_bundled_clevr_shape(clevr):
    assert len(clevr.categories) == 4
    assert len(_leaves(clevr)) == 17
    assert set(clevr.categories) == {"size", "color", "material", "shape"}


def test_bundled_street_shape(street):
    for concept in ("car", "truck", "light", "traffic light", "stop sign",
                    "buildings", "person"):
        assert concept in street.nodes


def test_resolve_taxonomy_env_dir(tmp_path, monkeypatch):
    (tmp_path / "mini.tax").write_text(SIZE_TAX, encoding="utf-8")
    monkeypatch.setenv("CEE_TAXONOMY_DIR", str(tmp_path))
    tax = resolve_taxonomy("mini")
    assert tax.depth("small") == 2


def test_resolve_taxonomy_passes_over_directories(tmp_path, monkeypatch):
    # a directory is not a taxonomy file, in the cwd or in $CEE_TAXONOMY_DIR
    expected = {name: resolve_taxonomy(name).to_text() for name in ("clevr", "street")}
    for name in expected:
        (tmp_path / name).mkdir()
        (tmp_path / f"{name}.tax").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CEE_TAXONOMY_DIR", str(tmp_path))
    assert {name: resolve_taxonomy(name).to_text() for name in expected} == expected


def test_resolve_taxonomy_bad_file_names_it(tmp_path):
    bad = tmp_path / "bad.tax"
    bad.write_text("a\tb\nb\ta\n", encoding="utf-8")
    with pytest.raises(TaxonomyError) as exc:
        resolve_taxonomy(str(bad))
    assert str(exc.value) == f"{bad}: cycle detected through concept 'a'"
    assert isinstance(exc.value.__cause__, CycleDetected)


def test_resolve_taxonomy_unknown_name():
    with pytest.raises(FileNotFoundError):
        resolve_taxonomy("no-such-taxonomy")


# -- distances ----------------------------------------------------------------


def test_descendant_distance_zero(toy_food):
    assert distance(toy_food, "pasta", "food") == 0.0


def test_identity_distance_zero(clevr):
    assert distance(clevr, "red", "red") == 0.0


def test_rubber_metallic_distance(clevr):
    # two edges through the material category, same under both profiles
    assert distance(clevr, "rubber", "metallic", PATH_CONFIG) == 2.0
    assert distance(clevr, "rubber", "metallic", FLATTENED_CONFIG) == 2.0


def test_generalization_pays_path_cost(toy_food):
    assert distance(toy_food, "food", "pasta") == 1.0


def test_unknown_concept_rejected(clevr):
    with pytest.raises(UnknownConcept):
        distance(clevr, "zebra", "red")


def test_attach_unknown_mode():
    tax = resolve_taxonomy("clevr", attach_unknown=True)
    assert distance(tax, "zebra", "yak") == 2.0  # both hang off the root
    assert distance(tax, "zebra", "red") == 3.0
    assert delete_cost(tax, "zebra", FLATTENED_CONFIG) == 1.0
    assert delete_cost(tax, "zebra", PATH_CONFIG) == 1.0


def test_is_leaf_rejects_a_name_that_is_no_node(clevr):
    # like category_of, which raises for the same name
    assert clevr.is_leaf("red") and not clevr.is_leaf("color")
    with pytest.raises(UnknownConcept):
        clevr.is_leaf("nonexistent")
    with pytest.raises(UnknownConcept):
        clevr.category_of("nonexistent")


def test_is_leaf_holds_for_an_attached_unknown():
    tax = resolve_taxonomy("clevr", attach_unknown=True)
    assert tax.is_leaf("nonexistent")
    assert not tax.is_leaf("color")


def test_edge_rule_per_edge(clevr):
    cfg = PATH_CONFIG
    edges = _edges(clevr)
    assert {child for child, _ in edges} == clevr.nodes - {clevr.root}
    for child, parent in edges:
        assert distance(clevr, child, parent, cfg) == 0.0
        assert distance(clevr, parent, child, cfg) == cfg.unit_edge_cost


def test_distance_symmetric_without_ancestry(clevr):
    for s, t in itertools.combinations(sorted(_leaves(clevr)), 2):
        if clevr.is_descendant_or_equal(s, t) or clevr.is_descendant_or_equal(t, s):
            continue
        assert distance(clevr, s, t) == distance(clevr, t, s)


def test_triangle_bound_through_root(clevr):
    cfg = PATH_CONFIG
    for s, t in itertools.combinations(sorted(_leaves(clevr)), 2):
        assert distance(clevr, s, t, cfg) <= (
            delete_cost(clevr, s, cfg) + insert_cost(clevr, t, cfg)
        )


# -- delete / insert / replace costs -------------------------------------------


def test_flattened_leaf_costs(clevr):
    assert delete_cost(clevr, "red", FLATTENED_CONFIG) == 1.0
    assert insert_cost(clevr, "red", FLATTENED_CONFIG) == 1.0


def test_root_costs_zero(clevr):
    assert delete_cost(clevr, "entity", FLATTENED_CONFIG) == 0.0
    assert delete_cost(clevr, "entity", PATH_CONFIG) == 0.0


def test_chain_depth_costs(chain):
    assert delete_cost(chain, "leaf", PATH_CONFIG) == 2.0
    assert insert_cost(chain, "leaf", PATH_CONFIG) == 2.0
    assert delete_cost(chain, "leaf", FLATTENED_CONFIG) == 1.0


def test_weighted_delete_cost(chain):
    cfg = CostConfig(delete_weight=2.0)
    assert delete_cost(chain, "leaf", cfg) == 4.0


def test_replace_cost_delete_plus_insert(clevr):
    cfg = FLATTENED_CONFIG
    assert replace_cost(clevr, "rubber", "metallic", cfg) == (
        delete_cost(clevr, "rubber", cfg) + insert_cost(clevr, "metallic", cfg)
    )


def test_replace_cost_shortest_path(clevr):
    cfg = CostConfig(replace_mode="shortest-path")
    assert replace_cost(clevr, "rubber", "metallic", cfg) == 2.0


# -- replaceability -------------------------------------------------------------


def test_same_category_replaceable(clevr):
    assert is_replaceable(clevr, "red", "blue")


def test_cross_category_not_replaceable(clevr):
    assert not is_replaceable(clevr, "red", "cube")


def test_self_replaceable(clevr):
    assert is_replaceable(clevr, "red", "red")


def test_specialization_replaceable(toy_food):
    assert is_replaceable(toy_food, "food", "pasta")
    assert not is_replaceable(toy_food, "food", "dog")


# -- cost config validation -------------------------------------------------------


def test_cost_config_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        CostConfig(delete_weight=0.0)


def test_cost_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        CostConfig(replace_mode="teleport")


def test_taxonomy_direct_construction():
    tax = Taxonomy(root="r", parents={"a": frozenset({"r"}), "b": frozenset({"a"})})
    assert tax.depth("b") == 2
    assert tax.category_of("b") == "a"
    inferred = Taxonomy(None, {"a": frozenset({"r"}), "b": frozenset({"a"})})
    assert inferred.root == "r"
    assert inferred.to_text() == tax.to_text()


def test_taxonomy_rejects_a_concept_name_holding_an_arrow():
    # "R:x→y→z" would not say which arrow splits source from target
    parents = {"x": frozenset({"thing"}), "x→y": frozenset({"x"}), "z": frozenset({"x"}),
               "w→v": frozenset({"x"})}
    with pytest.raises(ValueError) as info:
        Taxonomy("thing", parents)
    assert str(info.value) == (
        "concept name 'w→v' holds '→', which replace tokens put between source and target"
    )
    with pytest.raises(ValueError, match="concept name 'a→r' holds"):  # the root is a node too
        Taxonomy("a→r", {"b": frozenset({"a→r"})})


@pytest.mark.parametrize(
    "query",
    [
        pytest.param(lambda tax: tax.depth("zebra"), id="depth"),
        pytest.param(lambda tax: tax.depth(" Large "), id="depth-unnormalised"),
        pytest.param(lambda tax: tax.ancestors_or_self("zebra"), id="ancestors_or_self"),
        pytest.param(lambda tax: tax.category_of("zebra"), id="category_of"),
        pytest.param(lambda tax: tax.path_length("zebra", "large"), id="path_length-source"),
        pytest.param(lambda tax: tax.path_length("large", "zebra"), id="path_length-target"),
        pytest.param(lambda tax: tax.is_descendant_or_equal("large", "zebra"),
                     id="is_descendant_or_equal-target"),
    ],
)
def test_queries_reject_a_name_that_is_no_node(query):
    with pytest.raises(UnknownConcept):
        query(load_taxonomy(SIZE_TAX))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_depth_is_path_length_to_root(seed):
    rng = random.Random(seed)
    tree = random_taxonomy(rng, n_nodes=rng.randint(2, 30))
    tax = load_taxonomy(tree.to_text(), attach_unknown=True)
    names = sorted(tax.nodes) + ["stray"]
    for name in names:
        assert tax.depth(name) == tax.path_length(name, tax.root)
    # an attached unknown hangs under the root, so its paths run through it
    for name in names + ["other"]:
        expected = 0 if name == "stray" else 1 + tax.depth(name)
        assert tax.path_length("stray", name) == tax.path_length(name, "stray") == expected


# -- cost model ------------------------------------------------------------------

_WEIGHT = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def _random_dag_text(rng):
    """A random tree with random extra parents, each an earlier node, so the
    hierarchy stays acyclic and some nodes sit under two root children."""
    tree = random_taxonomy(rng, n_nodes=rng.randint(2, 10))
    names = sorted(tree.nodes)  # n00 to n09: the order they were made in, root first
    extra = "".join(f"{names[i]}\t{names[rng.randrange(i)]}\n"
                    for i in range(2, len(names)) if rng.random() < 0.5)
    return tree.to_text() + extra


def test_random_dags_put_nodes_under_two_root_children():
    # the pricing oracle below sees concepts with more than one category
    counts = []
    for seed in range(40):
        tax = load_taxonomy(_random_dag_text(random.Random(seed)))
        top = set(tax.categories)
        counts.append(max(len(tax.ancestors_or_self(n) & top) for n in tax.nodes))
    assert max(counts) >= 2 and counts.count(1) > 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    replace_mode=st.sampled_from([REPLACE_DELETE_PLUS_INSERT, REPLACE_SHORTEST_PATH]),
    flattened=st.booleans(),
    weights=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT),
    attach_unknown=st.booleans(),
)
def test_cost_model_prices_match_the_free_functions(
    seed, replace_mode, flattened, weights, attach_unknown
):
    tax = load_taxonomy(_random_dag_text(random.Random(seed)), attach_unknown=attach_unknown)
    cfg = CostConfig(*weights, replace_mode=replace_mode, flattened=flattened)
    model = tax.cost_model(cfg)
    assert tax.cost_model(CostConfig(*weights, replace_mode, flattened)) is model

    top = set(tax.categories)
    names = sorted(tax.nodes) + (["stray", "stray2"] if attach_unknown else [])
    for _ in range(2):  # the second pass reads remembered prices
        for s in names:
            assert model.costs(s) == (delete_cost(tax, s, cfg), insert_cost(tax, s, cfg))
            # a root child is its own category, any other node takes the smallest
            # root child above it, and the root and attached unknowns have none
            above = tax.ancestors_or_self(s) & top
            assert tax.category_of(s) == (s if s in top else min(above, default=None))
            for t in names:
                price = model.pair(s, t)
                if distance(tax, s, t, cfg) == 0.0:
                    assert price == 0.0
                elif is_replaceable(tax, s, t, cfg):
                    assert price == replace_cost(tax, s, t, cfg)
                else:
                    assert price is None
        if not attach_unknown:
            # names arrive as Taxonomy.resolve returns them; an unnormalised one is unknown
            for price in (
                lambda: model.costs("stray"),
                lambda: model.pair(tax.root, "stray"),
                lambda: delete_cost(tax, " N01 ", cfg),
                lambda: distance(tax, " N01 ", "n01", cfg),
                lambda: distance(tax, "n01", " N01 ", cfg),
                lambda: model.costs(" N01 "),
                lambda: model.pair(" N01 ", "n01"),
                lambda: model.pair("n01", " N01 "),
            ):
                with pytest.raises(UnknownConcept):
                    price()
    # ConceptMultiset normalises for library callers of csed
    assert csed([" N01 "], names, tax, cfg) == csed(["n01"], names, tax, cfg)
