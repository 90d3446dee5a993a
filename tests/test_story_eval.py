import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cee import (
    CostConfig,
    ClevrObject,
    ConceptMultiset,
    EmptyCorpus,
    EmptyStory,
    FLATTENED_CONFIG,
    LengthMismatch,
    MalformedObject,
    Story,
    Taxonomy,
    UncategorizedConcept,
    EditOp,
    EditScript,
    consistency_loss,
    csed,
    evaluate_story,
    frame_csed,
    golden_story_pair,
    load_taxonomy,
    read_stories,
    resolve_taxonomy,
    story_loss,
    validate_object,
)
from cee.taxonomy import PATH_CONFIG, REPLACE_DELETE_PLUS_INSERT, REPLACE_SHORTEST_PATH
from cee import edits
from cee.harness import COLORS, MATERIALS, SHAPES, SIZES, _frame_cost, _hamming, generate_story
from cee.harness import random_object
from cee.story import N_CONCEPTS, global_aggregate, semantic_loss_table, write_stories
from cee.cli import main as cli_main


def obj(size="small", color="brown", material="rubber", shape="sphere"):
    return ClevrObject(size=size, color=color, material=material, shape=shape)


# -- objects ----------------------------------------------------------------


def test_object_normalizes_attributes():
    o = ClevrObject(size=" Small ", color="BROWN", material="rubber", shape="sphere")
    assert o.size == "small" and o.color == "brown"


def test_object_from_dict_requires_all_attributes():
    with pytest.raises(MalformedObject):
        ClevrObject.from_dict({"size": "small", "color": "brown", "material": "rubber"})


def test_object_round_trip():
    o = obj()
    assert ClevrObject.from_dict(o.to_dict()) == o


def test_validate_object_catches_misplaced_concept(clevr):
    bad = ClevrObject(size="red", color="small", material="rubber", shape="sphere")
    with pytest.raises(MalformedObject):
        validate_object(bad, clevr)


def test_validate_object_rejects_a_non_object(clevr):
    with pytest.raises(MalformedObject, match="^expected ClevrObject, got str$"):
        validate_object("x", clevr)


def test_object_concepts_multiset():
    assert sorted(obj().concepts()) == ["brown", "rubber", "small", "sphere"]


# -- frame alignment ----------------------------------------------------------


def test_frame_single_replace(clevr):
    script = frame_csed([obj()], [obj(material="metallic")], clevr, FLATTENED_CONFIG)
    assert script.total_cost == 2.0
    assert [op.token for op in script] == ["R:rubber→metallic"]


def test_frame_identical_zero(clevr):
    frame = [obj(), obj(color="red")]
    script = frame_csed(frame, frame, clevr, FLATTENED_CONFIG)
    assert script.total_cost == 0.0


def test_frame_extra_object_costs_whole_object(clevr):
    gen = [obj(), obj(color="red", shape="cube")]
    script = frame_csed(gen, [obj()], clevr, FLATTENED_CONFIG)
    assert script.total_cost == 4.0
    assert [op.kind for op in script] == ["D", "D", "D", "D"]


def test_frame_missing_object_inserts_whole_object(clevr):
    script = frame_csed([], [obj()], clevr, FLATTENED_CONFIG)
    assert script.total_cost == 4.0
    assert [op.kind for op in script] == ["I", "I", "I", "I"]


def test_frame_prefers_nearest_object_pairing(clevr):
    # the corrupted object must pair with its own ground-truth twin, not the
    # other object that differs in two attributes
    a = obj()
    b = obj(color="red", shape="cube")
    gen = [a, ClevrObject("large", "red", "rubber", "cube")]
    script = frame_csed(gen, [a, b], clevr, FLATTENED_CONFIG)
    assert script.total_cost == 2.0  # fix size large->small on the b-like object


def test_frame_csed_reads_one_cost_model_and_shares_its_ops(monkeypatch):
    tax = resolve_taxonomy("clevr")  # its own models, whatever other tests solved
    calls = []
    cost_model = Taxonomy.cost_model

    def counted(self, cfg):
        calls.append(cfg)
        return cost_model(self, cfg)

    monkeypatch.setattr(Taxonomy, "cost_model", counted)
    gen = [obj(), obj(color="red", shape="cube"), obj(size="large")]
    gt = [obj(material="metallic"), obj(color="red", shape="cube", material="metallic")]
    frame_csed(gen, gt, tax, FLATTENED_CONFIG)
    assert calls == [FLATTENED_CONFIG]  # one model per call, not one per object pair

    # two distinct object pairs that make the same edit share the model's one op
    sphere = frame_csed([obj()], [obj(material="metallic")], tax, FLATTENED_CONFIG)
    cube = frame_csed(
        [obj(shape="cube")], [obj(shape="cube", material="metallic")], tax, FLATTENED_CONFIG
    )
    assert [op.token for op in sphere] == [op.token for op in cube] == ["R:rubber→metallic"]
    assert sphere.ops[0] is cube.ops[0]


def test_clevr_objects_skip_the_assignment_solve_but_frames_do_not(monkeypatch):
    # an object holds one concept per category and a replace stays in its
    # category, so no concept has two replace partners and no solve is needed
    tax = resolve_taxonomy("clevr")
    calls = []
    solve = edits.linear_sum_assignment
    monkeypatch.setattr(
        edits, "linear_sum_assignment", lambda cost: calls.append(len(cost)) or solve(cost)
    )
    rng = random.Random(3)
    objects = [random_object(rng) for _ in range(30)]
    for a, b in zip(objects, objects[1:]):
        csed(a.multiset, b.multiset, tax, FLATTENED_CONFIG)
    assert csed(obj().multiset, obj(color="red", shape="cube").multiset, tax,
                FLATTENED_CONFIG).edit_tokens() == ["R:brown→red", "R:sphere→cube"]
    assert calls == []

    gen = [obj(), obj(color="red", shape="cube")]
    gt = [obj(material="metallic"), obj(color="red", shape="cube", size="large")]
    frame_csed(gen, gt, tax, FLATTENED_CONFIG)
    assert calls == [4]  # the frame's own 2 + 2 padded assignment


def test_each_frame_solve_reaches_the_solver(monkeypatch):
    # solve state lives on the cost model, so a second taxonomy solves the
    # same frame again instead of reading a process-wide answer
    calls = []
    solve = edits.linear_sum_assignment
    monkeypatch.setattr(
        edits, "linear_sum_assignment", lambda cost: calls.append(len(cost)) or solve(cost)
    )
    gen = [obj(), obj(color="red", shape="cube")]
    gt = [obj(material="metallic"), obj(color="red", shape="cube", size="large")]
    scripts = [frame_csed(gen, gt, resolve_taxonomy("clevr"), FLATTENED_CONFIG)
               for _ in range(2)]
    assert calls == [4, 4]
    assert scripts[0].edit_tokens() == scripts[1].edit_tokens()


def padded_route(gen_frame, gt_frame, tax, cfg):
    """The frame's script through the full (n+m)² dummy-padded solve, with no
    shortcut for identical frames, and the padded matrix price of each cell the
    solve chose (dummy routes carry ``edits._TIE_EPS``)."""
    model = tax.cost_model(cfg)
    n, m = len(gen_frame), len(gt_frame)
    nothing = ConceptMultiset()
    pair = [[edits._script(g.multiset, t.multiset, model) for t in gt_frame] for g in gen_frame]
    deletes = [edits._script(g.multiset, nothing, model) for g in gen_frame]
    inserts = [edits._script(nothing, t.multiset, model) for t in gt_frame]
    cells = edits._assign(
        [[s.total_cost for s in row] for row in pair],
        [s.total_cost for s in deletes],
        [s.total_cost for s in inserts],
    )
    chosen = [deletes[i] if j >= m else inserts[j] if i >= n else pair[i][j] for i, j in cells]
    prices = [
        s.total_cost + (edits._TIE_EPS if i >= n or j >= m else 0.0)
        for s, (i, j) in zip(chosen, cells)
    ]
    return EditScript(tuple(op for s in chosen for op in s.ops)), prices


def _counting_solver(mp):
    calls = []
    solve = edits.linear_sum_assignment
    mp.setattr(edits, "linear_sum_assignment", lambda cost: calls.append(len(cost)) or solve(cost))
    return calls


ORACLE_CONFIGS = [
    FLATTENED_CONFIG,
    PATH_CONFIG,
    CostConfig(delete_weight=0.5, insert_weight=2.0, flattened=True),
    CostConfig(delete_weight=0.1, insert_weight=0.1, flattened=True),
    CostConfig(replace_mode=REPLACE_SHORTEST_PATH, flattened=True),
    CostConfig(1e-12, 1e-12, 1e-12, flattened=True),
    CostConfig(1e8, 1e8, 1e8, flattened=True),
]
CLEVR_OBJECTS = st.builds(
    ClevrObject, st.sampled_from(SIZES), st.sampled_from(COLORS),
    st.sampled_from(MATERIALS), st.sampled_from(SHAPES),
)
# a small pool as well, so frames often repeat an object
FRAMES = st.lists(st.one_of(st.sampled_from([obj(), obj(color="red")]), CLEVR_OBJECTS), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    frames=FRAMES.flatmap(lambda f: st.tuples(st.just(f), st.permutations(f))),
    cfg=st.sampled_from(ORACLE_CONFIGS),
)
def test_identical_frames_skip_the_solver_and_match_the_padded_solve(frames, cfg, clevr):
    frame, shuffled = frames
    script, prices = padded_route(frame, shuffled, clevr, cfg)
    assert prices == [0.0] * len(prices) and script == EditScript(())
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_solver(mp)
        assert frame_csed(frame, shuffled, clevr, cfg) == EditScript(())
    assert calls == []


def dark_red_taxonomy():
    """clevr with ``dark red`` under ``red``, so ``red`` is no leaf."""
    return load_taxonomy(resolve_taxonomy("clevr").to_text() + "dark red\tred\n")


@pytest.fixture(scope="session")
def dark_red():
    return dark_red_taxonomy()


TINY = CostConfig(delete_weight=1e-30, insert_weight=1e-30, flattened=True)
# a whole-object delete, or insert, overflows to inf
HUGE = [CostConfig(delete_weight=1e308, flattened=True),
        CostConfig(insert_weight=1e308, flattened=True)]


@pytest.mark.parametrize(
    "gen,gt,tax,cfg,calls_made",
    [
        pytest.param([obj(), obj(color="red")], [obj(), obj(color="red", size="large")], "clevr",
                     FLATTENED_CONFIG, [], id="one-attribute-changed"),
        pytest.param([obj(), obj(), obj(color="red")], [obj(), obj(color="red"), obj(color="red")],
                     "clevr", FLATTENED_CONFIG, [], id="same-objects-other-counts"),
        pytest.param([obj(color="red", size="large")], [obj(), obj(color="red"), obj(shape="cube")],
                     "clevr", PATH_CONFIG, [], id="lone-object-with-a-best-partner"),
        pytest.param([obj(color="dark red")], [obj(color="dark red", size="large"), obj()],
                     "dark red", PATH_CONFIG, [], id="lone-object-under-a-hierarchy-of-leaves"),
        pytest.param([obj(color="red")],
                     [obj(color="red", size="large"), obj(color="red", shape="cube")],
                     "clevr", FLATTENED_CONFIG, [3], id="lone-object-with-two-best-partners"),
        pytest.param([obj(), obj()], [obj(), obj(size="large", color="red", material="metallic",
                                                 shape="cube")],
                     "clevr", FLATTENED_CONFIG, [4], id="lone-object-sharing-nothing"),
        pytest.param([obj(color="dark red")], [obj(color="red"), obj(color="red", size="large")],
                     "dark red", FLATTENED_CONFIG, [3], id="lone-object-over-a-non-leaf"),
        pytest.param([obj(), obj(color="red")], [obj(size="large"), obj(color="red", size="large")],
                     "clevr", FLATTENED_CONFIG, [4], id="two-objects-left-on-both-sides"),
        pytest.param([obj(), obj(color="red")], [obj()], "clevr", FLATTENED_CONFIG, [],
                     id="extra-generated-object"),
        pytest.param([obj()], [obj(), obj(color="red")], "clevr", FLATTENED_CONFIG, [],
                     id="extra-ground-truth-object"),
        pytest.param([obj(color="dark red"), obj(color="red")], [obj(color="red")], "dark red",
                     FLATTENED_CONFIG, [3], id="extra-object-over-a-non-leaf"),
        pytest.param([obj(), obj(color="red")], [obj()], "clevr", TINY, [3],
                     id="extra-object-at-a-tiny-weight"),
        # a replace cheaper by path than by delete plus insert: dark red -> blue at 1.5
        # and deleting the blue object at 24 beat deleting the dark red one at 27; each
        # concept has several partners here, so the objects' own scripts are solved too
        pytest.param([obj(color="dark red"), obj(color="blue")], [obj(color="blue")], "dark red",
                     CostConfig(0.5, 3.0, replace_mode=REPLACE_SHORTEST_PATH), [8, 8, 3],
                     id="extra-object-under-shortest-path"),
    ],
)
def test_differing_frames_skip_the_solver_only_for_an_exact_residue_with_a_lone_object(
        gen, gt, tax, cfg, calls_made, monkeypatch):
    # a fresh taxonomy, so the objects' own scripts are solved in this call
    tax = dark_red_taxonomy() if tax == "dark red" else resolve_taxonomy("clevr")
    calls = _counting_solver(monkeypatch)
    script = frame_csed(gen, gt, tax, cfg)
    assert calls == calls_made
    expected, _ = padded_route(gen, gt, tax, cfg)
    assert script.edit_tokens() == expected.edit_tokens() and script.edit_tokens()
    assert script.total_cost == expected.total_cost


def _outcome(route):
    """A frame route's tokens and total, or the message of its ValueError."""
    try:
        script = route()
    except ValueError as exc:
        return str(exc)
    return script.edit_tokens(), script.total_cost


# objects that differ in ``dark red`` against ``red``, so a free dark red -> red pair ties,
# and a leaf-only object
DARK_RED_OBJECTS = st.sampled_from(
    [obj(color="red"), obj(color="dark red"), obj(color="dark red", size="large"), obj()]
)
# the small pool of FRAMES as well, so the frames often repeat an object
OBJECTS = st.one_of(st.sampled_from([obj(), obj(color="red")]), CLEVR_OBJECTS)


@pytest.mark.parametrize("hierarchical", [False, True], ids=["clevr", "dark-red"])
@pytest.mark.parametrize("cfg", ORACLE_CONFIGS + [TINY, *HUGE])
@settings(max_examples=25, deadline=None)
@given(on_gen_side=st.booleans(), data=st.data())
def test_one_sided_frames_match_the_padded_solve(cfg, hierarchical, on_gen_side, data, clevr,
                                                 dark_red):
    objects = DARK_RED_OBJECTS if hierarchical else OBJECTS
    tax = dark_red if hierarchical else clevr
    shared = data.draw(st.lists(objects, max_size=5))
    added = data.draw(st.lists(objects, min_size=1, max_size=3))
    smaller = data.draw(st.permutations(shared))
    larger = data.draw(st.permutations(shared + added))
    gen, gt = (larger, smaller) if on_gen_side else (smaller, larger)
    assert _outcome(lambda: frame_csed(gen, gt, tax, cfg)) == _outcome(
        lambda: padded_route(gen, gt, tax, cfg)[0]
    )


# objects that differ in one or two attributes, so that frames often leave one object on a
# side, tie two partners for it, or chain it through a shared object
CLEVR_POOL = st.sampled_from([
    obj(), obj(color="red"), obj(size="large"), obj(color="red", size="large"),
    obj(shape="cube"), obj(color="red", material="metallic"),
])
DARK_RED_POOL = st.sampled_from([
    obj(color="red"), obj(color="dark red"), obj(color="dark red", size="large"), obj(),
    obj(size="large", shape="cube"),
])
RESIDUE_CONFIGS = [
    FLATTENED_CONFIG,
    PATH_CONFIG,
    CostConfig(delete_weight=0.1, insert_weight=0.1, flattened=True),
    CostConfig(delete_weight=0.7, insert_weight=0.3, flattened=True),
    CostConfig(delete_weight=1 / 3, insert_weight=3.0, flattened=True),
    TINY,
    *HUGE,
    CostConfig(delete_weight=1e8, flattened=True),
]


@pytest.mark.parametrize("hierarchical", [False, True], ids=["clevr", "dark-red"])
@pytest.mark.parametrize("cfg", RESIDUE_CONFIGS)
@settings(max_examples=40, deadline=None)
@given(on_gen_side=st.booleans(), data=st.data())
def test_frames_with_a_lone_leftover_object_match_the_padded_solve(cfg, hierarchical, on_gen_side,
                                                                   data, clevr, dark_red):
    pool = DARK_RED_POOL if hierarchical else CLEVR_POOL
    tax = dark_red if hierarchical else clevr
    shared = data.draw(st.lists(pool, max_size=3))
    lone = data.draw(st.lists(pool, max_size=1))
    others = data.draw(st.lists(pool, min_size=1, max_size=3))
    smaller = data.draw(st.permutations(shared + lone))
    larger = data.draw(st.permutations(shared + others))
    gen, gt = (larger, smaller) if on_gen_side else (smaller, larger)
    assert _outcome(lambda: frame_csed(gen, gt, tax, cfg)) == _outcome(
        lambda: padded_route(gen, gt, tax, cfg)[0]
    )


def test_generated_corpus_frames_match_the_padded_solve(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert cli_main(["gen-synthetic", "--seed", "1", "--n-stories", "40", "--length", "6",
                     "--out-dir", str(out)]) == 0
    tax = resolve_taxonomy("clevr")
    gen_by_id = {s.id: s for s in read_stories(out / "generated.jsonl", tax)}
    frames = []  # every SL frame and CL step, as (generated, target)
    for gt in read_stories(out / "ground_truth.jsonl", tax):
        gen = gen_by_id[gt.id]
        frames += zip(gen.frames, gt.frames)
        frames += zip(gen.frames[1:], gen.frames)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_solver(mp)
        scripts = [frame_csed(a, b, tax, FLATTENED_CONFIG) for a, b in frames]
    kinds = Counter()  # frames by how many objects each side keeps once shared ones cancel
    solved = 0  # frames the closed form leaves to the solver
    for script, (a, b) in zip(scripts, frames):
        expected, _ = padded_route(a, b, tax, FLATTENED_CONFIG)
        assert script.edit_tokens() == expected.edit_tokens()
        assert script.total_cost == expected.total_cost
        lone, rest = sorted(
            (list((Counter(a) - Counter(b)).elements()), list((Counter(b) - Counter(a)).elements())),
            key=len,
        )
        kinds[len(lone), min(len(rest), 2)] += 1
        if len(lone) == 1:  # flattened, two objects share their equal attributes
            shares = sorted((N_CONCEPTS - _hamming(lone[0], other) for other in rest), reverse=True)
            solved += shares[0] == 0 or shares[:1] == shares[1:2]
        solved += len(lone) > 1
    # no clevr object's own script needs the solver, so each call is a frame's
    assert len(calls) == solved
    # the corpus holds every kind of residue the closed form writes (none left, one side
    # only, a lone object against one or more), none with two or more on both sides,
    # and frames that still reach the solver
    assert set(kinds) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)}
    assert solved


# -- story I/O ------------------------------------------------------------------


def test_story_jsonl_round_trip(tmp_path, clevr):
    gen, gt = golden_story_pair()
    path = tmp_path / "stories.jsonl"
    write_stories(path, [gt])
    loaded = read_stories(path, clevr)
    assert len(loaded) == 1
    assert loaded[0].frames == gt.frames
    assert loaded[0].id == gt.id


def test_read_stories_interns_equal_objects(tmp_path, clevr):
    _, gt = golden_story_pair()
    path = tmp_path / "stories.jsonl"
    write_stories(path, [gt, Story(id="again", frames=gt.frames)])
    first, second = read_stories(path, clevr)
    assert first.frames == gt.frames
    for frame_a, frame_b in zip(first.frames, second.frames):
        assert all(a is b for a, b in zip(frame_a, frame_b, strict=True))


GOOD = {"size": "small", "color": "red", "material": "rubber", "shape": "cube"}


BAD_OBJECTS = [
    pytest.param({**GOOD, "color": ["red"]}, "concept name must be a string, got list",
                 id="unhashable-attribute"),
    pytest.param({**GOOD, "color": "large"},
                 "attribute 'large' resolves to category 'size', expected 'color'",
                 id="misplaced-attribute"),
    pytest.param("cube", "frame 2 must be a list of objects, got str in it",
                 id="object-not-a-mapping"),
    pytest.param(5, "frame 2 must be a list of objects, got int in it", id="object-a-number"),
]


def _write_lines(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


@pytest.mark.parametrize("bad,message", BAD_OBJECTS)
def test_read_stories_after_an_interned_object_keeps_the_message(bad, message, tmp_path, clevr):
    path = tmp_path / "stories.jsonl"
    lines = [{"id": "s", "frames": [[GOOD]]}, {"id": "t", "frames": [[GOOD], [GOOD, bad]]}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        read_stories(path, clevr)
    assert str(info.value) == f"{path}:2: {message}"


def test_read_stories_shares_objects_across_files_of_one_taxonomy(tmp_path):
    tax = resolve_taxonomy("clevr")  # its own object table, whatever other tests read
    gen, gt = golden_story_pair()
    gen_path, gt_path = tmp_path / "gen.jsonl", tmp_path / "gt.jsonl"
    write_stories(gen_path, [gen])
    write_stories(gt_path, [gt])
    [read_gen], [read_gt] = read_stories(gen_path, tax), read_stories(gt_path, tax)
    generated = {o: o for frame in read_gen.frames for o in frame}
    shared = [o for frame in read_gt.frames for o in frame if o in generated]
    assert shared and all(generated[o] is o for o in shared)
    # another taxonomy keeps its own table
    [again] = read_stories(gt_path, resolve_taxonomy("clevr"))
    assert again.frames == read_gt.frames
    assert all(a is not b for fa, fb in zip(again.frames, read_gt.frames) for a, b in zip(fa, fb))


@pytest.mark.parametrize("bad,message", BAD_OBJECTS)
def test_read_stories_fails_a_bad_object_in_every_file_at_its_own_line(bad, message, tmp_path):
    tax = resolve_taxonomy("clevr")
    first, alone, second = (tmp_path / f"{name}.jsonl" for name in ("first", "alone", "second"))
    _write_lines(first, [{"id": "s", "frames": [[GOOD]]}])
    _write_lines(alone, [{"id": "t", "frames": [[GOOD], [bad]]}])
    _write_lines(second, [{"id": "s", "frames": [[GOOD]]},
                          {"id": "t", "frames": [[GOOD], [GOOD, bad]]}])
    read_stories(first, tax)  # interns GOOD
    kept = dict(tax.objects)
    for path, line in ((alone, 1), (second, 2), (alone, 1)):
        with pytest.raises(MalformedObject) as info:
            read_stories(path, tax)
        assert str(info.value) == f"{path}:{line}: {message}"
        assert tax.objects == kept  # a failure is never kept


@pytest.mark.parametrize("interned", [False, True])
def test_read_stories_builds_every_object_of_a_line_before_validating_any(interned, tmp_path):
    # the misplaced object comes first, but the line fails on the later
    # object that cannot be built, whether or not GOOD is in the table
    tax = resolve_taxonomy("clevr")
    if interned:
        _write_lines(tmp_path / "good.jsonl", [{"id": "g", "frames": [[GOOD]]}])
        read_stories(tmp_path / "good.jsonl", tax)
    path = tmp_path / "stories.jsonl"
    misplaced = {**GOOD, "color": "large"}
    _write_lines(path, [{"id": "s", "frames": [[misplaced], [GOOD, {"size": "small"}]]}])
    with pytest.raises(MalformedObject) as info:
        read_stories(path, tax)
    assert str(info.value) == (
        f"{path}:1: object record missing attributes ['color', 'material', 'shape']: "
        "{'size': 'small'}"
    )


@pytest.mark.parametrize(
    "frame,kind",
    [pytest.param(GOOD, "dict", id="frame-an-object"), pytest.param("x", "str", id="frame-a-string")],
)
def test_read_stories_names_a_frame_that_is_not_a_list(frame, kind, tmp_path, clevr):
    path = tmp_path / "stories.jsonl"
    path.write_text(json.dumps({"id": "s", "frames": [[GOOD], frame]}) + "\n", encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        read_stories(path, clevr)
    assert str(info.value) == f"{path}:1: frame 2 must be a list of objects, got {kind}"


def test_story_rejects_missing_fields(tmp_path, clevr):
    path = tmp_path / "stories.jsonl"
    path.write_text('{"frames": []}\n', encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        read_stories(path, clevr)
    assert str(info.value) == f"{path}:1: line needs 'id' and 'frames'"


# -- story loss ------------------------------------------------------------------


def test_reference_story_losses(clevr):
    gen, gt = golden_story_pair()
    scripts, sl, avg_sl = story_loss(gen, gt, clevr, FLATTENED_CONFIG)
    assert [s.total_cost for s in scripts] == [2.0, 2.0, 2.0, 4.0]
    assert sl == 10.0
    assert avg_sl == 2.5
    for k in range(3):
        assert [op.token for op in scripts[k]] == ["R:rubber→metallic"]
    assert [op.token for op in scripts[3]] == ["R:rubber→metallic", "R:sphere→cylinder"]


def test_story_loss_identity(clevr):
    _, gt = golden_story_pair()
    _, sl, avg_sl = story_loss(gt, gt, clevr, FLATTENED_CONFIG)
    assert sl == 0.0 and avg_sl == 0.0


def test_story_loss_length_mismatch(clevr):
    gen, gt = golden_story_pair()
    short = Story(id=gen.id, frames=gen.frames[:2])
    with pytest.raises(LengthMismatch) as info:
        story_loss(short, gt, clevr, FLATTENED_CONFIG)
    assert info.value.story_id == gen.id


def test_empty_story_rejected(clevr):
    empty = Story(id="empty", frames=[])
    with pytest.raises(EmptyStory):
        story_loss(empty, empty, clevr, FLATTENED_CONFIG)
    with pytest.raises(EmptyStory):
        consistency_loss(empty, clevr, FLATTENED_CONFIG)


# -- consistency loss -------------------------------------------------------------


def test_reference_story_consistency(clevr):
    gen, _ = golden_story_pair()
    trace, flags, avg_cl = consistency_loss(gen, clevr, FLATTENED_CONFIG)
    assert trace == [0.0, 4.0, 8.0, 12.0]
    assert avg_cl == 0.0
    assert flags == frozenset()


def test_first_frame_object_count_penalty(clevr):
    two_up_front = Story(
        id="s", frames=[[obj(), obj(color="red")], [obj(), obj(color="red")]],
    )
    trace, flags, _ = consistency_loss(two_up_front, clevr, FLATTENED_CONFIG)
    assert trace[0] == 4.0
    assert 1 in flags


def test_recolor_mid_story_flags_inconsistency(clevr):
    # frame 3 recolors the first object red -> blue: the step from frame 3
    # back to frame 2 costs one whole object (4) plus the recolor fix (2)
    a, b, c = obj(color="red"), obj(color="green", shape="cube"), obj(shape="cylinder")
    drifted = ClevrObject(a.size, "blue", a.material, a.shape)
    frames = [[a], [a, b], [drifted, b, c]]
    story = Story(id="s", frames=frames)
    trace, flags, avg_cl = consistency_loss(story, clevr, FLATTENED_CONFIG)
    assert trace == [0.0, 4.0, 4.0 + 4.0 + 2.0]
    assert flags == frozenset({3})
    assert avg_cl == pytest.approx(1 / 3)


def test_consistency_ignores_ground_truth(clevr):
    gen, gt = golden_story_pair()
    # evaluating against a permuted ground truth must not change CL
    scrambled = Story(id=gt.id, frames=list(reversed(gt.frames)))
    m1 = evaluate_story(gen, gt, clevr, FLATTENED_CONFIG)
    m2_trace, m2_flags, m2_avg = consistency_loss(gen, clevr, FLATTENED_CONFIG)
    assert m1.cl_per_frame == m2_trace and m1.avg_cl == m2_avg and m1.cl_flags == m2_flags
    m3 = evaluate_story(gen, scrambled, clevr, FLATTENED_CONFIG)
    assert m3.cl_per_frame == m1.cl_per_frame


def test_ideal_trace_scales_with_delete_weight(clevr):
    from cee import CostConfig

    # a clean story sits on the ideal path, whose step is one whole-object delete
    cfg = CostConfig(delete_weight=2.0, flattened=True)
    story = generate_story(length=4, rng=random.Random(0))
    trace, flags, avg_cl = consistency_loss(story, clevr, cfg)
    assert trace == [0.0, 8.0, 16.0, 24.0]
    assert flags == frozenset() and avg_cl == 0.0


def test_faithfulness_error_invisible_to_consistency(clevr):
    # the frame-4 shape error raises SL but the generated story remains
    # internally consistent, so Avg CL stays at zero
    gen, gt = golden_story_pair()
    metrics = evaluate_story(gen, gt, clevr, FLATTENED_CONFIG)
    assert metrics.sl == 10.0
    assert metrics.avg_cl == 0.0


# -- aggregation -------------------------------------------------------------------


def test_global_aggregate_hand_sum(clevr):
    gen, gt = golden_story_pair()
    m = evaluate_story(gen, gt, clevr, FLATTENED_CONFIG)
    m2 = evaluate_story(gen, gt, clevr, FLATTENED_CONFIG)
    m2.sl = 6.0  # pretend a second story with SL 6
    agg = global_aggregate([m, m2])
    assert agg.gsl == 16.0
    assert agg.avg_gsl == 8.0


def test_global_aggregate_replicated_reference(clevr):
    gen, gt = golden_story_pair()
    metrics = [evaluate_story(gen, gt, clevr, FLATTENED_CONFIG) for _ in range(5)]
    agg = global_aggregate(metrics)
    assert agg.avg_gsl == 10.0
    assert agg.avg_gcl == 0.0
    assert agg.gcl == 5 * 12.0


def test_global_aggregate_perfect_story(clevr):
    _, gt = golden_story_pair()
    agg = global_aggregate([evaluate_story(gt, gt, clevr, FLATTENED_CONFIG)])
    assert agg.gsl == 0.0 and agg.avg_gcl == 0.0


def test_global_aggregate_empty_rejected():
    with pytest.raises(EmptyCorpus):
        global_aggregate([])


# -- per-semantic loss table ---------------------------------------------------------


def test_semantic_loss_story_fraction(clevr):
    # 100 single-object frames, 40 with a material replace -> Material 40%
    scripts = []
    for i in range(100):
        if i < 40:
            scripts.append(
                (1, EditScript(ops=[EditOp("R", source="rubber", target="metallic", cost=2)]))
            )
        else:
            scripts.append((1, EditScript(ops=[])))
    table = semantic_loss_table(scripts, clevr, {1: 100})
    assert table["material"][1] == 40.0
    assert table["color"][1] == 0.0


def test_semantic_loss_no_edits_all_zero(clevr):
    table = semantic_loss_table([(1, EditScript(ops=[]))], clevr, {1: 10})
    assert all(v == 0.0 for row in table.values() for v in row.values())


def test_semantic_loss_multi_object_denominator(clevr):
    # 2 stories at frame 2 (2 objects each -> denominator 4), one shape edit
    scripts = [
        (2, EditScript(ops=[EditOp("R", source="cube", target="sphere", cost=2)])),
        (2, EditScript(ops=[])),
    ]
    table = semantic_loss_table(scripts, clevr, {2: 4})
    assert table["shape"][2] == 25.0


def test_semantic_loss_uncategorized_concept(clevr):
    scripts = [(1, EditScript(ops=[EditOp("D", source="entity", cost=0)]))]
    with pytest.raises(UncategorizedConcept):
        semantic_loss_table(scripts, clevr, {1: 1})


def test_semantic_loss_unknown_frame_rejected(clevr):
    scripts = [(3, EditScript(ops=[EditOp("D", source="red", cost=1)]))]
    with pytest.raises(KeyError):
        semantic_loss_table(scripts, clevr, {1: 1})


# -- properties ---------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_clean_story_is_perfect_against_itself(seed, clevr):
    rng = random.Random(seed)
    story = generate_story(length=rng.randint(1, 6), rng=rng)
    _, sl, avg_sl = story_loss(story, story, clevr, FLATTENED_CONFIG)
    trace, flags, avg_cl = consistency_loss(story, clevr, FLATTENED_CONFIG)
    assert sl == 0.0 and avg_sl == 0.0
    assert trace == [4.0 * k for k in range(story.length)] and flags == frozenset()
    assert avg_cl == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_attribute_replacements_cost_two_each(seed, clevr):
    # recolor n final-frame objects with colors unused anywhere in the story,
    # so no corrupted object can collide with a ground-truth one and the SL
    # delta is exactly 2 per replacement
    rng = random.Random(seed)
    story = generate_story(length=4, rng=rng)
    n = rng.randint(1, 4)
    last = list(story.frames[-1])
    used = {o.color for o in story.frames[-1]}
    fresh = [c for c in ("cyan", "gray", "green", "purple", "red", "yellow",
                         "blue", "brown") if c not in used]
    for i in range(n):
        last[i] = ClevrObject(**{**last[i].to_dict(), "color": fresh[i]})
    frames = list(story.frames[:-1]) + [last]
    corrupted = Story(id=story.id, frames=frames)
    _, sl, _ = story_loss(corrupted, story, clevr, FLATTENED_CONFIG)
    assert sl == 2.0 * n


DYADIC = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    weights=st.tuples(DYADIC, DYADIC, DYADIC),
    mode=st.sampled_from([REPLACE_DELETE_PLUS_INSERT, REPLACE_SHORTEST_PATH]),
)
def test_frame_cost_matches_the_harness_model(seed, weights, mode, clevr):
    # dyadic weights keep every sum exact, so the two must agree to the bit
    unit_edge_cost, delete_weight, insert_weight = weights
    cfg = CostConfig(unit_edge_cost, delete_weight, insert_weight, mode, flattened=True)
    rng = random.Random(seed)
    for _ in range(20):
        gen = [random_object(rng) for _ in range(rng.randint(0, 4))]
        gt = [random_object(rng) for _ in range(rng.randint(0, 4))]
        assert frame_csed(gen, gt, clevr, cfg).total_cost == _frame_cost(gen, gt, cfg)
