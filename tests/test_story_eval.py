import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cee import (
    REPLACE_DELETE_PLUS_INSERT,
    REPLACE_SHORTEST_PATH,
    CostConfig,
    ATTRIBUTES,
    ClevrObject,
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
    evaluate_story,
    frame_csed,
    generate_story,
    global_aggregate,
    golden_story_pair,
    random_object,
    read_stories,
    resolve_taxonomy,
    semantic_loss_table,
    story_loss,
    validate_object,
    write_stories,
)
from cee.harness import _frame_cost


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


@pytest.mark.parametrize(
    "bad,message",
    [
        pytest.param({**GOOD, "color": ["red"]}, "concept name must be a string, got list",
                     id="unhashable-attribute"),
        pytest.param({**GOOD, "color": "large"},
                     "attribute 'large' resolves to category 'size', expected 'color'",
                     id="misplaced-attribute"),
        pytest.param("cube", f"object record missing attributes {list(ATTRIBUTES)}: 'cube'",
                     id="object-not-a-mapping"),
    ],
)
def test_read_stories_after_an_interned_object_keeps_the_message(bad, message, tmp_path, clevr):
    path = tmp_path / "stories.jsonl"
    lines = [{"id": "s", "frames": [[GOOD]]}, {"id": "t", "frames": [[GOOD], [GOOD, bad]]}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        read_stories(path, clevr)
    assert str(info.value) == f"{path}:2: {message}"


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
