import random

import pytest
from hypothesis import given, settings, strategies as st

from cee import (
    ClevrObject,
    EmptyCorpus,
    EmptyStory,
    FLATTENED_CONFIG,
    LengthMismatch,
    MalformedObject,
    Story,
    UncategorizedConcept,
    EditOp,
    EditScript,
    consistency_flags,
    consistency_loss,
    evaluate_story,
    frame_csed,
    generate_story,
    global_aggregate,
    golden_story_pair,
    ideal_cl_trace,
    read_stories,
    semantic_loss_table,
    story_loss,
    validate_object,
    write_stories,
)


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
    script, cost = frame_csed([obj()], [obj(material="metallic")], clevr, FLATTENED_CONFIG)
    assert cost == 2.0
    assert [op.token for op in script] == ["R:rubber→metallic"]


def test_frame_identical_zero(clevr):
    frame = [obj(), obj(color="red")]
    _, cost = frame_csed(frame, frame, clevr, FLATTENED_CONFIG)
    assert cost == 0.0


def test_frame_extra_object_costs_whole_object(clevr):
    gen = [obj(), obj(color="red", shape="cube")]
    script, cost = frame_csed(gen, [obj()], clevr, FLATTENED_CONFIG)
    assert cost == 4.0
    assert [op.kind for op in script] == ["D", "D", "D", "D"]


def test_frame_missing_object_inserts_whole_object(clevr):
    script, cost = frame_csed([], [obj()], clevr, FLATTENED_CONFIG)
    assert cost == 4.0
    assert [op.kind for op in script] == ["I", "I", "I", "I"]


def test_frame_prefers_nearest_object_pairing(clevr):
    # the corrupted object must pair with its own ground-truth twin, not the
    # other object that differs in two attributes
    a = obj()
    b = obj(color="red", shape="cube")
    gen = [a, ClevrObject("large", "red", "rubber", "cube")]
    _, cost = frame_csed(gen, [a, b], clevr, FLATTENED_CONFIG)
    assert cost == 2.0  # fix size large->small on the b-like object


# -- story I/O ------------------------------------------------------------------


def test_story_jsonl_round_trip(tmp_path):
    gen, gt = golden_story_pair()
    path = tmp_path / "stories.jsonl"
    write_stories(path, [gt])
    loaded = read_stories(path)
    assert len(loaded) == 1
    assert loaded[0].frames == gt.frames
    assert loaded[0].id == gt.id


def test_story_rejects_missing_fields():
    with pytest.raises(MalformedObject):
        Story.from_json('{"frames": []}')


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
    with pytest.raises(LengthMismatch):
        story_loss(short, gt, clevr, FLATTENED_CONFIG)


def test_empty_story_rejected(clevr):
    empty = Story(id="empty", frames=[])
    with pytest.raises(EmptyStory):
        story_loss(empty, empty, clevr, FLATTENED_CONFIG)


# -- consistency loss -------------------------------------------------------------


def test_reference_story_consistency(clevr):
    gen, _ = golden_story_pair()
    trace, avg_cl = consistency_loss(gen, clevr, FLATTENED_CONFIG)
    assert trace == [0.0, 4.0, 8.0, 12.0]
    assert avg_cl == 0.0
    assert consistency_flags(trace, FLATTENED_CONFIG) == frozenset()


def test_first_frame_object_count_penalty(clevr):
    two_up_front = Story(
        id="s", frames=[[obj(), obj(color="red")], [obj(), obj(color="red")]],
    )
    trace, _ = consistency_loss(two_up_front, clevr, FLATTENED_CONFIG)
    assert trace[0] == 4.0
    assert 1 in consistency_flags(trace, FLATTENED_CONFIG)


def test_recolor_mid_story_flags_inconsistency(clevr):
    # frame 3 recolors the first object red -> blue: the step from frame 3
    # back to frame 2 costs one whole object (4) plus the recolor fix (2)
    a, b, c = obj(color="red"), obj(color="green", shape="cube"), obj(shape="cylinder")
    drifted = ClevrObject(a.size, "blue", a.material, a.shape)
    frames = [[a], [a, b], [drifted, b, c]]
    story = Story(id="s", frames=frames)
    trace, avg_cl = consistency_loss(story, clevr, FLATTENED_CONFIG)
    assert trace == [0.0, 4.0, 4.0 + 4.0 + 2.0]
    assert consistency_flags(trace, FLATTENED_CONFIG) == frozenset({3})
    assert avg_cl == pytest.approx(1 / 3)


def test_consistency_ignores_ground_truth(clevr):
    gen, gt = golden_story_pair()
    # evaluating against a permuted ground truth must not change CL
    scrambled = Story(id=gt.id, frames=list(reversed(gt.frames)))
    m1 = evaluate_story(gen, gt, clevr, FLATTENED_CONFIG)
    m2_trace, m2_avg = consistency_loss(gen, clevr, FLATTENED_CONFIG)
    assert m1.cl_per_frame == m2_trace and m1.avg_cl == m2_avg
    m3 = evaluate_story(gen, scrambled, clevr, FLATTENED_CONFIG)
    assert m3.cl_per_frame == m1.cl_per_frame


def test_ideal_trace_scales_with_delete_weight():
    from cee import CostConfig

    cfg = CostConfig(delete_weight=2.0, flattened=True)
    assert ideal_cl_trace(4, cfg) == [0.0, 8.0, 16.0, 24.0]


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
    trace, avg_cl = consistency_loss(story, clevr, FLATTENED_CONFIG)
    assert sl == 0.0 and avg_sl == 0.0
    assert trace == ideal_cl_trace(story.length, FLATTENED_CONFIG)
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
