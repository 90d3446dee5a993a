import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from cee import (
    ClevrObject,
    FLATTENED_CONFIG,
    InstanceTooLarge,
    SpecOutOfRange,
    corrupt,
    delete_cost,
    evaluate_story,
    golden_story_pair,
)
from cee.edits import BRUTE_FORCE_LIMIT
from cee.harness import (
    ATTR_DRIFT,
    ATTR_REPLACE,
    COLORS,
    OBJECT_ADD,
    OBJECT_DROP,
    CorruptionOp,
    CorruptionSpec,
    _frame_cost,
    _hamming,
    generate_story,
    leaf_fix_cost,
    random_multiset,
    random_object,
    random_spec,
    random_taxonomy,
)
from cee.story import N_CONCEPTS, semantic_loss_table
from cee.taxonomy import PATH_CONFIG


def drop(frame):
    return CorruptionOp(kind=OBJECT_DROP, frame=frame)


def recolor(frame, value="red"):
    return CorruptionOp(kind=ATTR_REPLACE, frame=frame, attribute="color", value=value)


# -- clean stories -----------------------------------------------------------------


def test_generated_story_is_cumulative():
    story = generate_story(length=5, rng=random.Random(3))
    assert [len(f) for f in story.frames] == [1, 2, 3, 4, 5]
    for k in range(1, 5):
        assert story.frames[k][:k] == story.frames[k - 1]


def test_generation_is_seed_deterministic():
    stories = [generate_story(rng=random.Random(seed)).to_json() for seed in (11, 11, 12)]
    assert stories[0] == stories[1] != stories[2]


def test_clean_story_scores_perfectly_against_itself(clevr):
    gt = generate_story(length=4, rng=random.Random(7))
    gen = dataclasses.replace(gt)
    metrics = evaluate_story(gen, gt, clevr)
    assert metrics.sl == 0.0
    assert metrics.avg_cl == 0.0
    assert metrics.cl_flags == frozenset()


def test_rejects_zero_length():
    with pytest.raises(ValueError):
        generate_story(length=0, rng=random.Random(0))


def test_random_object_draws_from_vocabulary():
    obj = random_object(random.Random(0))
    assert obj.size in ("large", "small")
    assert obj.material in ("metallic", "rubber")
    assert obj.shape in ("cube", "cylinder", "sphere")


# -- golden pair -------------------------------------------------------------------


def test_golden_pair_reference_values(clevr):
    gen, gt = golden_story_pair()
    metrics = evaluate_story(gen, gt, clevr)
    assert metrics.per_frame_csed == [2.0, 2.0, 2.0, 4.0]
    assert metrics.sl == 10.0
    assert metrics.avg_sl == 2.5
    assert metrics.cl_per_frame == [0.0, 4.0, 8.0, 12.0]
    assert metrics.avg_cl == 0.0
    assert metrics.cl_flags == frozenset()
    table = semantic_loss_table(
        enumerate(metrics.frame_scripts, start=1), clevr, {1: 1, 2: 2, 3: 3, 4: 4}
    )
    assert table == {
        "color": {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0},
        "material": {1: 100.0, 2: 50.0, 3: 100.0 / 3, 4: 25.0},
        "shape": {1: 0.0, 2: 0.0, 3: 0.0, 4: 25.0},
        "size": {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0},
    }


# -- spec validation ----------------------------------------------------------------


def test_corruption_op_field_validation():
    with pytest.raises(ValueError):
        CorruptionOp(kind="melt", frame=1)
    with pytest.raises(ValueError):
        CorruptionOp(kind=ATTR_REPLACE, frame=1, attribute="weight", value="heavy")
    with pytest.raises(ValueError):
        CorruptionOp(kind=ATTR_REPLACE, frame=1, attribute="color", value=None)
    with pytest.raises(ValueError):
        CorruptionOp(kind=OBJECT_ADD, frame=1)


@pytest.mark.parametrize(
    "ops",
    [
        (drop(9),),                      # beyond the story
        (drop(0),),                      # frames are 1-based
        (CorruptionOp(kind=ATTR_DRIFT, frame=1, attribute="color", value="red"),),
        (recolor(2), drop(2)),           # same frame twice
        (recolor(2), drop(3)),           # adjacent frames interact
    ],
)
def test_spec_validation_rejects(ops):
    spec = CorruptionSpec(ops=ops)
    with pytest.raises(SpecOutOfRange):
        spec.validate(4)


def test_corrupt_requires_flattened_costs():
    story = generate_story(rng=random.Random(0))
    with pytest.raises(ValueError):
        corrupt(story, CorruptionSpec(ops=()), PATH_CONFIG)


# -- predicted impact --------------------------------------------------------------


def test_empty_spec_leaves_story_clean():
    story = generate_story(length=4, rng=random.Random(1))
    corrupted, impact = corrupt(story, CorruptionSpec(ops=()), FLATTENED_CONFIG)
    assert corrupted.frames == story.frames
    assert impact.sl_delta == 0.0
    assert impact.cl_flags == frozenset()
    assert impact.cl_trace == (0.0, 4.0, 8.0, 12.0)


def test_single_attribute_replacement_costs_two():
    story = generate_story(length=4, rng=random.Random(2))
    value = "red" if story.frames[1][-1].color != "red" else "blue"
    spec = CorruptionSpec(ops=(recolor(2, value),))
    _, impact = corrupt(story, spec, FLATTENED_CONFIG)
    assert impact.sl_delta == 2.0
    # undoing the recolor makes step 2->3 over budget; the cumulative trace
    # stays 2 above the ideal line from then on, so frame 4 is flagged too
    assert impact.cl_flags == frozenset({3, 4})
    assert impact.cl_trace == (0.0, 4.0, 10.0, 14.0)


def test_object_drop_mid_story():
    story = generate_story(length=4, rng=random.Random(3))
    _, impact = corrupt(story, CorruptionSpec(ops=(drop(3),)), FLATTENED_CONFIG)
    assert impact.sl_delta == 4.0
    assert impact.cl_flags == frozenset({3})
    assert impact.cl_trace == (0.0, 4.0, 4.0, 12.0)
    assert impact.avg_cl == pytest.approx(0.25)


def test_first_frame_addition_flags_frame_one():
    story = generate_story(length=3, rng=random.Random(4))
    extra = ClevrObject("large", "green", "rubber", "cube")
    spec = CorruptionSpec(ops=(CorruptionOp(kind=OBJECT_ADD, frame=1, obj=extra),))
    _, impact = corrupt(story, spec, FLATTENED_CONFIG)
    assert 1 in impact.cl_flags
    assert impact.cl_trace[0] == 4.0


def test_corrupted_story_role_and_frames():
    story = generate_story(length=4, rng=random.Random(5))
    corrupted, _ = corrupt(story, CorruptionSpec(ops=(drop(4),)), FLATTENED_CONFIG)
    assert len(corrupted.frames[3]) == 3
    assert story.frames[3] != corrupted.frames[3]  # input untouched
    assert len(story.frames[3]) == 4


# -- predictions agree with the evaluator ---------------------------------------------


WEIGHT_GRID = [
    FLATTENED_CONFIG,
    dataclasses.replace(FLATTENED_CONFIG, delete_weight=2.0),
    dataclasses.replace(FLATTENED_CONFIG, insert_weight=0.5),
    dataclasses.replace(FLATTENED_CONFIG, replace_mode="delete-plus-insert"),
    dataclasses.replace(FLATTENED_CONFIG, unit_edge_cost=2.0, delete_weight=1.5),
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cfg_index=st.integers(min_value=0, max_value=len(WEIGHT_GRID) - 1),
)
def test_evaluator_recovers_predicted_impact(seed, cfg_index, clevr):
    rng = random.Random(seed)
    cfg = WEIGHT_GRID[cfg_index]
    gt = generate_story(length=rng.randint(2, 5), rng=rng)
    spec = random_spec(rng, gt, max_ops=2)
    corrupted, impact = corrupt(gt, spec, cfg)
    metrics = evaluate_story(corrupted, gt, clevr, cfg)
    assert metrics.sl == pytest.approx(impact.sl_delta, abs=1e-9)
    assert tuple(metrics.cl_per_frame) == pytest.approx(impact.cl_trace, abs=1e-9)
    assert metrics.cl_flags == impact.cl_flags
    assert metrics.avg_cl == impact.avg_cl


def _scipy_frame_cost(gen, target, cfg):
    """The harness's former route: a full hamming grid solved by scipy."""
    n, m = len(gen), len(target)
    cost = N_CONCEPTS * cfg.delete_weight * max(n - m, 0)
    cost += N_CONCEPTS * cfg.insert_weight * max(m - n, 0)
    if n and m:
        grid = np.array([[_hamming(g, t) for t in target] for g in gen], dtype=float)
        rows, cols = linear_sum_assignment(grid)
        cost += leaf_fix_cost(cfg) * float(grid[rows, cols].sum())
    return cost


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pool_size=st.integers(min_value=1, max_value=4),
)
def test_frame_cost_matches_scipy_assignment(seed, pool_size):
    # small pools make shared and duplicate objects common, which is where
    # cancelling equal objects before the search could go wrong
    rng = random.Random(seed)
    pool = [random_object(rng) for _ in range(pool_size)]
    gen = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
    target = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
    for cfg in WEIGHT_GRID:
        assert _frame_cost(gen, target, cfg) == _scipy_frame_cost(gen, target, cfg)


def test_frame_cost_cancels_many_shared_objects():
    shared = ClevrObject("large", "blue", "rubber", "cube")
    gen = [shared] * 40 + [ClevrObject("small", "red", "metallic", "sphere"),
                           ClevrObject("large", "red", "rubber", "sphere")]
    target = [shared] * 40 + [ClevrObject("large", "red", "rubber", "cylinder")]
    cost = _frame_cost(gen, target, FLATTENED_CONFIG)
    assert cost == 4.0 + 2.0 * 1  # one object deleted, one shape fixed
    assert cost == _scipy_frame_cost(gen, target, FLATTENED_CONFIG)


def test_frame_cost_rejects_an_oversize_residue():
    gen = [ClevrObject("large", color, "rubber", "cube") for color in COLORS[:7]]
    target = [ClevrObject("small", color, "rubber", "cube") for color in COLORS[:6]]
    with pytest.raises(InstanceTooLarge) as info:
        _frame_cost(gen, target, FLATTENED_CONFIG)
    assert (info.value.size, info.value.limit) == (13, BRUTE_FORCE_LIMIT)


def test_random_spec_is_always_valid():
    rng = random.Random(9)
    for _ in range(200):
        story = generate_story(length=rng.randint(1, 6), rng=rng)
        spec = random_spec(rng, story, max_ops=3)
        spec.validate(story.length)  # must not raise
        frames = sorted(op.frame for op in spec.ops)
        assert all(b - a >= 2 for a, b in zip(frames, frames[1:]))


# -- auxiliary generators ---------------------------------------------------------


def test_random_taxonomy_is_wellformed():
    rng = random.Random(12)
    tax = random_taxonomy(rng, n_nodes=20)
    assert len(tax.nodes) == 20
    children = {line.split("\t")[0] for line in tax.to_text().splitlines()[1:]}
    assert children == tax.nodes - {tax.root}
    for node in tax.nodes:
        assert delete_cost(tax, node, FLATTENED_CONFIG) >= 0


def test_random_taxonomy_needs_a_root_and_a_concept():
    with pytest.raises(ValueError, match="^need at least a root and one concept$"):
        random_taxonomy(random.Random(0), n_nodes=1)


def test_random_multiset_respects_bounds():
    rng = random.Random(13)
    tax = random_taxonomy(rng, n_nodes=15)
    for _ in range(50):
        ms = random_multiset(rng, tax, max_size=6)
        assert len(ms) <= 6
        assert all(c in tax.nodes for c in ms)


def test_leaf_fix_cost_profiles():
    assert leaf_fix_cost(FLATTENED_CONFIG) == 2.0
    d_i = dataclasses.replace(FLATTENED_CONFIG, replace_mode="delete-plus-insert")
    assert leaf_fix_cost(d_i) == 2.0
    cheap_del = dataclasses.replace(d_i, delete_weight=0.25, insert_weight=0.25)
    assert leaf_fix_cost(cheap_del) == 0.5
    pricey_edges = dataclasses.replace(FLATTENED_CONFIG, unit_edge_cost=5.0)
    assert leaf_fix_cost(pricey_edges) == 2.0  # delete+insert wins
