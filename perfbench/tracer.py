"""Spans around the calls the CLI makes into each cee module.

``install`` rebinds module-level names (and two ``Taxonomy`` methods) to
wrappers, so nothing under ``src/cee`` changes. A name is rebound in every
module that calls it, because ``from .edits import csed`` copies the binding.

Each wrapped call is a span: name, start, end and the span that caused it.
Spans are kept in memory and written once at the end; per name the tracer
keeps calls, total time and self time (total minus time covered by child
spans). The hot leaf spans (csed, path_length, the assignment solver and
scene_csed) are aggregated only, to bound memory, and the two per-character
helpers, ``normalize_concept`` and ``Taxonomy.resolve``, are counted only.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

from cee import cli, edits, explain, scene, story, taxonomy
from cee.edits import ConceptMultiset

# (module, attribute, span name); every module that holds a binding is listed
SPANS = [
    (cli, "cmd_eval_story", "cli.command"),
    (cli, "cmd_eval_scene", "cli.command"),
    (cli, "cmd_explain", "cli.command"),
    (cli, "render_table", "cli.render"),
    (cli, "census_csv", "cli.render"),
    (cli, "_write", "cli.write"),
    (cli, "resolve_taxonomy", "taxonomy.load"),
    (cli, "read_stories", "story.read"),
    (cli, "evaluate_story", "story.evaluate"),
    (story, "story_loss", "story.story_loss"),
    (story, "consistency_loss", "story.consistency_loss"),
    (story, "frame_csed", "story.frame_csed"),
    (cli, "global_aggregate", "story.aggregate"),
    (cli, "semantic_loss_table", "story.aggregate"),
    (cli, "read_detections", "scene.read"),
    (cli, "read_targets", "scene.read"),
    (cli, "corpus_report", "scene.corpus_report"),
    (cli, "read_transactions", "explain.read"),
    (cli, "mine_rules", "explain.mine_rules"),
    (cli, "id_frequency_table", "explain.id_frequency"),
    (cli, "write_transactions", "explain.write_transactions"),
]
HOT_SPANS = [
    (taxonomy.Taxonomy, "path_length", "taxonomy.path_length"),
    (edits, "linear_sum_assignment", "edits.lsa"),
]
COUNTED = [
    (taxonomy, "normalize_concept", "taxonomy.normalize"),
    (edits, "normalize_concept", "taxonomy.normalize"),
    (story, "normalize_concept", "taxonomy.normalize"),
    (scene, "normalize_concept", "taxonomy.normalize"),
    (taxonomy.Taxonomy, "resolve", "taxonomy.resolve"),
]


def _multiset_key(items) -> tuple:
    counts = items.counts() if isinstance(items, ConceptMultiset) else Counter(items)
    return tuple(sorted(counts.items()))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter[str] = Counter()
        self.csed_inputs: set = set()
        self.csed_size_sum = 0
        self.solved: set = set()
        self.threshold: float | None = None
        self._open: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._counters: dict[str, itertools.count] = {}

    def wrap(self, name, fn, record=True, hook=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        spans, open_spans, ids, clock = self.spans, self._open, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            frame = [next(ids), 0.0]
            open_spans.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if record:
                    spans.append((frame[0], name, start, end, parent[0] if parent else None))
            if hook is not None:
                hook_start = clock()
                hook(args, kwargs, result)
                if parent is not None:  # keep the hook's cost out of the parent's self time
                    parent[1] += clock() - hook_start
            return result

        return wrapper

    def count(self, name, fn):
        calls = self._counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that measure input properties ---------------------------------

    def _on_csed(self, args, kwargs, result):
        generated, target, tax = args[:3]
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        s_key, t_key = _multiset_key(generated), _multiset_key(target)
        self.csed_inputs.add((s_key, t_key, id(tax), cfg))
        self.csed_size_sum += sum(c for _, c in s_key) + sum(c for _, c in t_key)

    def _on_build_samples(self, args, kwargs, result):
        self.threshold = args[2] if len(args) > 2 else kwargs["t_d"]

    def _on_scene_csed(self, args, kwargs, result):
        key = (args[0].image_id, self.threshold)
        if key in self.solved:
            self.counts["scene.scene_csed_repeats"] += 1
        self.solved.add(key)

    def _on_apriori(self, args, kwargs, result):
        self.counts["explain.apriori_itemsets"] += len(result)

    def install(self) -> None:
        for owner, attr, name in SPANS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        for owner, attr, name in HOT_SPANS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), record=False))
        for owner, attr, name in COUNTED:
            setattr(owner, attr, self.count(name, getattr(owner, attr)))
        for owner in (story, scene):
            owner.csed = self.wrap("edits.csed", owner.csed, record=False, hook=self._on_csed)
        for owner in (cli, scene):
            owner.build_samples = self.wrap(
                "scene.build_samples", owner.build_samples, hook=self._on_build_samples
            )
            owner.scene_csed = self.wrap(
                "scene.scene_csed", owner.scene_csed, record=False, hook=self._on_scene_csed
            )
        explain.apriori = self.wrap("explain.apriori", explain.apriori, hook=self._on_apriori)

    def report(self) -> dict:
        for name, calls in self._counters.items():
            self.counts[name] = next(calls)
        return {
            "spans": self.spans,
            "totals": self.totals,
            "counts": dict(self.counts),
            "csed_unique": len(self.csed_inputs),
            "csed_size_sum": self.csed_size_sum,
        }
