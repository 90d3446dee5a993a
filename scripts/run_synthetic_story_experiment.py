#!/usr/bin/env python3
"""Synthetic story-evaluation experiment.

Generates clean cumulative stories, plants seeded corruptions with known
analytic impact, runs the story evaluator on the corrupted corpus, and checks
that the measured losses recover every prediction. Finishes by mining global
replacement rules from the pooled edit transactions.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

from cee import (
    FLATTENED_CONFIG,
    Transaction,
    clevr_taxonomy,
    corrupt,
    evaluate_story,
    generate_story,
    global_aggregate,
    mine_rules,
    random_spec,
    recovery_mismatch,
    write_stories,
    write_transactions,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-stories", type=int, default=50)
    ap.add_argument("--length", type=int, default=4)
    ap.add_argument("--max-ops", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--min-support", type=float, default=0.05)
    ap.add_argument("--out-dir", default="out/synthetic_story")
    args = ap.parse_args(argv)

    tax = clevr_taxonomy()
    cfg = FLATTENED_CONFIG
    rng = random.Random(args.seed)

    pairs = []
    for i in range(args.n_stories):
        gt = generate_story(length=args.length, rng=rng, story_id=f"story-{i:04d}")
        spec = random_spec(rng, gt, max_ops=args.max_ops)
        corrupted, impact = corrupt(gt, spec, cfg)
        pairs.append((gt, corrupted, spec, impact))

    mismatches = 0
    metrics = []
    transactions = []
    op_counter = Counter()
    for gt, corrupted, spec, impact in pairs:
        m = evaluate_story(corrupted, gt, tax, cfg)
        metrics.append(m)
        transactions.append(Transaction.from_scripts(m.story_id, m.frame_scripts))
        op_counter.update(op.kind for op in spec.ops)
        mismatch = recovery_mismatch(m, impact)
        if mismatch is not None:
            mismatches += 1
            print(f"MISMATCH {m.story_id}: {mismatch}", file=sys.stderr)

    summary = global_aggregate(metrics)
    print(f"stories evaluated : {summary.n_stories}")
    print(f"planted ops       : {dict(sorted(op_counter.items()))}")
    print(f"GSL / Avg GSL     : {summary.gsl:g} / {summary.avg_gsl:.4f}")
    print(f"GCL / Avg GCL     : {summary.gcl:g} / {summary.avg_gcl:.4f}")
    print(f"prediction misses : {mismatches}")

    rules = mine_rules(transactions, min_support=args.min_support)
    print(f"\ntop replacement rules (min support {100 * args.min_support:g}%):")
    for rule in rules[:10]:
        print(
            f"  {rule.source} → {rule.target}: support {rule.support:.2f}% "
            f"({rule.frequency} stories)"
        )
    if not rules:
        print("  none above the support floor")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_stories(out / "ground_truth.jsonl", [gt for gt, *_ in pairs])
    write_stories(out / "generated.jsonl", [c for _, c, *_ in pairs])
    write_transactions(out / "transactions.jsonl", transactions)
    print(f"\ncorpus written to {out}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
