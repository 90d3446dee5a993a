#!/usr/bin/env python3
"""Detection-threshold sweep over a scene-generation corpus.

Reads detections/targets from JSON lines when given, otherwise samples a
random corpus over the bundled street taxonomy. For each threshold the full
operation census is printed; raising the threshold discards low-confidence
detections, so insertions can only grow while generated sets shrink.
"""

from __future__ import annotations

import argparse
import random
import sys

from cee import (
    PATH_CONFIG,
    MalformedObject,
    TaxonomyError,
    census_csv,
    format_local_grouped,
    operation_census,
    random_scene_corpus,
    read_detections,
    read_targets,
    resolve_taxonomy,
    solve_thresholds,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--detections", help="detections JSONL; random corpus when omitted")
    ap.add_argument("--targets", help="target concept sets JSONL")
    ap.add_argument("--taxonomy", default="street")
    ap.add_argument("--threshold", dest="thresholds", action="append", type=float)
    ap.add_argument("--n-images", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--show-scripts", type=int, default=2, metavar="N",
                    help="print grouped edit scripts for the N worst images")
    args = ap.parse_args(argv)

    try:
        tax = resolve_taxonomy(args.taxonomy)
    except (TaxonomyError, FileNotFoundError) as exc:  # a TaxonomyError names the file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    thresholds = args.thresholds or [0.5, 0.6, 0.7]
    if args.detections and args.targets:
        try:
            detections = read_detections(args.detections, tax)
            targets = read_targets(args.targets, tax)
        except MalformedObject as exc:  # unknown concepts arrive as this too, with path:line
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.detections or args.targets:
        ap.error("--detections and --targets must be given together")
    else:
        rng = random.Random(args.seed)
        detections, targets = random_scene_corpus(rng, tax, n_images=args.n_images)
        print(f"# random corpus: {args.n_images} images over '{args.taxonomy}'")

    shown_t_d = thresholds[len(thresholds) // 2]
    report = []
    for t_d, samples, scripts in solve_thresholds(detections, targets, thresholds, tax, PATH_CONFIG):
        report.append((t_d, operation_census(scripts)))
        if t_d == shown_t_d:
            shown = list(zip(scripts, samples))
    print(census_csv(report), end="")

    inserts = [census.n_insert for _, census in report]
    trend = "non-decreasing" if inserts == sorted(inserts) else "NOT monotone"
    print(f"# inserts across thresholds: {inserts} ({trend})")

    if args.show_scripts > 0:
        scored = sorted(shown, key=lambda pair: -pair[0].total_cost)
        print(f"\n# worst images at threshold {shown_t_d:g}:")
        for script, sample in scored[: args.show_scripts]:
            print(f"image {sample.image_id} (cost {script.total_cost:g})")
            print(format_local_grouped(script))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
