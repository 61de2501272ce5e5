#!/usr/bin/env python3
"""Run the vocabulary-gap benchmark and print a comparison table.

Train and test documents describe the same topics with disjoint
vocabularies, so bag-of-words classifiers degrade to chance while
taxonomy-aware methods keep working.  Writes a JSON report and prints
a per-method precision table.
"""

import argparse
import sys

from semtax.evaluate import ExperimentConfig, MethodSpec, run_experiment
from semtax.synth import make_gap_benchmark

GAP_METHODS = (
    MethodSpec("nb_terms", "bayes", features="terms"),
    MethodSpec("winnow_terms", "winnow", features="terms"),
    MethodSpec("nb_categories", "bayes", features="categories"),
    MethodSpec("winnow_categories", "winnow", features="categories"),
    MethodSpec("semcat", "semcat"),
    MethodSpec("semcla", "semcla"),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--docs-per-side", type=int, default=210)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="gap_report.json", help="JSON report path")
    args = ap.parse_args(argv)

    bench = make_gap_benchmark(docs_per_side=args.docs_per_side, seed=args.seed)
    cfg = ExperimentConfig(
        taxonomy=bench.taxonomy,
        background=bench.background,
        train_docs=bench.train_docs,
        test_docs=bench.test_docs,
        methods=list(GAP_METHODS),
        label_categories=bench.label_categories,
        seed=args.seed,
    )
    report = run_experiment(cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(report.render_table())
    print("report written to %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
