#!/usr/bin/env python3
"""Measure how taxonomy loading scales with the number of categories.

For each size, write a seeded 8-ary category tree with 1.5 concepts per
category (concepts hang from random categories and draw their labels
from a pool two thirds their number, so many labels are homonyms), then
load it with ``semtax.load_taxonomy`` in a fresh Python process and
print one JSON line:

    {"categories": ..., "concepts": ..., "load_s": ...,
     "ancestor_bytes": ..., "peak_rss_mb": ..., "tracked_containers": ...}

``load_s`` is the wall time of the load and of one young-generation
collection after it.  The load pauses the cyclic collector, so the young
pass it leaves runs at the next tracked allocation, and whether that
falls inside the load or after it depends on the allocator's free lists,
not on the load's work; stopping the clock only after ``gc.collect(0)``
counts that pass in every run.  ``ancestor_bytes`` is the size of the
distinct ancestor-set ints the loaded taxonomy holds, ``peak_rss_mb``
the child process's peak resident set size, which
includes the interpreter and the imported package, and
``tracked_containers`` the number of objects the cyclic garbage
collector tracks that the load leaves behind once one young-generation
collection has untracked what it can.

    python3 scripts/taxonomy_scale.py                 # 20k, 40k and 80k
    python3 scripts/taxonomy_scale.py --sizes 5000 --seed 3
"""

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

ARITY = 8
CONCEPTS_PER_CATEGORY = 1.5


def write_taxonomy(path, n_categories, seed):
    """Write the taxonomy file of one size; return its concept count."""
    rng = random.Random("taxonomy_scale:%d:%d" % (n_categories, seed))
    n_concepts = int(n_categories * CONCEPTS_PER_CATEGORY)
    n_labels = max(1, n_concepts * 2 // 3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("C\tk0\tcategory 0\t\n")
        for i in range(1, n_categories):
            fh.write("C\tk%d\tcategory %d\tk%d\n" % (i, i, (i - 1) // ARITY))
        for j in range(n_concepts):
            fh.write("P\tp%d\tk%d\tlabel %d\n"
                     % (j, rng.randrange(n_categories), rng.randrange(n_labels)))
    return n_concepts


def measure_load(path):
    """Load one taxonomy file in this process and print its figures."""
    from semtax import load_taxonomy

    gc.collect()
    tracked_before = len(gc.get_objects())
    start = time.perf_counter()
    tax = load_taxonomy(path)
    gc.collect(0)
    load_s = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    tracked_containers = len(gc.get_objects()) - tracked_before
    distinct = {id(a): a for a in tax._anc.values()}
    print(json.dumps({
        "load_s": round(load_s, 4),
        "ancestor_bytes": sum(map(sys.getsizeof, distinct.values())),
        "peak_rss_mb": peak_rss_mb,
        "tracked_containers": tracked_containers,
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[20_000, 40_000, 80_000],
                    help="category counts to measure")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--load", help=argparse.SUPPRESS)  # child mode: load this file
    args = ap.parse_args(argv)
    if args.load:
        measure_load(args.load)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            path = os.path.join(tmp, "taxonomy_%d.tsv" % n)
            n_concepts = write_taxonomy(path, n, args.seed)
            child = subprocess.run([sys.executable, os.path.abspath(__file__), "--load", path],
                                   capture_output=True, text=True, check=True)
            row = {"categories": n, "concepts": n_concepts, **json.loads(child.stdout)}
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
