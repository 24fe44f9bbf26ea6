"""Tally the four relationships over every SERP pair: two exact routes and a sampler.

For depth k there are 4^k ordered pairs.  A dynamic program over walk
states counts them exactly at any depth; up to k=15 the bit-parallel
enumerator counts them outright as well, sharing no code with the DP, so
the two exact routes cross-check each other.  A chunked counter-based
sampler then estimates the mix at depths far beyond exhaustive reach.
"""

import argparse
import time

from ipso import _bits
from ipso.enumeration import EXHAUSTIVE_LIMIT, dp_counts, hasse_cover, sample_pairs


def census_row(counts):
    pct = counts.percent_strings()
    return (f"k={counts.k:<3} {counts.mode:<8} "
            f"equal {pct['equal']:>6}%  separable {pct['separable']:>6}%  "
            f"non-separable {pct['non_separable']:>6}%")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=12,
                        help="largest depth to enumerate exhaustively")
    parser.add_argument("--samples", type=int, default=1_000_000,
                        help="draws per sampled depth")
    args = parser.parse_args()

    print("exact census, dynamic program vs bit-parallel enumeration")
    for k in range(1, args.max_k + 1):
        start = time.perf_counter()
        counts = dp_counts(k)
        elapsed = time.perf_counter() - start
        if k > EXHAUSTIVE_LIMIT:
            print(f"{census_row(counts)}   [{elapsed:.3f}s, beyond enumeration]")
            continue
        eq, ni, ns, xx = _bits.relationship_counts_exact(k)
        if (counts.equal, counts.separable, counts.non_separable) != (eq, ni + ns, xx):
            raise SystemExit(f"route disagreement at k={k}")
        print(f"{census_row(counts)}   [{elapsed:.3f}s, routes agree]")

    print()
    print(f"sampled census, {args.samples:,} draws per depth")
    for k in (20, 50, 100):
        counts = sample_pairs(k, args.samples, seed=7, workers=4)
        print(census_row(counts))

    # The ni relation is a partial order on the 2^k SERPs; its Hasse
    # cover is the minimal edge set whose transitive closure recovers
    # the full dominance relation.
    print()
    edges = hasse_cover(3)
    print("Hasse cover edges at k=3 (dominant -> dominated):")
    for parent, child in edges.bitstring_pairs():
        print(f"  {parent} -> {child}")
    print("note: 100 and 011 appear in no chain together — they are the")
    print("smallest incomparable pair, and the seed of non-separability")


if __name__ == "__main__":
    main()
