#!/usr/bin/env python3
"""Exploratory sweep: how many relevant minimal siphons of the 5x5
adjacent-minors network stay relevant for a randomly sampled start?

Samples random positive initial conditions (exact rationals), runs one
``analyze`` over all of them, counts for each start the minimal siphons
relevant there (only globally relevant ones can be), and reports which
counts occur.  Run it directly:

    python scripts/chamber_relevance_sweep.py [num_samples] [seed]
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction

from crnsiphon.network import ReactionNetwork, parse_network
from crnsiphon.relevance import analyze


def grid_minors_network(n: int) -> ReactionNetwork:
    """Adjacent 2x2-minor reactions on an n x n species grid."""
    lines = [
        "species " + ", ".join(f"c{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    ]
    for i in range(1, n):
        for j in range(1, n):
            lines.append(f"c{i}{j} + c{i+1}{j+1} <-> c{i}{j+1} + c{i+1}{j}")
    return parse_network("\n".join(lines))


def main() -> None:
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)

    net = grid_minors_network(5)
    starts = [
        [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(25)]
        for _ in range(samples)
    ]
    report = analyze(net, omega_samples=starts)
    relevant = sum(1 for a in report.siphons if a.verdict.relevant)
    print(f"globally relevant minimal siphons: {relevant}")

    hits: Counter[int] = Counter(k for a in report.siphons for k in a.omega_hits or ())
    counts = Counter(hits[k] for k in range(samples))

    print("relevant-count distribution over sampled starts:")
    for count in sorted(counts):
        print(f"  {count:3d} relevant: {counts[count]} samples")
    print("counts seen:", sorted(counts))


if __name__ == "__main__":
    main()
