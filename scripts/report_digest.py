#!/usr/bin/env python3
"""Digest of the command line's answers over a fixed corpus of calls.

Prints one line per ``crnsiphon`` call: the exit code, the SHA-256 of
stdout, the SHA-256 of stderr, and the argv.  The calls run in process
(``crnsiphon.cli.run``), from a scratch directory holding the input files,
so every argv and every message is the same from run to run.  Checking
that a change leaves every report byte-identical is then one diff:

    python scripts/report_digest.py --src path/to/other/checkout/src > before.txt
    python scripts/report_digest.py > after.txt
    diff before.txt after.txt

The corpus (3,343 calls): the three networks of the paper (receptor-ligand
dimer, uncompetitive inhibitor, futile cycle), a rate-labelled
receptor-ligand, a network whose cone is not pointed, the adjacent-minors
grids 3x3 to 6x6 with their 8 rotations and reflections, the reversible
chain on 44 species, seeded random networks of at most 10 species, and
calls that end in a usage, parse or budget error.  Each network is asked
for every subcommand, with integer and rational starts, sample files and
rates; the paper networks also for the undirected-binomial export.
``--quick`` (183 calls) keeps the paper networks, the rate-labelled and
the unpointed network, the 3x3 grid, 5 random networks and the error
calls, and asks for the invariance certificate of one minimal siphon of
each paper network.  ``--src`` imports ``crnsiphon``
from the given source directory instead of this checkout's.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import random
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

PAPER = {
    "receptor_ligand": """\
species A, B, C, D, E
2A + C <-> A + D
A + D <-> E
E <-> B + C
B + C <-> 2A + C
""",
    "enzyme_inhibitor": """\
species S, E, Q, P, I, R
S + E <-> Q
Q <-> P + E
Q + I <-> R
""",
    "futile_cycle": """\
species S0, E, X, P, F, Y
S0 + E <-> X
X -> P + E
P + F <-> Y
Y -> S0 + F
""",
}


# receptor-ligand with rate labels on a reversible and an irreversible line
LABELLED = """\
species A, B, C, D, E
2A + C <-> A + D ; k=bind
A + D -> E ; k=fold
E -> A + D
E <-> B + C
B + C <-> 2A + C
"""


def grid_text(n: int) -> str:
    lines = ["species " + ", ".join(f"c{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))]
    for i in range(1, n):
        for j in range(1, n):
            lines.append(f"c{i}{j} + c{i + 1}{j + 1} <-> c{i}{j + 1} + c{i + 1}{j}")
    return "\n".join(lines) + "\n"


def grid_symmetry_text(n: int) -> str:
    """The 8 rotations and reflections, one line each: the image of every
    cell, in the order of the species line."""
    m = n + 1
    maps = (
        lambda i, j: (i, j),
        lambda i, j: (j, m - i),
        lambda i, j: (m - i, m - j),
        lambda i, j: (m - j, i),
        lambda i, j: (j, i),
        lambda i, j: (m - i, j),
        lambda i, j: (i, m - j),
        lambda i, j: (m - j, m - i),
    )
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return "".join(" ".join("c%d%d" % f(i, j) for i, j in cells) + "\n" for f in maps)


def chain_text(s: int) -> str:
    return "".join(f"c{i} + c{i + 1} <-> c{i + 1} + c{i + 2}\n" for i in range(1, s - 1))


def random_text(rng: random.Random) -> str:
    """A random network on 2 to 10 species with 2 to 6 complexes."""
    s = rng.randint(2, 10)
    names = [f"X{i}" for i in range(s)]
    complexes: list[tuple[int, ...]] = []
    while len(complexes) < rng.randint(2, 6):
        exp = tuple(rng.choice((0, 0, 0, 1, 1, 1, 2, 3)) for _ in range(s))
        if exp not in complexes:
            complexes.append(exp)

    def side(exp: tuple[int, ...]) -> str:
        terms = [names[i] if e == 1 else f"{e}{names[i]}" for i, e in enumerate(exp) if e]
        return " + ".join(terms) or "0"

    edges = {(0, 1)}
    for _ in range(rng.randint(0, 9)):
        i, j = rng.randrange(len(complexes)), rng.randrange(len(complexes))
        if i != j:
            edges.add((i, j))
    lines = ["species " + ", ".join(names)]
    lines += [f"{side(complexes[i])} -> {side(complexes[j])}" for i, j in sorted(edges)]
    return "\n".join(lines) + "\n"


def species_of(text: str) -> list[str]:
    first = text.splitlines()[0]
    return [name.strip() for name in first[len("species ") :].split(",")]


def rationals(rng: random.Random, count: int) -> str:
    return ",".join(str(Fraction(rng.randint(1, 9), rng.randint(1, 4))) for _ in range(count))


def network_calls(name: str, text: str, rng: random.Random, files: dict[str, str]) -> list:
    """Every subcommand on one network, with the files they read."""
    path = f"{name}.crn"
    files[path] = text
    species = species_of(text)
    s = len(species)
    ones = ",".join(["1"] * s)
    start = rationals(rng, s)
    files[f"{name}.omega"] = "\n".join(rationals(rng, s) for _ in range(3)) + "\n"
    reactions = sum(2 if "<->" in line else 1 for line in text.splitlines()[1:])
    files[f"{name}.kappa"] = "".join(
        f"{i} {Fraction(rng.randint(1, 9), rng.randint(1, 3))}\n" for i in range(reactions)
    )
    return [
        ["parse", path],
        ["siphons", path],
        ["siphons", path, "--count-only", "--histogram"],
        ["facets", path],
        ["vertices", path, "--c0", ones],
        ["vertices", path, "--c0", start],
        ["face-dim", path, "--c0", start, "--siphon", species[0]],
        ["face-dim", path, "--c0", ones, "--siphon", ""],
        ["analyze", path],
        ["analyze", path, "--c0", ones],
        ["analyze", path, "--c0", start, "--omega", f"{name}.omega"],
        ["analyze", path, "--format", "text", "--c0", start, "--omega", f"{name}.omega"],
        ["ode", path, "--kappa", f"{name}.kappa"],
        ["invariance-check", path, "--siphon", species[-1]],
        ["export-cas", path],
        ["export-cas", path, "--flavor", "monomial", "--no-boundary"],
    ]


def grid_calls(n: int, rng: random.Random, files: dict[str, str]) -> list:
    name = f"grid{n}"
    text = grid_text(n)
    files[f"{name}.sym"] = grid_symmetry_text(n)
    if n >= 6:
        # the 6x6 grid's siphon search and vertex list take seconds each
        path = f"{name}.crn"
        files[path] = text
        ones = ",".join(["1"] * n * n)
        return [
            ["siphons", path, "--count-only", "--histogram"],
            ["facets", path],
            ["vertices", path, "--c0", ones],
            ["analyze", path, "--c0", ones, "--symmetry", f"{name}.sym"],
        ]
    calls = network_calls(name, text, rng, files)
    reduced = ",".join("1/2" if k == (n * n) // 2 else "1" for k in range(n * n))
    calls.append(["analyze", f"{name}.crn", "--c0", reduced, "--symmetry", f"{name}.sym"])
    calls.append(["analyze", f"{name}.crn", "--format", "text", "--symmetry", f"{name}.sym"])
    return calls


def error_calls(files: dict[str, str]) -> list:
    """Calls that end in a usage (1), parse (2) or budget (3) error."""
    files["bad.crn"] = "species A, B\nA + -> B\n"
    files["bad.omega"] = "1,2,3,4,5\n1,2\n"
    files["exp.omega"] = "1e1,1,1,1,1\n"
    files["bad.kappa"] = "0 1\n1\n"
    files["exp.kappa"] = "".join(f"{i} {'1e2' if i == 0 else 1}\n" for i in range(8))
    files["bad.sym"] = "A B C D\n"
    files["swap.sym"] = "B A C D E\n"
    files.setdefault("grid4.crn", grid_text(4))
    rl = "receptor_ligand.crn"
    starts = [
        "1,2",
        "1.5,1,1,1,1",
        "0,1,1,1,1",
        "-1,1,1,1,1",
        "1/0,1,1,1,1",
        "abc,1,1,1,1",
        "1e3,1,1,1,1",
        "1e-1,1,1,1,1",
        "1E5000,1,1,1,1",
        "1_000,1,1,1,1",
        "1 / 2,1,1,1,1",
        "1" * 4301 + ",1,1,1,1",
        "1/" + "7" * 4301 + ",1,1,1,1",
    ]
    calls = [["vertices", rl, "--c0", c0] for c0 in starts]
    calls += [
        [],
        ["analyze", "missing.crn"],
        ["parse", "bad.crn"],
        ["vertices", rl],
        ["analyze", rl, "--omega", "bad.omega"],
        ["analyze", rl, "--omega", "exp.omega"],
        ["ode", rl, "--kappa", "bad.kappa"],
        ["ode", rl, "--kappa", "exp.kappa"],
        ["analyze", rl, "--symmetry", "bad.sym"],
        ["analyze", rl, "--symmetry", "swap.sym"],
        ["face-dim", rl, "--c0", "1,1,1,1,1", "--siphon", "Q"],
        ["siphons", rl, "--budget-ms", "-1"],
        ["siphons", "grid4.crn", "--max-results", "1"],
        ["invariance-check", rl, "--siphon", "Q"],
    ]
    return calls


def corpus(quick: bool) -> tuple[list, dict[str, str]]:
    rng = random.Random(4529)
    files: dict[str, str] = {}
    calls = []
    for name, text in PAPER.items():
        calls += network_calls(name, text, rng, files)
        calls.append(["export-cas", f"{name}.crn", "--flavor", "undirected-binomial"])
    files["labelled.crn"] = LABELLED
    calls += [["parse", "labelled.crn"], ["analyze", "labelled.crn"]]
    # a cone that is not pointed but has a facet: C is on no conservation law
    files["unpointed.crn"] = "A <-> B\nC -> 0\n"
    calls += [["facets", "unpointed.crn"], ["analyze", "unpointed.crn", "--format", "text"]]
    if quick:
        # a minimal siphon of each paper network, so the quick corpus also
        # prints invariance certificates
        for name, siphon in zip(PAPER, ("A,B,E", "I,R", "E,X")):
            calls.append(["invariance-check", f"{name}.crn", "--siphon", siphon])
    for n in (3,) if quick else (3, 4, 5, 6):
        calls += grid_calls(n, rng, files)
    if not quick:
        files["chain44.crn"] = chain_text(44)
        calls += [
            ["siphons", "chain44.crn", "--count-only", "--histogram"],
            ["facets", "chain44.crn"],
            ["vertices", "chain44.crn", "--c0", ",".join(["1"] * 44)],
        ]
    for k in range(5 if quick else 200):
        calls += network_calls(f"random{k}", random_text(rng), rng, files)
    calls += error_calls(files)
    return calls, files


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="the small corpus")
    parser.add_argument("--src", help="import crnsiphon from this source directory")
    opts = parser.parse_args()
    src = Path(opts.src) if opts.src else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    from crnsiphon.cli import run

    calls, files = corpus(opts.quick)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for path, text in files.items():
            Path(path).write_text(text, encoding="utf-8")
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, out=out, err=err)
            digests = (hashlib.sha256(b.getvalue().encode()).hexdigest() for b in (out, err))
            print(code, *digests, shlex.join(argv))


if __name__ == "__main__":
    main()
