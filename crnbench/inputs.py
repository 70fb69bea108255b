"""Workload inputs, written as network text and option files.

Nothing here imports ``crnsiphon``: the program under test only ever
receives the files these functions write.  Every input is a pure function
of its seed.
"""

from __future__ import annotations

import random
import string
from fractions import Fraction

GRID_N = 5
CHAIN_LENGTH = 44
# The random batch is the same in every run; ``--seed`` only renames its
# species and rescales its starts.
BATCH_SEED = 4529
BATCH_SIZE = 240
BATCH_MAX_SPECIES = 10
BATCH_MAX_COMPLEXES = 6
BATCH_MAX_REACTIONS = 10
# Rescaling factors stay below 2**30 so that Python keeps them single-digit
# integers and the rescaled work costs the same as the original.
MAX_SCALE = 97


def grid_cells() -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, GRID_N + 1) for j in range(1, GRID_N + 1)]


def grid_reactions() -> list[tuple[dict[int, int], dict[int, int]]]:
    """Adjacent 2x2-minor reactions c_ij + c_(i+1)(j+1) <-> c_i(j+1) + c_(i+1)j,
    over species indices in row-major order, both directions."""
    pos = {cell: k for k, cell in enumerate(grid_cells())}
    out = []
    for i in range(1, GRID_N):
        for j in range(1, GRID_N):
            lhs = {pos[(i, j)]: 1, pos[(i + 1, j + 1)]: 1}
            rhs = {pos[(i, j + 1)]: 1, pos[(i + 1, j)]: 1}
            out.append((lhs, rhs))
            out.append((rhs, lhs))
    return out


def grid_symmetries() -> list[list[int]]:
    """The 8 rotations and reflections of the grid as index maps
    (``perm[i]`` is the image of species ``i``)."""
    m = GRID_N + 1
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
    cells = grid_cells()
    pos = {cell: k for k, cell in enumerate(cells)}
    return [[pos[f(*cell)] for cell in cells] for f in maps]


def grid_starts() -> dict[str, list[Fraction]]:
    """The paper's starts: all ones, and the center entry halved / raised by half."""
    s = GRID_N * GRID_N
    center = (GRID_N // 2) * GRID_N + GRID_N // 2
    ones = [Fraction(1)] * s
    reduced, enlarged = list(ones), list(ones)
    reduced[center] = Fraction(1, 2)
    enlarged[center] = Fraction(3, 2)
    return {"ones": ones, "reduced": reduced, "enlarged": enlarged}


def chain_reactions(s: int) -> list[tuple[dict[int, int], dict[int, int]]]:
    """Reversible chain c1 + c2 <-> c2 + c3 <-> ... on s species."""
    out = []
    for i in range(s - 2):
        lhs = {i: 1, i + 1: 1}
        rhs = {i + 1: 1, i + 2: 1}
        out.append((lhs, rhs))
        out.append((rhs, lhs))
    return out


def random_batch() -> list[tuple[int, list[tuple[dict[int, int], dict[int, int]]], list[Fraction]]]:
    """``BATCH_SIZE`` random networks as (species count, reactions, positive start).

    Complexes draw exponents from {0, 0, 0, 1, 1, 1, 2, 3} per species, with
    an occasional empty complex; reactions are distinct ordered pairs of
    distinct complexes; complexes used by no reaction are dropped.
    """
    rng = random.Random(BATCH_SEED)
    batch = []
    while len(batch) < BATCH_SIZE:
        s = rng.randint(2, BATCH_MAX_SPECIES)
        ncomp = rng.randint(2, BATCH_MAX_COMPLEXES)
        seen: set[tuple[int, ...]] = set()
        comps: list[tuple[int, ...]] = []
        guard = 0
        while len(comps) < ncomp and guard < 200:
            guard += 1
            if rng.random() < 0.05:
                exp = (0,) * s
            else:
                exp = tuple(rng.choice((0, 0, 0, 1, 1, 1, 2, 3)) for _ in range(s))
            if exp in seen:
                continue
            seen.add(exp)
            comps.append(exp)
        if len(comps) < 2:
            continue
        edges: set[tuple[int, int]] = set()
        for _ in range(3 * BATCH_MAX_REACTIONS):
            i, j = rng.randrange(len(comps)), rng.randrange(len(comps))
            if i != j and (i, j) not in edges:
                edges.add((i, j))
                if len(edges) >= rng.randint(1, BATCH_MAX_REACTIONS):
                    break
        if not edges:
            continue
        reactions = []
        for i, j in sorted(edges):
            lhs = {k: e for k, e in enumerate(comps[i]) if e}
            rhs = {k: e for k, e in enumerate(comps[j]) if e}
            reactions.append((lhs, rhs))
        c0 = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(s)]
        batch.append((s, reactions, c0))
    return batch


def species_names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct random identifiers of one fixed length."""
    names: set[str] = set()
    while len(names) < count:
        names.add("".join(rng.choice(string.ascii_lowercase) for _ in range(6)))
    order = sorted(names)  # set order of strings varies between processes
    rng.shuffle(order)
    return order


def network_text(
    names: list[str], reactions: list[tuple[dict[int, int], dict[int, int]]]
) -> str:
    """Network file with a ``species`` line pinning the coordinate order."""

    def side(terms: dict[int, int]) -> str:
        if not terms:
            return "0"
        return " + ".join(
            names[k] if c == 1 else f"{c}{names[k]}" for k, c in sorted(terms.items())
        )

    lines = ["species " + ", ".join(names)]
    lines.extend(f"{side(lhs)} -> {side(rhs)}" for lhs, rhs in reactions)
    return "\n".join(lines) + "\n"


def start_text(values: list[Fraction]) -> str:
    return ",".join(str(v) for v in values)


def scaled(values: list[Fraction], factor: int) -> list[Fraction]:
    return [v * factor for v in values]


def distinct_scales(rng: random.Random, count: int) -> list[int]:
    return rng.sample(range(2, MAX_SCALE + 1), count)
