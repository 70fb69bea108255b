"""Shared fixtures: benchmark networks, a random-network generator, and the
oracles the tests check the library against."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from crnsiphon.linalg import RowReduction, integer_row
from crnsiphon.network import (
    Complex,
    Reaction,
    ReactionNetwork,
    SpeciesTable,
    parse_network,
)
from crnsiphon.siphons import Siphon

# the grid builder lives in the sweep script, which cannot import from tests/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from chamber_relevance_sweep import grid_minors_network  # noqa: E402

RECEPTOR_LIGAND = """\
# receptor-ligand dimer model: A receptor, B dimer, C ligand, D=AC, E=BC
species A, B, C, D, E
2A + C <-> A + D
A + D <-> E
E <-> B + C
B + C <-> 2A + C
"""

ENZYME_INHIBITOR = """\
# enzymatic mechanism with an uncompetitive inhibitor
species S, E, Q, P, I, R
S + E <-> Q
Q <-> P + E
Q + I <-> R
"""

FUTILE_CYCLE = """\
# one-step conversion driven by enzyme E, reverted by enzyme F
species S0, E, X, P, F, Y
S0 + E <-> X
X -> P + E
P + F <-> Y
Y -> S0 + F
"""

TWO_SPECIES = "X <-> Y\n"

# One minimal siphon of 1,201 species, reached deeper than the interpreter's
# default recursion limit: the chain is strongly connected (the transversal
# route), the cycle with a drain is not (the search route).
DEEP_CHAIN = "\n".join(f"A{i} <-> A{i + 1}" for i in range(1200))
DEEP_DRAINED_CYCLE = "\n".join(
    [f"A{i} -> A{i + 1}" for i in range(1200)] + ["A1200 -> A0", "A0 -> B"]
)


def chain_network(s: int) -> ReactionNetwork:
    """Reversible chain c1c2 <-> c2c3 <-> ... with s species."""
    lines = [f"c{i} + c{i+1} <-> c{i+1} + c{i+2}" for i in range(1, s - 1)]
    return parse_network("\n".join(lines))


def grid_symmetries(net: ReactionNetwork, n: int) -> list[dict[int, int]]:
    """The eight rotation/reflection permutations of the n x n grid, as
    species-index maps."""
    idx = net.species.index

    def perm(f):
        return {
            idx[f"c{i}{j}"]: idx["c%d%d" % f(i, j)]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }

    m = n + 1
    return [
        perm(lambda i, j: (i, j)),
        perm(lambda i, j: (j, m - i)),
        perm(lambda i, j: (m - i, m - j)),
        perm(lambda i, j: (m - j, i)),
        perm(lambda i, j: (j, i)),
        perm(lambda i, j: (m - i, j)),
        perm(lambda i, j: (i, m - j)),
        perm(lambda i, j: (m - j, m - i)),
    ]


def random_network(
    rng: random.Random,
    max_species: int = 8,
    max_complexes: int = 6,
    max_reactions: int = 10,
    allow_zero_complex: bool = True,
) -> ReactionNetwork:
    while True:
        s = rng.randint(2, max_species)
        ncomp = rng.randint(2, max_complexes)
        seen: set[tuple[int, ...]] = set()
        comps: list[tuple[int, ...]] = []
        guard = 0
        while len(comps) < ncomp and guard < 200:
            guard += 1
            if allow_zero_complex and rng.random() < 0.05:
                exp = tuple(0 for _ in range(s))
            else:
                exp = tuple(rng.choice((0, 0, 0, 1, 1, 1, 2, 3)) for _ in range(s))
            if exp in seen:
                continue
            seen.add(exp)
            comps.append(exp)
        if len(comps) < 2:
            continue
        edges: set[tuple[int, int]] = set()
        for _ in range(3 * max_reactions):
            i, j = rng.randrange(len(comps)), rng.randrange(len(comps))
            if i != j and (i, j) not in edges:
                edges.add((i, j))
                if len(edges) >= rng.randint(1, max_reactions):
                    break
        if not edges:
            continue
        used = sorted({k for e in edges for k in e})
        remap = {old: new for new, old in enumerate(used)}
        complexes = tuple(Complex(comps[k]) for k in used)
        reactions = tuple(Reaction(remap[i], remap[j]) for i, j in sorted(edges))
        names = SpeciesTable(tuple(f"s{k}" for k in range(s)))
        net = ReactionNetwork(names, complexes, reactions)
        # normalize complex indices to first-use order, as the parser would
        from crnsiphon.network import canonical_text

        return parse_network(canonical_text(net))


# Oracles: subset enumeration for the minimal siphons, and random positive
# rates and face points for the exact field identities.

BRUTE_FORCE_LIMIT = 22


def _minimal_filter(found) -> list[int]:
    kept: list[int] = []
    for mask in sorted(set(found), key=lambda z: (z.bit_count(), z)):
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    return kept


def brute_force_minimal_siphons(net: ReactionNetwork) -> list[Siphon]:
    """Every non-empty subset that meets the siphon clauses, filtered to the
    inclusion-minimal ones, by size then members (guarded to s <= 22)."""
    s = net.num_species
    if s > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_LIMIT} species, got {s}")
    masks = [
        (sum(1 << i for i in net.reactant_support(r)), sum(1 << i for i in net.product_support(r)))
        for r in range(len(net.reactions))
    ]
    siphon_masks = [
        z for z in range(1, 1 << s) if all(not (prod & z) or (reac & z) for reac, prod in masks)
    ]
    siphons = [
        Siphon(tuple(i for i in range(s) if mask >> i & 1))
        for mask in _minimal_filter(siphon_masks)
    ]
    return sorted(siphons, key=lambda z: (len(z.members), z.members))


def random_rate_assignment(net: ReactionNetwork, rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in net.reactions)


def random_face_point(s: int, members: set[int], rng: random.Random) -> tuple[Fraction, ...]:
    """A point of the face x_Z = 0 with about a tenth of its other
    coordinates zero too."""
    point = []
    for i in range(s):
        if i in members or rng.random() < 0.1:
            point.append(Fraction(0))
        else:
            point.append(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return tuple(point)


# The Fraction route the integer kernel replaced, kept as a reference: the
# RREF's Fractions, one kernel vector per free column with 1 at that column,
# scaled to integers afterwards.


def reference_normalize_integer_vector(v, fix_sign: bool = True) -> tuple[Fraction, ...]:
    ints, _ = integer_row(v)
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    if fix_sign:
        for x in ints:
            if x != 0:
                if x < 0:
                    ints = [-y for y in ints]
                break
    return tuple(Fraction(x) for x in ints)


def reference_kernel_vectors(red: RowReduction, fix_sign: bool = True) -> list:
    cols = red.rref.cols
    zero, one = Fraction(0), Fraction(1)
    vectors = []
    for f in range(cols):
        if f in red.pivot_cols:
            continue
        vec = [zero] * cols
        vec[f] = one
        for i, pc in enumerate(red.pivot_cols):
            vec[pc] = -red.rref.entries[i][f]
        vectors.append(reference_normalize_integer_vector(vec, fix_sign))
    return vectors


@pytest.fixture(scope="session")
def receptor_ligand() -> ReactionNetwork:
    return parse_network(RECEPTOR_LIGAND)


@pytest.fixture(scope="session")
def enzyme_inhibitor() -> ReactionNetwork:
    return parse_network(ENZYME_INHIBITOR)


@pytest.fixture(scope="session")
def futile_cycle() -> ReactionNetwork:
    return parse_network(FUTILE_CYCLE)


@pytest.fixture(scope="session")
def two_species() -> ReactionNetwork:
    return parse_network(TWO_SPECIES)


@pytest.fixture(scope="session")
def grid5() -> ReactionNetwork:
    return grid_minors_network(5)
