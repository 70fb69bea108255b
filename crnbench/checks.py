"""Output checks that share no code with ``crnsiphon``.

Every check works from the benchmark's own description of the network (the
species order and reaction list it wrote to the input file) and from the
text the program printed.  Siphons are tested with bitmasks, ranks and
linear solves with exact ``Fraction`` elimination, and relevance verdicts
are decided again with scipy's HiGHS on the dual question.  A check that
fails raises :class:`CheckFailed`; the caller counts that operation as
failed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from inputs import GRID_N

Reactions = list[tuple[dict[int, int], dict[int, int]]]


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact linear algebra


def exact_rank(rows: list[list]) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * p for x, p in zip(m[i], m[rank])]
        rank += 1
    return rank


def solve_unique(columns: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The unique y with sum_j y_j * columns[j] = rhs, or None when the
    columns are dependent or the system is inconsistent."""
    k = len(columns)
    m = [[Fraction(col[i]) for col in columns] + [Fraction(rhs[i])] for i in range(len(rhs))]
    for c in range(k):
        p = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * q for x, q in zip(m[i], m[c])]
    if any(m[i][k] for i in range(k, len(m))):
        return None
    return [m[i][k] for i in range(k)]


def stoichiometry(s: int, reactions: Reactions) -> list[list[int]]:
    """Reaction vectors (product minus reactant), one per reaction."""
    out = []
    for lhs, rhs in reactions:
        vec = [0] * s
        for k, c in rhs.items():
            vec[k] += c
        for k, c in lhs.items():
            vec[k] -= c
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# siphons as bitmasks


def reaction_masks(reactions: Reactions) -> list[tuple[int, int]]:
    return [
        (sum(1 << k for k in lhs), sum(1 << k for k in rhs)) for lhs, rhs in reactions
    ]


def is_siphon(z: int, masks: list[tuple[int, int]]) -> bool:
    return z != 0 and all(not (prod & z) or (reac & z) for reac, prod in masks)


def largest_siphon_within(z: int, masks: list[tuple[int, int]]) -> int:
    """Fixpoint: drop every member produced by a reaction consuming nothing
    in the set, until stable.  The result is the union of all siphons
    inside ``z``, so it is 0 exactly when ``z`` contains no siphon."""
    changed = True
    while changed:
        changed = False
        for reac, prod in masks:
            if prod & z and not reac & z:
                z &= ~prod
                changed = True
    return z


def is_minimal_siphon(z: int, masks: list[tuple[int, int]]) -> bool:
    if not is_siphon(z, masks):
        return False
    rest = z
    while rest:
        bit = rest & -rest
        rest &= rest - 1
        if largest_siphon_within(z & ~bit, masks):
            return False
    return True


def brute_force_complete(s: int, masks: list[tuple[int, int]], reported: list[int]) -> bool:
    """Whether every non-empty siphon among all 2**s subsets contains a
    reported set.  Subsets are scanned in chunks of 2**16: the low bits are
    a fixed array and the high bits a scalar per chunk."""
    lo_bits = min(s, 16)
    lo = np.arange(1 << lo_bits, dtype=np.int64)
    lo_mask = (1 << lo_bits) - 1
    no_prod = [(lo & (prod & lo_mask)) == 0 for _, prod in masks]
    has_reac = [(lo & (reac & lo_mask)) != 0 for reac, _ in masks]
    covers = [(lo & (m & lo_mask)) == (m & lo_mask) for m in reported]
    for hi in range(1 << (s - lo_bits)):
        siphon = np.ones(lo.shape, dtype=bool)
        for (reac, prod), np_lo, hr_lo in zip(masks, no_prod, has_reac):
            if (reac >> lo_bits) & hi:
                continue
            if (prod >> lo_bits) & hi:
                siphon &= hr_lo
            else:
                siphon &= np_lo | hr_lo
        if hi == 0:
            siphon[0] = False
        if not siphon.any():
            continue
        covered = np.zeros(lo.shape, dtype=bool)
        for m, cov in zip(reported, covers):
            if (m >> lo_bits) & hi == m >> lo_bits:
                covered |= cov
        if (siphon & ~covered).any():
            return False
    return True


def members_mask(names: list[str], members: list[str]) -> int:
    index = {n: i for i, n in enumerate(names)}
    require(all(m in index for m in members), f"unknown species in {members}")
    require(len(set(members)) == len(members), f"repeated species in {members}")
    return sum(1 << index[m] for m in members)


# ---------------------------------------------------------------------------
# relevance decided with HiGHS


def relevant_by_dual(stoich: list[list[int]], z: int) -> bool:
    """Z is relevant exactly when no non-negative conservation law has its
    support inside Z; by Gordan's theorem, exactly when some vector in the
    span of the reaction vectors is negative on every member of Z."""
    members = [i for i in range(len(stoich[0])) if z >> i & 1]
    a_ub = np.array([[vec[i] for vec in stoich] for i in members], dtype=float)
    res = linprog(
        np.zeros(len(stoich)),
        A_ub=a_ub,
        b_ub=-np.ones(len(members)),
        bounds=(None, None),
        method="highs",
    )
    require(res.status in (0, 2), f"HiGHS status {res.status} on relevance of {members}")
    return res.status == 0


def face_nonempty(stoich: list[list[int]], c0: list[Fraction], z: int) -> bool:
    """Whether some x = c0 + N v has x >= 0 and x_Z = 0."""
    s = len(c0)
    n = np.array(stoich, dtype=float).T  # s x r
    start = np.array([float(x) for x in c0])
    inside = [i for i in range(s) if z >> i & 1]
    outside = [i for i in range(s) if not z >> i & 1]
    res = linprog(
        np.zeros(n.shape[1]),
        A_ub=-n[outside] if outside else None,
        b_ub=start[outside] if outside else None,
        A_eq=n[inside],
        b_eq=-start[inside],
        bounds=(None, None),
        method="highs",
    )
    require(res.status in (0, 2), f"HiGHS status {res.status} on the face of {inside}")
    return res.status == 0


def face_dimension(stoich: list[list[int]], c0: list[Fraction], z: int) -> int:
    """Dimension of F = {x >= 0 : x_Z = 0, x - c0 in span N}, which must be
    non-empty (the caller has checked a point of it).

    One HiGHS LP finds the coordinates that are zero on all of F: on the
    cone {x = t c0 + N v >= 0, x_Z = 0, t >= 0}, which has the same
    non-zero coordinates as F, it maximizes the sum of u_j <= min(x_j, 1),
    and every coordinate not zero on F can reach u_j = 1.  Then
    dim F = rank N - rank of N's rows on the zero coordinates, by exact
    elimination."""
    s = len(c0)
    n = np.array(stoich, dtype=float).T
    start = np.array([float(x) for x in c0])
    inside = [i for i in range(s) if z >> i & 1]
    outside = [i for i in range(s) if not z >> i & 1]
    zero = set(inside)
    if outside:
        # variables: v (one per reaction), t, then u (one per outside coordinate)
        r, k = n.shape[1], len(outside)
        x_out = np.hstack([n[outside], start[outside, None]])
        a_ub = np.vstack([
            np.hstack([-x_out, np.zeros((k, k))]),
            np.hstack([-x_out, np.eye(k)]),
        ])
        a_eq = np.hstack([n[inside], start[inside, None], np.zeros((len(inside), k))])
        res = linprog(
            np.concatenate([np.zeros(r + 1), -np.ones(k)]),
            A_ub=a_ub, b_ub=np.zeros(2 * k),
            A_eq=a_eq if inside else None, b_eq=np.zeros(len(inside)) if inside else None,
            bounds=[(None, None)] * r + [(0, None)] + [(0, 1)] * k, method="highs",
        )
        require(res.status == 0, f"HiGHS status {res.status} on the zero coordinates of {inside}")
        zero.update(j for j, u in zip(outside, res.x[r + 1:]) if u < 0.5)
    rows_on_zero = [[vec[i] for vec in stoich] for i in sorted(zero)]
    return exact_rank(stoich) - (exact_rank(rows_on_zero) if rows_on_zero else 0)


def vertex_supports(basis: list[list[Fraction]], c0: list[Fraction]) -> set[int]:
    """Supports of the vertices of {x >= 0 : A x = A c0}, as bitmasks.  A
    set S is one exactly when A's columns on S are independent and
    A_S y = A c0 has a positive solution.  Every S of at most rank A
    species is screened in floating point, all S of one size at once; each
    candidate is then confirmed by exact elimination."""
    s = len(c0)
    rhs = [sum(a * b for a, b in zip(row, c0)) for row in basis]
    found = set() if any(rhs) else {0}
    a = np.array(basis, dtype=float).reshape(len(basis), s)
    b = np.array(rhs, dtype=float)
    for size in range(1, len(basis) + 1):
        subsets = np.array(list(combinations(range(s), size)))
        m = a[:, subsets].transpose(1, 0, 2)  # one r x size matrix per subset
        independent = np.linalg.svd(m, compute_uv=False)[:, -1] > 1e-9
        y = np.einsum("cij,j->ci", np.linalg.pinv(m), b)
        solved = np.abs(np.einsum("cij,cj->ci", m, y) - b).max(axis=1) < 1e-9
        for members in subsets[independent & solved & (y.min(axis=1) > 1e-9)]:
            exact = solve_unique([[row[i] for row in basis] for i in members], rhs)
            if exact is not None and all(v > 0 for v in exact):
                found.add(sum(1 << int(i) for i in members))
    return found


# ---------------------------------------------------------------------------
# one analyze report


class NetworkFacts:
    """What the checks know about one network, independent of naming and
    of the scale of the starts; verdicts are memoized per siphon."""

    def __init__(self, s: int, reactions: Reactions):
        self.s = s
        self.masks = reaction_masks(reactions)
        self.stoich = stoichiometry(s, reactions)
        self.law_rank = s - exact_rank(self.stoich)
        self._relevant: dict[int, bool] = {}
        self._face: dict[tuple[int, int], bool] = {}
        self._face_dim: dict[tuple[int, int], int] = {}
        self._vertices: set[int] | None = None
        self._minimal: dict[int, bool] = {}
        self._complete: dict[tuple[int, ...], bool] = {}

    def relevant(self, z: int) -> bool:
        if z not in self._relevant:
            self._relevant[z] = relevant_by_dual(self.stoich, z)
        return self._relevant[z]

    def face(self, start_id: int, c0: list[Fraction], z: int) -> bool:
        key = (start_id, z)
        if key not in self._face:
            self._face[key] = face_nonempty(self.stoich, c0, z)
        return self._face[key]

    def face_dim(self, start_id: int, c0: list[Fraction], z: int) -> int:
        key = (start_id, z)
        if key not in self._face_dim:
            self._face_dim[key] = face_dimension(self.stoich, c0, z)
        return self._face_dim[key]

    def vertices(self, basis: list[list[Fraction]], c0: list[Fraction]) -> set[int]:
        """Vertex supports at the unscaled start ``c0``; rescaling the start
        leaves them unchanged, and any basis of the conservation laws
        gives the same polytope."""
        if self._vertices is None:
            self._vertices = vertex_supports(basis, c0)
        return self._vertices

    def minimal(self, z: int) -> bool:
        if z not in self._minimal:
            self._minimal[z] = is_minimal_siphon(z, self.masks)
        return self._minimal[z]

    def siphons_complete(self, reported: list[int]) -> bool:
        key = tuple(sorted(reported))
        if key not in self._complete:
            self._complete[key] = brute_force_complete(self.s, self.masks, list(key))
        return self._complete[key]


def fractions(values: list[str]) -> list[Fraction]:
    return [Fraction(v) for v in values]


def check_conservation_basis(facts: NetworkFacts, basis: list[list[Fraction]]) -> None:
    for row in basis:
        require(len(row) == facts.s, "conservation law has the wrong length")
        for vec in facts.stoich:
            require(sum(a * b for a, b in zip(row, vec)) == 0, "basis row is not conserved")
    require(len(basis) == facts.law_rank, "conservation basis has the wrong dimension")
    require(not basis or exact_rank(basis) == len(basis), "conservation basis is dependent")


def check_face_point(basis, c0, x, z: int) -> None:
    require(len(x) == len(c0), "face point has the wrong length")
    require(all(v >= 0 for v in x), "face point is negative")
    require(all(x[i] == 0 for i in range(len(x)) if z >> i & 1), "face point not on the face")
    for row in basis:
        lhs = sum(a * b for a, b in zip(row, x))
        rhs = sum(a * b for a, b in zip(row, c0))
        require(lhs == rhs, "face point leaves the invariant polytope")


def check_report(
    facts: NetworkFacts,
    names: list[str],
    text: str,
    starts: list[tuple[int, list[Fraction], list[Fraction]]],
) -> dict:
    """Check one ``analyze`` JSON report.

    ``starts`` lists (start id, start as given, start before rescaling):
    the first is ``--c0``, the rest are the ``--omega`` samples in order.
    The start id keys the memoized HiGHS verdicts, which use the unscaled
    start so that every rescaled copy asks HiGHS the same question.
    Returns the parsed report.
    """
    report = json.loads(text)
    require(report["network"]["species"] == names, "species order changed")
    require(report["exhaustive"] is True, "enumeration not exhaustive")
    basis = [fractions(row) for row in report["conservation_basis"]]
    check_conservation_basis(facts, basis)
    siphons = report["minimal_siphons"]
    reported = [members_mask(names, z["members"]) for z in siphons]
    require(len(set(reported)) == len(reported), "a siphon is listed twice")
    for z in reported:
        require(facts.minimal(z), f"not a minimal siphon: {z:#x}")
    require(facts.siphons_complete(reported), "some minimal siphon is missing")
    c0_id, c0, c0_unscaled = starts[0]
    require(report.get("c0") == [str(v) for v in c0], "c0 echoed wrongly")
    for z, entry in zip(reported, siphons):
        witnesses = entry["witnesses"]
        # A verdict that comes with an exact witness is proved by checking
        # the witness; the opposite verdict is decided again with HiGHS.
        if entry["relevant"] is False:
            law = fractions(witnesses["conservation_law"])
            require(any(law), "conservation law is zero")
            require(all(v >= 0 for v in law), "conservation law is negative")
            require(all(law[i] == 0 for i in range(facts.s) if not z >> i & 1),
                    "conservation law leaves the siphon")
            for vec in facts.stoich:
                require(sum(a * b for a, b in zip(law, vec)) == 0, "law is not conserved")
        else:
            require(entry["relevant"] is True and facts.relevant(z),
                    f"relevance verdict wrong for {entry['members']}")
        if entry["c0_relevant"] is True:
            check_face_point(basis, c0, fractions(witnesses["face_point"]), z)
            require(isinstance(entry["face_dim"], int)
                    and entry["face_dim"] == facts.face_dim(c0_id, c0_unscaled, z),
                    f"face dimension wrong for {entry['members']}")
        else:
            require(entry["c0_relevant"] is False and not facts.face(c0_id, c0_unscaled, z),
                    f"c0 verdict wrong for {entry['members']}")
            require(entry["face_dim"] is None, "face dimension on an empty face")
        if len(starts) > 1:
            hits = [
                k for k, (sid, _, unscaled) in enumerate(starts[1:]) if facts.face(sid, unscaled, z)
            ]
            require(entry["omega_witness_samples"] == hits, f"sample hits wrong for {entry['members']}")
            require(entry["omega_relevant"] is bool(hits), "omega verdict wrong")
    return report


def check_vertices(expected: set[int], names: list[str], text: str) -> None:
    """The printed vertex supports are exactly ``expected``, each once."""
    lines = text.split("\n")
    require(lines[-1] == "", "vertices output does not end with a newline")
    printed = [members_mask(names, line.split()) for line in lines[:-1]]
    require(len(set(printed)) == len(printed), "vertex support printed twice")
    require(set(printed) == expected, "vertex supports differ from the enumeration")


# ---------------------------------------------------------------------------
# chain counts


def chain_cover_histogram(s: int) -> dict[int, int]:
    """Minimal vertex covers of the path on s vertices, counted by size.

    Scans the vertices left to right; the state is (last vertex chosen,
    last vertex still lacks a private edge).  A chosen vertex needs an
    unchosen neighbour, and no edge may have both ends unchosen.
    """
    # state -> {size: count}
    states: dict[tuple[bool, bool], dict[int, int]] = {
        (True, True): {1: 1},
        (False, False): {0: 1},
    }
    for _ in range(1, s):
        nxt: dict[tuple[bool, bool], dict[int, int]] = {}
        for (chosen, needy), hist in states.items():
            for take in (True, False):
                if not chosen and not take:
                    continue  # uncovered edge
                if chosen and needy and take:
                    continue  # the previous vertex can never get a private edge
                state = (take, take and chosen)
                target = nxt.setdefault(state, {})
                for size, count in hist.items():
                    key = size + take
                    target[key] = target.get(key, 0) + count
        states = nxt
    out: dict[int, int] = {}
    for (chosen, needy), hist in states.items():
        if chosen and needy:
            continue
        for size, count in hist.items():
            out[size] = out.get(size, 0) + count
    return dict(sorted(out.items()))


def check_chain_output(expected: dict[int, int], text: str) -> None:
    lines = text.split("\n")
    require(lines[-1] == "", "count output does not end with a newline")
    head, *rows = lines[:-1]
    require(head == f"total {sum(expected.values())}", f"wrong total: {head!r}")
    got = {}
    for row in rows:
        size, count = row.split()
        got[int(size)] = int(count)
    require(got == expected, "wrong size histogram")


def chain_recursion_holds(up_to: int) -> bool:
    totals = {s: sum(chain_cover_histogram(s).values()) for s in range(2, up_to + 1)}
    return all(totals[s] == totals[s - 2] + totals[s - 3] for s in range(5, up_to + 1))


# ---------------------------------------------------------------------------
# the paper's values on the 5x5 grid

# Representatives in the grid's c<row><column> naming, with the face
# dimension of their symmetry class at the all-ones start.
GRID_CLASSES = (
    (("c14", "c21", "c22", "c23", "c24", "c32", "c34", "c42", "c43", "c44", "c45", "c52"), 0),
    (("c14", "c24", "c31", "c32", "c33", "c34", "c42", "c43", "c44", "c45", "c52"), 1),
    (("c14", "c24", "c31", "c32", "c33", "c34", "c43", "c44", "c45", "c53"), 3),
)


def grid_mask(cells: tuple[str, ...]) -> int:
    return sum(1 << ((int(c[1]) - 1) * GRID_N + int(c[2]) - 1) for c in cells)


def permuted(z: int, perm: list[int]) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if z >> i & 1)


def orbit(z: int, symmetries: list[list[int]]) -> frozenset[int]:
    return frozenset(permuted(z, p) for p in symmetries)


def check_grid_paper_values(report: dict, names: list[str], symmetries: list[list[int]]) -> None:
    """18 relevant minimal siphons in orbits 2/8/8; face dimensions 0/1/3 for
    the three classes at the all-ones start; all 18 hit by the reduced-center
    start (sample 0); exactly the two 12-element siphons of the first class
    hit by the enlarged-center start (sample 1)."""
    siphons = report["minimal_siphons"]
    masks = [members_mask(names, z["members"]) for z in siphons]
    entry = dict(zip(masks, siphons))
    require(all(permuted(z, p) in entry for z in masks for p in symmetries),
            "siphon set is not closed under the grid symmetries")
    relevant = {z for z in masks if entry[z]["relevant"]}
    require(len(relevant) == 18, f"{len(relevant)} relevant minimal siphons, not 18")
    orbits = {orbit(z, symmetries) for z in relevant}
    require(sorted(len(o) for o in orbits) == [2, 8, 8], "relevant orbits are not 2/8/8")
    reported_orbits = {frozenset(masks[i] for i in group) for group in report["orbits"]}
    require(reported_orbits == {orbit(z, symmetries) for z in masks}, "reported orbits differ")
    for cells, dim in GRID_CLASSES:
        for z in orbit(grid_mask(cells), symmetries):
            require(z in relevant, f"class member {z:#x} missing or not relevant")
            require(entry[z]["face_dim"] == dim, f"face dimension of {z:#x} is not {dim}")
    require(all(0 in entry[z]["omega_witness_samples"] for z in relevant),
            "reduced-center start misses a relevant siphon")
    enlarged = {z for z in masks if 1 in entry[z]["omega_witness_samples"]}
    require(enlarged == orbit(grid_mask(GRID_CLASSES[0][0]), symmetries),
            "enlarged-center start does not hit exactly the two 12-element siphons")
