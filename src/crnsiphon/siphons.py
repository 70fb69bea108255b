"""Siphon predicate, minimal-siphon enumeration, and hypergraph transversals.

A siphon is a non-empty species set Z such that every reaction producing a
species of Z already consumes some species of Z.  Two enumeration routes
live here:

* the search route — depth-first search that repairs one violated
  production clause at a time; each leaf siphon is shrunk to a minimal one
  before it is recorded, and branches that contain a recorded siphon are
  pruned.
* the transversal route — for strongly connected networks the minimal
  siphons are exactly the minimal transversals of the complex supports, so
  the hypergraph dualizer below applies.

``minimal_siphons`` and ``minimal_siphon_counts`` choose between them by
strong connectivity alone.  Both routes run on explicit stacks, so no
enumeration here is bounded by the interpreter's recursion limit.

One walker, ``_walk``, dualizes hypergraphs: the MMCS search of Murakami
and Uno, which keeps, for every chosen vertex, a non-empty set of
"private" edges hit by that vertex alone; a branch is extended only while
that stays true, which makes every leaf a minimal transversal by
construction.  ``minimal_transversals`` lists the leaves.
``transversal_counts`` counts them per size without listing: a subtree
whose residual state (uncovered edges, live candidates, the private edges
still at risk) was counted before is not walked again; its tally is taken
from a table of fixed size, cleared when full, so memory does not grow
with the number of results.  ``minimal_siphon_counts`` applies it to
networks.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from crnsiphon.network import ReactionNetwork, connectivity

__all__ = [
    "Siphon",
    "SiphonViolation",
    "Budget",
    "BudgetExceededError",
    "Hypergraph",
    "TransversalTally",
    "is_siphon",
    "siphon_violation",
    "minimal_siphons",
    "minimal_siphon_counts",
    "minimal_transversals",
    "transversal_counts",
    "complex_support_hypergraph",
]


@dataclass(frozen=True, order=True)
class Siphon:
    """Non-empty, sorted tuple of species indices."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a siphon is non-empty by definition")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("siphon members must be sorted and distinct")

    def names(self, net: ReactionNetwork) -> tuple[str, ...]:
        return tuple(net.species.names[i] for i in self.members)

    @classmethod
    def from_names(cls, net: ReactionNetwork, names: Iterable[str]) -> "Siphon":
        idx = net.species.index
        return cls(tuple(sorted(idx[n] for n in names)))


@dataclass(frozen=True)
class SiphonViolation:
    reason: str
    reaction_index: int | None = None
    species: int | None = None


def siphon_violation(net: ReactionNetwork, members: Iterable[int]) -> SiphonViolation | None:
    """None if the set is a siphon, else one violated production clause."""
    z = set(members)
    if not z:
        return SiphonViolation("the empty set is not a siphon by definition")
    if any(not 0 <= i < net.num_species for i in z):
        raise ValueError("species index out of range")
    for ri in range(len(net.reactions)):
        produced = net.product_support(ri) & z
        if produced and not (net.reactant_support(ri) & z):
            return SiphonViolation(
                f"reaction {net.reaction_text(ri)} produces a member but consumes none",
                reaction_index=ri,
                species=min(produced),
            )
    return None


def is_siphon(net: ReactionNetwork, members: Iterable[int]) -> bool:
    return siphon_violation(net, members) is None


# ---------------------------------------------------------------------------
# budgets


@dataclass(frozen=True)
class Budget:
    """Enumeration limits; None means unlimited."""

    max_results: int | None = None
    max_ms: int | None = None


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration hits its budget.

    ``partial`` holds whatever was found before the limit; it is not
    exhaustive.
    """

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class _BudgetClock:
    __slots__ = ("deadline", "max_results", "emitted", "ticks")

    def __init__(self, budget: Budget | None):
        self.deadline = None
        self.max_results = None
        if budget is not None:
            if budget.max_ms is not None:
                self.deadline = time.monotonic() + budget.max_ms / 1000.0
            self.max_results = budget.max_results
        self.emitted = 0
        self.ticks = 0

    def note_result(self, n: int = 1):
        self.emitted += n
        if self.max_results is not None and self.emitted > self.max_results:
            raise _BudgetSignal("result limit exceeded")

    def tick(self):
        self.ticks += 1
        if self.deadline is not None and self.ticks % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise _BudgetSignal("time limit exceeded")


class _BudgetSignal(Exception):
    pass


# ---------------------------------------------------------------------------
# hypergraph transversals


@dataclass(frozen=True)
class Hypergraph:
    num_vertices: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        for e in self.edges:
            if not e:
                raise ValueError("hypergraph edges must be non-empty")
            if any(not 0 <= v < self.num_vertices for v in e):
                raise ValueError("edge vertex out of range")


@dataclass(frozen=True)
class TransversalTally:
    by_size: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.by_size.values())


def _edges_at(num_vertices: int, edge_vertex_masks: list[int]) -> list[int]:
    """``edges_at[v]``: edge-id mask of the edges containing vertex v."""
    edges_at = [0] * num_vertices
    for eid, vmask in enumerate(edge_vertex_masks):
        rest = vmask
        while rest:
            low = rest & -rest
            edges_at[low.bit_length() - 1] |= 1 << eid
            rest &= rest - 1
    return edges_at


def _edge_masks(h: Hypergraph) -> list[int]:
    return [sum(1 << v for v in e) for e in h.edges]


# Residual states whose subtree tallies are kept for reuse.  The table is
# cleared when it reaches this many entries, so the memory of a count does
# not grow with the number of results.
_COUNT_MEMO_LIMIT = 1 << 15


def _walk(
    num_vertices: int,
    edge_vertex_masks: list[int],
    clock: _BudgetClock,
    tallies: list[tuple[int, dict[int, int]]],
    emit: Callable[[list[int]], None] | None = None,
) -> None:
    """Count the minimal hitting sets of the given edges per size and, when
    ``emit`` is given, pass each of them to it once.

    The MMCS walk (Murakami and Uno), on an explicit stack so that depth is
    not bounded by the interpreter's recursion limit.  Bitmask conventions:
    vertex sets are ints over vertex bits; edge sets (``uncov``, the private
    edges) are ints over *edge-id* bits.  Every private edge belongs to
    exactly one chosen vertex, so ``owner`` maps edge bits to that vertex
    and the minimality check on adding v touches only the owners of the
    edges v would steal, not the whole chosen set.  ``chosen`` is the path
    to the current node; a leaf emits it with the leaf's vertex appended.

    The transversals below a node are those of the residual problem: cover
    the uncovered edges from the candidates while no chosen vertex loses
    its last private edge.  That problem is fixed by the *residual state*:
    the uncovered edges, the live candidates (those in some uncovered edge)
    and the private-edge masks of the chosen vertices the live candidates
    could still strip of every private edge; a chosen vertex with a private
    edge that no live candidate meets can never lose it, and drops out of
    the state for good.  Equal states have equal per-size tallies shifted
    by the depth, so when counting, each branching node looks its state up
    in a bounded table and reuses the tally of an earlier subtree.  When
    listing there is no table: a reused subtree's transversals would have
    to be emitted again.  Forced nodes (one candidate on the branching
    edge) are not memoized, and the leaves below a node with one uncovered
    edge left are taken directly.  Which edge a node branches on decides
    only the speed: the transversals below a node are the same whichever
    uncovered edge splits them.

    ``tallies`` holds one ``(depth, per-size tally relative to depth)`` pair
    for the root and for every open memoized node; their shifted sum is the
    count so far, which is what a budget overrun reports.  Each leaf is
    noted on the clock before it is emitted, so a result-limit overrun has
    emitted exactly the limit.
    """
    masks = edge_vertex_masks
    m = len(masks)
    if m == 0:
        tallies[0][1][0] = 1
        if emit is not None:
            emit([])
        return
    edges_at = _edges_at(num_vertices, masks)
    by_size: dict[int, int] = {}
    for eid, vmask in enumerate(masks):
        k = vmask.bit_count()
        by_size[k] = by_size.get(k, 0) | 1 << eid
    size_classes = sorted(by_size.items())

    chosen: list[int] = []
    crit: dict[int, int] = {}  # chosen vertex -> edge-id mask of its private edges
    owner: dict[int, int] = {}  # edge bit -> owning vertex (stale entries unread)
    memo: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
    tick = clock.tick
    note_result = clock.note_result
    stack: list[list] = []

    def visit(uncov, cand, touched, live, critical, relevant) -> bool:
        """Expand a node with an uncovered edge; True if it pushed a frame.

        ``touched``: a superset of the edges that meet a vertex outside
        ``cand``.  An uncovered edge outside it keeps all its vertices as
        candidates, so only touched edges need a scan.  ``live``: vertices
        in some uncovered edge.  ``critical``: the union of the private
        edges.
        """
        tick()
        # Pick an edge with the fewest candidates; one with none kills the
        # branch, one with a single candidate is forced.
        best_count = 0
        best_edge = 0
        rest = uncov & touched
        while rest:
            low = rest & -rest
            rest ^= low
            c = (masks[low.bit_length() - 1] & cand).bit_count()
            if c == 0:
                return False
            if best_count == 0 or c < best_count:
                best_count, best_edge = c, low
                if c == 1:
                    break
        if best_count != 1:
            rest = uncov & ~touched
            for k, cls in size_classes:
                if best_count and k >= best_count:
                    break
                if rest & cls:
                    low = rest & cls
                    best_count, best_edge = k, low & -low
                    break
        inter = masks[best_edge.bit_length() - 1] & cand
        depth = len(chosen)
        if uncov == best_edge:
            # the last uncovered edge: every child is a leaf, and taking
            # them here is cheaper than a table entry
            leaves = []
            rest = inter
            while rest:
                vbit = rest & -rest
                rest ^= vbit
                v = vbit.bit_length() - 1
                if stays_minimal(edges_at[v], critical):
                    tick()
                    leaves.append(v)
            if leaves:
                base, acc = tallies[-1]
                acc[depth + 1 - base] = acc.get(depth + 1 - base, 0) + len(leaves)
                for v in leaves:
                    note_result()
                    if emit is not None:
                        emit(chosen + [v])
            return False
        key = None
        if best_count > 1 and emit is None:
            live_cand = cand & live
            kept = []
            for u in relevant:
                rest = crit[u]
                while rest:
                    low = rest & -rest
                    if not masks[low.bit_length() - 1] & live_cand:
                        break
                    rest ^= low
                else:
                    kept.append(u)
            relevant = tuple(kept)
            key = (uncov, live_cand, *sorted([crit[u] for u in relevant]))
            hit = memo.get(key)
            if hit is not None:
                base, acc = tallies[-1]
                shift = depth - base
                found = 0
                for k, c in hit:
                    acc[k + shift] = acc.get(k + shift, 0) + c
                    found += c
                note_result(found)
                return False
            tallies.append((depth, {}))
        # each child leaves the branching vertices after its own out of its
        # candidates; all of them is a superset
        verts = []
        rest = inter
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            verts.append(v)
            touched |= edges_at[v]
        stack.append([uncov, cand & ~inter, live, critical, relevant, verts, touched, 0, key, None])
        return True

    def stays_minimal(steal: int, critical: int) -> bool:
        """No chosen vertex has all its private edges in ``steal``."""
        rest = steal & critical
        while rest:
            low = rest & -rest
            private = crit[owner[low]]
            if not private & ~steal:
                return False
            rest &= ~private
        return True

    all_vertices = 0
    for vmask in masks:
        all_vertices |= vmask
    visit((1 << m) - 1, (1 << num_vertices) - 1, 0, all_vertices, 0, ())
    while stack:
        frame = stack[-1]
        uncov, cand, live, critical, relevant, verts, touched, i, key, saved = frame
        if saved is not None:
            # back from the subtree of the last child: undo its choice
            v = chosen.pop()
            del crit[v]
            for u, private in saved:
                crit[u] = private
        depth = len(chosen)
        base, acc = tallies[-1]
        n = len(verts)
        while i < n:
            v = verts[i]
            child_cand = cand
            cand |= 1 << v
            i += 1
            steal = edges_at[v]
            if not stays_minimal(steal, critical):
                continue
            child_uncov = uncov & ~steal
            if not child_uncov:
                tick()
                acc[depth + 1 - base] = acc.get(depth + 1 - base, 0) + 1
                note_result()
                if emit is not None:
                    emit(chosen + [v])
                continue
            saved = []
            rest = steal & critical
            while rest:
                low = rest & -rest
                u = owner[low]
                private = crit[u]
                saved.append((u, private))
                crit[u] = private & ~steal
                rest &= ~private
            covered = uncov & steal
            crit[v] = covered
            rest = covered
            freed = 0
            while rest:
                low = rest & -rest
                rest ^= low
                owner[low] = v
                freed |= masks[low.bit_length() - 1]
            child_live = live
            rest = freed & live
            while rest:
                low = rest & -rest
                rest ^= low
                if not edges_at[low.bit_length() - 1] & child_uncov:
                    child_live ^= low
            chosen.append(v)
            if visit(
                child_uncov, child_cand, touched, child_live,
                (critical & ~steal) | covered, relevant + (v,),
            ):
                frame[1] = cand
                frame[7] = i
                frame[9] = saved
                break
            chosen.pop()
            del crit[v]
            for u, private in saved:
                crit[u] = private
        else:
            stack.pop()
            if key is not None:
                tallies.pop()
                if len(memo) >= _COUNT_MEMO_LIMIT:
                    memo.clear()
                memo[key] = tuple(acc.items())
                parent_base, parent_acc = tallies[-1]
                shift = depth - parent_base
                for k, c in acc.items():
                    parent_acc[k + shift] = parent_acc.get(k + shift, 0) + c


def minimal_transversals(h: Hypergraph, budget: Budget | None = None) -> list[frozenset[int]]:
    """All minimal hitting sets, sorted by (size, members).

    Listed by the walk of ``transversal_counts`` without its table (see
    ``_walk``).  Budget ticks are expanded nodes; an overrun's partial holds
    the transversals listed so far, exactly ``max_results`` of them when
    the result limit is hit.
    """
    out: list[frozenset[int]] = []
    try:
        _walk(
            h.num_vertices, _edge_masks(h), _BudgetClock(budget), [(0, {})],
            lambda chosen: out.append(frozenset(chosen)),
        )
    except _BudgetSignal as sig:
        raise BudgetExceededError(str(sig), list(out)) from None
    out.sort(key=lambda t: (len(t), sorted(t)))
    return out


def _shifted_sum(tallies: list[tuple[int, dict[int, int]]]) -> TransversalTally:
    by_size: dict[int, int] = {}
    for base, acc in tallies:
        for k, c in acc.items():
            by_size[base + k] = by_size.get(base + k, 0) + c
    return TransversalTally(dict(sorted(by_size.items())))


def transversal_counts(h: Hypergraph, budget: Budget | None = None) -> TransversalTally:
    """Count minimal hitting sets per size without listing them.

    Subtrees with equal residual states are counted once (see
    ``_walk``).  Budget ticks are expanded nodes, and the result
    limit counts the transversals of a reused subtree too; an overrun's
    partial tally holds every transversal counted so far.
    """
    tallies: list[tuple[int, dict[int, int]]] = [(0, {})]
    try:
        _walk(h.num_vertices, _edge_masks(h), _BudgetClock(budget), tallies)
    except _BudgetSignal as sig:
        raise BudgetExceededError(str(sig), _shifted_sum(tallies)) from None
    return _shifted_sum(tallies)


# ---------------------------------------------------------------------------
# minimal siphons


def _reaction_masks(net: ReactionNetwork) -> list[tuple[int, int]]:
    masks = []
    for ri in range(len(net.reactions)):
        reac = sum(1 << i for i in net.reactant_support(ri))
        prod = sum(1 << i for i in net.product_support(ri))
        masks.append((reac, prod))
    return masks


def _mask_to_siphon(mask: int) -> Siphon:
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask &= mask - 1
    return Siphon(tuple(members))


def _by_size(siphons: Iterable[Siphon]) -> list[Siphon]:
    return sorted(siphons, key=lambda z: (len(z.members), z.members))


def _sorted_siphons(masks: Iterable[int]) -> list[Siphon]:
    return _by_size(map(_mask_to_siphon, masks))


def _largest_siphon_in(z: int, masks: list[tuple[int, int]]) -> int:
    """Largest siphon inside the species mask ``z`` (0 when there is none).

    Siphons are closed under union, so the largest one exists; it is the
    fixpoint of dropping every species that a reaction produces while
    consuming nothing left in the set.
    """
    changed = True
    while changed:
        changed = False
        for reac, prod in masks:
            if prod & z and not reac & z:
                z &= ~prod
                changed = True
    return z


def _shrink_to_minimal(z: int, masks: list[tuple[int, int]]) -> int:
    """A minimal siphon inside the siphon ``z``.

    Each member v is tried once: z moves to the largest siphon inside z
    without v when that is non-empty.  A member whose try fails stays
    necessary for every smaller siphon, so one pass leaves a siphon from
    which no member can be dropped.
    """
    rest = z
    while rest:
        vbit = rest & -rest
        rest &= rest - 1
        if z & vbit:
            inner = _largest_siphon_in(z & ~vbit, masks)
            if inner:
                z = inner
    return z


def _search_minimal_siphons(net: ReactionNetwork, budget: Budget | None) -> list[int]:
    """Minimal siphons as species masks, in the order they are found.

    Depth-first from each seed species, adding one reactant of a violated
    production clause at a time (only species past the seed, so each
    minimal siphon is reached from its least member).  A leaf is a siphon,
    shrunk to a minimal one before it is recorded, so ``found`` holds only
    minimal siphons and a node containing one of them is pruned: no other
    minimal siphon lies below it.  The search runs on an explicit stack, so
    its depth is not bounded by the interpreter's recursion limit; children
    are pushed in reverse and checked when popped, which keeps the order of
    a recursive search.  A budget overrun's partial holds the masks found
    so far.
    """
    masks = _reaction_masks(net)
    clock = _BudgetClock(budget)
    tick = clock.tick
    found: list[int] = []
    try:
        for seed in range(net.num_species):
            allowed = ~((1 << seed) - 1)
            visited: set[int] = set()
            stack = [1 << seed]
            while stack:
                z = stack.pop()
                tick()
                if z in visited:
                    continue
                visited.add(z)
                for f in found:
                    if f & z == f:
                        break
                else:
                    # the violated clause with the fewest options; one with
                    # none leaves ``best`` empty, a dead end
                    best = None
                    best_count = 0
                    for reac, prod in masks:
                        if prod & z and not reac & z:
                            options = reac & allowed
                            c = options.bit_count()
                            if best is None or c < best_count:
                                best, best_count = options, c
                                if c <= 1:
                                    break
                    if best is None:
                        clock.note_result()
                        found.append(_shrink_to_minimal(z, masks))
                    # highest bit first, so the lowest is popped first
                    while best:
                        top = 1 << (best.bit_length() - 1)
                        best ^= top
                        stack.append(z | top)
    except _BudgetSignal as sig:
        raise BudgetExceededError(str(sig), list(found)) from None
    return found


def complex_support_hypergraph(net: ReactionNetwork) -> Hypergraph:
    """Hypergraph whose edges are the supports of the network's complexes."""
    supports = [c.support for c in net.complexes]
    if any(not sup for sup in supports):
        raise ValueError("the empty complex has an empty support")
    return Hypergraph(net.num_species, tuple(dict.fromkeys(supports)))


def _finished(enumerate_: Callable[[], object], finish: Callable):
    """``finish(enumerate_())``; a budget overrun's partial is finished the
    same way, so it has the form of the result."""
    try:
        found = enumerate_()
    except BudgetExceededError as exc:
        raise BudgetExceededError(str(exc), finish(exc.partial)) from None
    return finish(found)


def _tally(sizes: Iterable[int]) -> TransversalTally:
    return TransversalTally(dict(sorted(Counter(sizes).items())))


def _search_route(net: ReactionNetwork, budget: Budget | None, count: bool):
    """The minimal siphons by search, sorted, or (``count``) their per-size
    tally."""

    def finish(found):
        return _tally(z.bit_count() for z in found) if count else _sorted_siphons(found)

    return _finished(lambda: _search_minimal_siphons(net, budget), finish)


def _transversal_route(net: ReactionNetwork, budget: Budget | None, count: bool):
    """The minimal siphons of a strongly connected network, sorted, or
    (``count``) their per-size tally.

    There a set of *occurring* species is a siphon exactly when it meets the
    support of every complex.  A species appearing in no complex is produced
    by nothing, so it is a minimal siphon on its own.  The rest are the
    minimal transversals of the complex supports, or none at all when the
    empty support of a zero complex cannot be hit.
    """
    used: set[int] = set()
    for c in net.complexes:
        used |= c.support
    singletons = [Siphon((i,)) for i in range(net.num_species) if i not in used]

    def finish(found):
        if count:
            return _plus_singletons(found, len(singletons))
        return _by_size(singletons + [Siphon(tuple(sorted(t))) for t in found])

    if any(c.is_zero for c in net.complexes):
        return finish(TransversalTally() if count else [])
    enumerate_ = transversal_counts if count else minimal_transversals
    return _finished(lambda: enumerate_(complex_support_hypergraph(net), budget), finish)


def _plus_singletons(tally: TransversalTally, n: int) -> TransversalTally:
    if not n:
        return tally
    by_size = dict(tally.by_size)
    by_size[1] = by_size.get(1, 0) + n
    return TransversalTally(dict(sorted(by_size.items())))


def _by_route(net: ReactionNetwork, budget: Budget | None, count: bool):
    """The route is chosen from the network alone: transversals when it is
    strongly connected, the search otherwise."""
    route = _transversal_route if connectivity(net).is_strongly_connected else _search_route
    return route(net, budget, count)


def minimal_siphon_counts(net: ReactionNetwork, budget: Budget | None = None) -> TransversalTally:
    """Minimal siphons counted per size, by the route of ``minimal_siphons``.

    The transversal route counts without listing (``transversal_counts``);
    the search route lists the siphons and tallies them.  A budget overrun
    carries the partial tally.
    """
    return _by_route(net, budget, count=True)


def minimal_siphons(net: ReactionNetwork, budget: Budget | None = None) -> list[Siphon]:
    """All inclusion-minimal siphons, sorted by (size, members).

    A strongly connected network takes the transversal route (see
    ``_transversal_route``), any other the search.  A budget overrun
    carries the minimal siphons found so far.
    """
    return _by_route(net, budget, count=False)
