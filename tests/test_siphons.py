"""Siphon predicate, minimal-siphon enumeration, hypergraph transversals."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import (
    DEEP_CHAIN,
    DEEP_DRAINED_CYCLE,
    brute_force_minimal_siphons,
    chain_network,
    grid_minors_network,
    random_network,
)
from crnsiphon.network import (
    Complex,
    ReactionNetwork,
    SpeciesTable,
    connectivity,
    parse_network,
)
from crnsiphon.siphons import (
    Budget,
    BudgetExceededError,
    Hypergraph,
    Siphon,
    TransversalTally,
    _search_route,
    _transversal_route,
    complex_support_hypergraph,
    is_siphon,
    minimal_siphon_counts,
    minimal_siphons,
    minimal_transversals,
    siphon_violation,
    transversal_counts,
)


def by_search(net, budget=None, count=False):
    """The search route, whatever the network's connectivity."""
    return _search_route(net, budget, count)


def by_transversals(net, count=False):
    """The transversal route; valid for strongly connected networks only."""
    return _transversal_route(net, None, count)


def names_of(net, siphons):
    return [z.names(net) for z in siphons]


class TestIsSiphon:
    def test_receptor_ligand_members(self, receptor_ligand):
        net = receptor_ligand
        assert is_siphon(net, Siphon.from_names(net, ["A", "B", "E"]).members)
        assert is_siphon(net, range(net.num_species))

    def test_violation_names_the_reaction(self, receptor_ligand):
        net = receptor_ligand
        v = siphon_violation(net, [net.species.index["E"]])
        assert v is not None
        # E is produced by A + D -> E whose reactant misses {E}
        assert v.species == net.species.index["E"]
        assert "A + D -> E" in v.reason

    def test_empty_set(self, receptor_ligand):
        v = siphon_violation(receptor_ligand, [])
        assert v is not None and "empty" in v.reason

    def test_single_species_network(self):
        net = parse_network("2A -> A")
        assert minimal_siphons(net) == [Siphon((0,))]

    def test_x_to_y(self):
        net = parse_network("X -> Y")
        assert not is_siphon(net, [1])  # X -> Y produces Y from no member
        assert is_siphon(net, [0])
        assert names_of(net, minimal_siphons(net)) == [("X",)]

    def test_zero_complex_kills_product_siphons(self):
        net = parse_network("0 -> A\nA -> 0")
        assert not is_siphon(net, [0])
        assert minimal_siphons(net) == []
        assert brute_force_minimal_siphons(net) == []


class TestMinimalSiphonsPaperNetworks:
    def test_receptor_ligand(self, receptor_ligand):
        expected = [("A", "B", "E"), ("A", "C", "E"), ("C", "D", "E")]
        assert names_of(receptor_ligand, minimal_siphons(receptor_ligand)) == expected

    def test_enzyme_inhibitor(self, enzyme_inhibitor):
        got = {frozenset(t) for t in names_of(enzyme_inhibitor, minimal_siphons(enzyme_inhibitor))}
        assert got == {
            frozenset({"E", "Q", "R"}),
            frozenset({"I", "R"}),
            frozenset({"P", "Q", "R", "S"}),
        }

    def test_futile_cycle(self, futile_cycle):
        got = {frozenset(t) for t in names_of(futile_cycle, minimal_siphons(futile_cycle))}
        assert got == {
            frozenset({"E", "X"}),
            frozenset({"F", "Y"}),
            frozenset({"P", "S0", "X", "Y"}),
        }


class TestOracleEquivalence:
    def test_search_equals_brute_force_on_paper_networks(
        self, receptor_ligand, enzyme_inhibitor, futile_cycle
    ):
        for net in (receptor_ligand, enzyme_inhibitor, futile_cycle):
            assert by_search(net) == brute_force_minimal_siphons(net)

    def test_search_equals_brute_force_on_random_networks(self):
        rng = random.Random(101)
        for _ in range(80):
            net = random_network(rng, max_species=9)
            assert by_search(net) == brute_force_minimal_siphons(net)

    def test_fast_path_equals_search_when_strongly_connected(self):
        rng = random.Random(55)
        checked = 0
        for _ in range(400):
            net = random_network(rng, max_species=8, allow_zero_complex=False)
            if not connectivity(net).is_strongly_connected:
                continue
            checked += 1
            assert by_transversals(net) == by_search(net)
        assert checked >= 10

    def test_outputs_are_siphons_and_incomparable(self):
        rng = random.Random(77)
        for _ in range(40):
            net = random_network(rng)
            found = minimal_siphons(net)
            for z in found:
                assert is_siphon(net, z.members)
            for a, b in itertools.combinations(found, 2):
                assert not set(a.members) <= set(b.members)
                assert not set(b.members) <= set(a.members)

    def test_upward_closure_contains_minimal(self):
        # every siphon found by random sampling contains a returned minimal one
        rng = random.Random(78)
        for _ in range(20):
            net = random_network(rng, max_species=8)
            found = minimal_siphons(net)
            for _ in range(30):
                subset = [i for i in range(net.num_species) if rng.random() < 0.5]
                if subset and is_siphon(net, subset):
                    assert any(set(z.members) <= set(subset) for z in found)

    def test_relabeling_equivariance(self):
        rng = random.Random(79)
        for _ in range(25):
            net = random_network(rng, max_species=7)
            s = net.num_species
            perm = list(range(s))
            rng.shuffle(perm)  # perm[i] = new index of old species i
            permuted = ReactionNetwork(
                SpeciesTable(tuple(f"t{k}" for k in range(s))),
                tuple(
                    Complex(tuple(c.exponents[perm.index(k)] for k in range(s)))
                    for c in net.complexes
                ),
                net.reactions,
            )
            expected = sorted(
                Siphon(tuple(sorted(perm[i] for i in z.members)))
                for z in minimal_siphons(net)
            )
            assert sorted(minimal_siphons(permuted)) == expected


class TestBudgets:
    def test_max_results(self):
        net = chain_network(20)
        with pytest.raises(BudgetExceededError) as exc:
            minimal_siphons(net, Budget(max_results=5))
        assert len(exc.value.partial) == 5

    def test_time_limit(self):
        net = chain_network(40)
        with pytest.raises(BudgetExceededError):
            minimal_siphons(net, Budget(max_ms=30))

    def test_search_budget(self, futile_cycle):
        with pytest.raises(BudgetExceededError):
            by_search(futile_cycle, Budget(max_results=1))

    def test_search_partial_holds_only_minimal_siphons(self, grid5):
        # grid5 has exactly 28 minimal siphons and takes the search route
        full = minimal_siphons(grid5)
        assert len(full) == 28
        assert minimal_siphons(grid5, Budget(max_results=28)) == full
        with pytest.raises(BudgetExceededError) as exc:
            minimal_siphons(grid5, Budget(max_results=27))
        partial = exc.value.partial
        assert len(partial) == 27
        assert set(partial) <= set(full)

    def test_transversal_partial_holds_exactly_the_limit(self):
        h = complex_support_hypergraph(grid_minors_network(6))
        full = set(minimal_transversals(h))
        for k in (1, 10, 1000):
            with pytest.raises(BudgetExceededError) as exc:
                minimal_transversals(h, Budget(max_results=k))
            partial = exc.value.partial
            assert len(partial) == len(set(partial)) == k
            assert set(partial) <= full

    def test_brute_force_guard(self):
        net = chain_network(23)
        with pytest.raises(ValueError, match="limited to"):
            brute_force_minimal_siphons(net)


def brute_force_transversals(h: Hypergraph) -> set[frozenset[int]]:
    hits = []
    for bits in range(1 << h.num_vertices):
        t = {v for v in range(h.num_vertices) if bits >> v & 1}
        if all(t & e for e in h.edges):
            hits.append(frozenset(t))
    return {t for t in hits if not any(o < t for o in hits)}


def berge_transversals(h: Hypergraph) -> set[frozenset[int]]:
    """Berge's dualization, one edge at a time: extend each minimal
    transversal of the edges so far that misses the next edge by each of
    its vertices, then keep the minimal sets.  Shares no code with MMCS."""
    found = [frozenset()]
    for e in h.edges:
        grown = set()
        for t in found:
            grown.update([t] if t & e else (t | {v} for v in e))
        found = []
        for t in sorted(grown, key=len):
            if not any(o <= t for o in found):
                found.append(t)
    return set(found)


class TestTransversals:
    def test_chain_five(self):
        h = Hypergraph(5, tuple(frozenset(e) for e in [{0, 1}, {1, 2}, {2, 3}, {3, 4}]))
        got = set(minimal_transversals(h))
        assert got == {
            frozenset({1, 3}),
            frozenset({0, 2, 4}),
            frozenset({1, 2, 4}),
            frozenset({0, 2, 3}),
        }

    def test_single_edge(self):
        h = Hypergraph(2, (frozenset({0, 1}),))
        assert set(minimal_transversals(h)) == {frozenset({0}), frozenset({1})}

    def test_no_edges(self):
        h = Hypergraph(3, ())
        assert minimal_transversals(h) == [frozenset()]

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Hypergraph(2, (frozenset(),))

    def test_matches_brute_force_on_random_hypergraphs(self):
        rng = random.Random(202)
        for _ in range(120):
            n = rng.randint(1, 9)
            m = rng.randint(0, 7)
            edges = []
            for _ in range(m):
                e = frozenset(v for v in range(n) if rng.random() < 0.4)
                if e:
                    edges.append(e)
            h = Hypergraph(n, tuple(edges))
            assert set(minimal_transversals(h)) == brute_force_transversals(h)

    def test_counts_agree_with_enumeration(self):
        rng = random.Random(203)
        for _ in range(40):
            n = rng.randint(2, 8)
            edges = []
            for _ in range(rng.randint(1, 6)):
                e = frozenset(v for v in range(n) if rng.random() < 0.5)
                if e:
                    edges.append(e)
            h = Hypergraph(n, tuple(edges))
            listed = minimal_transversals(h)
            tally = transversal_counts(h)
            assert tally.total == len(listed)
            sizes = {}
            for t in listed:
                sizes[len(t)] = sizes.get(len(t), 0) + 1
            assert tally.by_size == sizes

    def test_chain_recursion_small(self):
        # minimal-cover counts of the reversible chain follow
        # N(s) = N(s-2) + N(s-3) with N(2) = N(3) = 2, N(4) = 3
        counts = {2: transversal_counts(Hypergraph(2, (frozenset({0, 1}),))).total}
        for s in range(3, 16):
            counts[s] = transversal_counts(
                complex_support_hypergraph(chain_network(s))
            ).total
        assert counts[2] == 2 and counts[3] == 2 and counts[4] == 3
        for s in range(5, 16):
            assert counts[s] == counts[s - 2] + counts[s - 3]

    def test_count_budget(self):
        h = complex_support_hypergraph(chain_network(25))
        with pytest.raises(BudgetExceededError):
            transversal_counts(h, Budget(max_results=10))


def size_tally(transversals) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for t in transversals:
        sizes[len(t)] = sizes.get(len(t), 0) + 1
    return dict(sorted(sizes.items()))


def cycle(n: int, offset: int = 0) -> list[frozenset[int]]:
    return [frozenset({offset + i, offset + (i + 1) % n}) for i in range(n)]


def grid_graph(rows: int, cols: int, offset: int = 0) -> list[frozenset[int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = offset + r * cols + c
            if c + 1 < cols:
                edges.append(frozenset({v, v + 1}))
            if r + 1 < rows:
                edges.append(frozenset({v, v + cols}))
    return edges


def path_cover_histogram(s: int) -> dict[int, int]:
    """Per-size counts of the minimal vertex covers of the path on s vertices.

    A cover's complement is a maximal independent set: its first vertex is
    0 or 1, consecutive members are 2 or 3 apart, and its last vertex is
    s - 1 or s - 2.  ``ends[p]`` tallies such sets ending at p by size.
    """
    ends: list[dict[int, int]] = [{1: 1}, {1: 1}]
    for p in range(2, s):
        row: dict[int, int] = {}
        for q in (p - 2, p - 3):
            if q >= 0:
                for k, c in ends[q].items():
                    row[k + 1] = row.get(k + 1, 0) + c
        ends.append(row)
    covers: dict[int, int] = {}
    for row in (ends[s - 1], ends[s - 2]):
        for k, c in row.items():
            covers[s - k] = covers.get(s - k, 0) + c
    return dict(sorted(covers.items()))


@pytest.fixture(scope="module")
def chain2100():
    return complex_support_hypergraph(chain_network(2100))


class TestTransversalCounts:
    """The count and the listing against Berge's dualization and each
    other, and the count against closed forms."""

    def assert_counts_match(self, h: Hypergraph) -> None:
        expected = berge_transversals(h)
        listed = minimal_transversals(h)
        tally = transversal_counts(h)
        assert len(listed) == len(expected) and set(listed) == expected
        assert tally.total == len(expected)
        assert tally.by_size == size_tally(expected)
        assert tally.total == len(listed)
        assert tally.by_size == size_tally(listed)

    def test_cycles(self):
        for n in range(3, 15):
            self.assert_counts_match(Hypergraph(n, tuple(cycle(n))))

    def test_grid_graph_vertex_covers(self):
        for rows, cols in [(2, 2), (2, 5), (3, 3), (3, 4), (4, 4), (3, 6)]:
            self.assert_counts_match(Hypergraph(rows * cols, tuple(grid_graph(rows, cols))))

    def test_grid_minors_hypergraph(self):
        h = complex_support_hypergraph(grid_minors_network(6))
        self.assert_counts_match(h)
        assert transversal_counts(h).total == 1764

    def test_disjoint_unions(self):
        edges = cycle(5) + grid_graph(3, 3, offset=5) + cycle(7, offset=14)
        edges += grid_graph(2, 4, offset=21)
        self.assert_counts_match(Hypergraph(29, tuple(edges)))
        # two copies of one cycle: the states after covering the first recur
        self.assert_counts_match(Hypergraph(12, tuple(cycle(6) + cycle(6, offset=6))))

    def test_random_hypergraphs(self):
        rng = random.Random(404)
        for _ in range(60):
            n = rng.randint(10, 16)
            edges = set()
            for _ in range(rng.randint(4, 22)):
                edges.add(frozenset(rng.sample(range(n), rng.randint(1, 5))))
            self.assert_counts_match(Hypergraph(n, tuple(sorted(edges, key=sorted))))

    def test_table_cleared_when_full(self, monkeypatch):
        import crnsiphon.siphons as siphons

        monkeypatch.setattr(siphons, "_COUNT_MEMO_LIMIT", 3)
        self.assert_counts_match(complex_support_hypergraph(grid_minors_network(5)))
        self.assert_counts_match(Hypergraph(16, tuple(grid_graph(4, 4))))

    def test_chain_counts_follow_the_recursion(self):
        # N(s) = N(s-2) + N(s-3) with N(2) = N(3) = 2, N(4) = 3
        expected = {2: 2, 3: 2, 4: 3}
        for s in range(5, 201):
            expected[s] = expected[s - 2] + expected[s - 3]
        for s in range(3, 201):
            tally = transversal_counts(complex_support_hypergraph(chain_network(s)))
            assert tally.total == expected[s], s
            assert tally.by_size == path_cover_histogram(s), s

    def test_long_chain_needs_no_recursion(self, chain2100):
        # the search is deeper than the interpreter's default recursion limit
        n = {2: 2, 3: 2, 4: 3}
        for s in range(5, 2101):
            n[s] = n[s - 2] + n[s - 3]
        tally = transversal_counts(chain2100)
        assert tally.total == n[2100]
        assert tally.by_size == path_cover_histogram(2100)

    def test_result_limit_counts_reused_subtrees(self):
        h = complex_support_hypergraph(chain_network(44))
        full = transversal_counts(h)
        for k in (1, 10, 1000, 100_000):
            with pytest.raises(BudgetExceededError) as exc:
                transversal_counts(h, Budget(max_results=k))
            partial = exc.value.partial
            assert partial.total > k
            assert partial.total == sum(partial.by_size.values())
            assert all(c <= full.by_size[size] for size, c in partial.by_size.items())

    def test_time_limit(self, chain2100):
        with pytest.raises(BudgetExceededError) as exc:
            transversal_counts(chain2100, Budget(max_ms=0))
        assert exc.value.partial.total < transversal_counts(chain2100).total


class TestMinimalSiphonCounts:
    def test_counts_match_the_listing(self):
        rng = random.Random(91)
        routes = set()
        for _ in range(150):
            net = random_network(rng, max_species=8)
            strongly = connectivity(net).is_strongly_connected
            routes.add(strongly)
            listings = [minimal_siphons(net), by_search(net)]
            tallies = [minimal_siphon_counts(net), by_search(net, count=True)]
            if strongly:
                listings.append(by_transversals(net))
                tallies.append(by_transversals(net, count=True))
            for found, tally in zip(listings, tallies):
                assert tally.total == len(found)
                assert tally.by_size == size_tally(z.members for z in found)
        assert routes == {True, False}

    def test_unused_species_and_zero_complex(self):
        net = parse_network("species X, A, B, Y\nA <-> B\n")
        assert minimal_siphon_counts(net).by_size == {1: 2, 2: 1}
        net = parse_network("species A, B, C, D\nA + B <-> C\nC <-> 0\n")
        tally = minimal_siphon_counts(net)
        assert tally.total == 1 and tally.by_size == {1: 1}

    def test_budget_partial_includes_singletons(self):
        lines = [f"c{i} + c{i+1} <-> c{i+1} + c{i+2}" for i in range(1, 29)]
        net = parse_network("species u\n" + "\n".join(lines))
        with pytest.raises(BudgetExceededError) as exc:
            minimal_siphon_counts(net, Budget(max_results=3))
        assert exc.value.partial.by_size[1] == 1
        assert exc.value.partial.total > 3

    def test_search_route_budget_partial_is_a_tally(self, grid5):
        # grid5 is not strongly connected, so it is counted by the search
        with pytest.raises(BudgetExceededError) as exc:
            minimal_siphon_counts(grid5, Budget(max_results=3))
        partial = exc.value.partial
        assert isinstance(partial, TransversalTally)
        assert partial.total == sum(partial.by_size.values()) == 3


class TestDeepNetworks:
    """A walk deeper than the interpreter's default recursion limit."""

    @pytest.mark.parametrize(
        "text", [DEEP_CHAIN, DEEP_DRAINED_CYCLE], ids=["chain", "drained-cycle"]
    )
    def test_one_siphon_of_every_a_species(self, text):
        net = parse_network(text)
        members = tuple(net.species.index[f"A{i}"] for i in range(1201))
        assert minimal_siphons(net) == [Siphon(members)]
        assert minimal_siphon_counts(net).by_size == {1201: 1}


class TestLeafShrink:
    def test_shrinks_every_siphon_to_a_minimal_one_inside_it(self):
        from crnsiphon.siphons import _reaction_masks, _shrink_to_minimal

        rng = random.Random(8)
        shrunk = 0
        for _ in range(150):
            net = random_network(rng, max_species=7)
            masks = _reaction_masks(net)
            minimal = {
                sum(1 << i for i in z.members) for z in brute_force_minimal_siphons(net)
            }
            for z in range(1, 1 << net.num_species):
                if any(prod & z and not reac & z for reac, prod in masks):
                    continue
                m = _shrink_to_minimal(z, masks)
                assert m in minimal and m & z == m
                shrunk += m != z
        assert shrunk > 1000


class TestGridNetworks:
    def test_enumeration_matches_brute_force(self):
        from conftest import grid_minors_network

        for n in (3, 4):
            net = grid_minors_network(n)
            assert by_search(net) == brute_force_minimal_siphons(net)

    def test_grid5_counts(self, grid5):
        # regression values for the 5x5 adjacent-minors network: the ten
        # row/column sets plus three symmetry classes of irregular siphons
        found = minimal_siphons(grid5)
        assert len(found) == 28
        sizes = sorted(len(z.members) for z in found)
        assert sizes == [5] * 10 + [10] * 8 + [11] * 8 + [12] * 2

    def test_grid5_rows_and_columns_are_minimal(self, grid5):
        net = grid5
        found = set(minimal_siphons(net))
        for i in range(1, 6):
            assert Siphon.from_names(net, [f"c{i}{j}" for j in range(1, 6)]) in found
            assert Siphon.from_names(net, [f"c{j}{i}" for j in range(1, 6)]) in found
