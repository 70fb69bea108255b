"""Parser, validation, serialization, and graph-structure tests."""

from __future__ import annotations

import random

import pytest

from conftest import random_network
from crnsiphon.network import (
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    SpeciesTable,
    canonical_text,
    connectivity,
    parse_network,
    stoichiometric_generators,
)


class TestParsing:
    def test_square_with_one_reversible_pair(self):
        net = parse_network(
            "2A + C <-> A + D\nA + D -> E\nE -> B + C\nB + C -> 2A + C"
        )
        assert net.num_species == 5
        assert net.num_complexes == 4
        assert len(net.reactions) == 5
        # first-appearance order without a species declaration
        assert net.species.names == ("A", "C", "D", "E", "B")

    def test_species_declaration_pins_order(self):
        net = parse_network("species A, B, C, D, E\n2A + C -> A + D\nA + D -> 2A + C")
        assert net.species.names == ("A", "B", "C", "D", "E")
        assert net.complexes[0].exponents == (2, 0, 1, 0, 0)

    def test_minimal_reversible_pair(self):
        net = parse_network("X -> Y\nY -> X")
        assert net.num_species == 2
        assert net.num_complexes == 2
        assert len(net.reactions) == 2
        assert connectivity(net).is_strongly_connected

    def test_dangling_plus_is_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_network("A + -> B")
        assert exc.value.line == 1

    def test_repeated_terms_sum(self):
        net = parse_network("A + A -> B")
        assert net.complexes[0].exponents == (2, 0)

    def test_coefficient_with_space(self):
        net = parse_network("2 A -> B\nB -> 3A")
        assert net.complexes[0].exponents == (2, 0)
        assert net.complexes[2].exponents == (3, 0)

    def test_zero_complex(self):
        net = parse_network("0 -> A\nA -> 0")
        assert net.complexes[0].is_zero
        assert net.complexes[0].text(net.species) == "0"

    def test_rate_labels_and_reversible_suffixes(self):
        net = parse_network("A -> B ; k=k1\nB <-> C ; k=k2")
        assert net.reactions[0].rate_label == "k1"
        assert net.reactions[1].rate_label == "k2_fwd"
        assert net.reactions[2].rate_label == "k2_rev"

    def test_comments_and_blank_lines(self):
        net = parse_network("# header\n\nA -> B # trailing\n\n# done\nB -> A")
        assert len(net.reactions) == 2

    def test_duplicate_reaction_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_network("A -> B\nA -> B")
        with pytest.raises(ParseError, match="duplicate"):
            parse_network("A <-> B\nB -> A")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="identical source and target"):
            parse_network("A + B -> B + A")

    def test_empty_network_rejected(self):
        with pytest.raises(ParseError, match="no reactions"):
            parse_network("# nothing here\n")

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse_network("0 A -> B")

    def test_duplicate_species_declaration_rejected(self):
        with pytest.raises(ParseError, match="declared twice"):
            parse_network("species A, A\nA -> B")

    def test_unknown_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_network("A -> B\nA @ B")
        assert exc.value.line == 2
        assert exc.value.column == 3

    @pytest.mark.parametrize(
        "text, column",
        [("\u00c5 -> B", 1), ("A\u00b2 -> B", 2), ("1\u0663A -> B", 2)],
        ids=["non-ascii-letter", "superscript-digit", "non-ascii-digit"],
    )
    def test_non_ascii_character_is_a_parse_error(self, text, column):
        with pytest.raises(ParseError) as exc:
            parse_network("A -> C\n" + text)
        assert exc.value.line == 2
        assert exc.value.column == column


    def test_over_long_coefficient_is_too_large(self):
        # more digits than int() converts by default, counted before converting
        with pytest.raises(ParseError, match="coefficient too large") as exc:
            parse_network("A -> B\nC + 1" + "0" * 4300 + "A -> B")
        assert exc.value.line == 2
        assert exc.value.column == 5

    def test_leading_zeros_do_not_count(self):
        net = parse_network("0" * 5000 + "2A -> B")
        assert net == parse_network("2A -> B")
        with pytest.raises(ParseError, match="must be >= 1"):
            parse_network("0" * 5000 + "A -> B")


class TestValidation:
    def test_isolated_complex_rejected(self):
        species = SpeciesTable(("A", "B"))
        comps = (Complex((1, 0)), Complex((0, 1)), Complex((1, 1)))
        with pytest.raises(ValueError, match="appear in no reaction"):
            ReactionNetwork(species, comps, (Reaction(0, 1),))

    def test_duplicate_complex_rejected(self):
        species = SpeciesTable(("A", "B"))
        comps = (Complex((1, 0)), Complex((1, 0)))
        with pytest.raises(ValueError, match="duplicate complex"):
            ReactionNetwork(species, comps, (Reaction(0, 1),))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Complex((1, -1))


class TestRoundTrip:
    def test_paper_networks(self, receptor_ligand, enzyme_inhibitor, futile_cycle):
        for net in (receptor_ligand, enzyme_inhibitor, futile_cycle):
            again = parse_network(canonical_text(net))
            assert again == net

    def test_random_networks_round_trip(self):
        rng = random.Random(42)
        for _ in range(50):
            net = random_network(rng)
            assert parse_network(canonical_text(net)) == net

    def test_rate_labels_survive(self):
        net = parse_network("A <-> B ; k=kf\nB -> C")
        assert parse_network(canonical_text(net)) == net


class TestConnectivity:
    def test_receptor_ligand_strongly_connected(self, receptor_ligand):
        info = connectivity(receptor_ligand)
        assert info.is_strongly_connected
        assert info.components_strongly_connected
        assert len(info.strong_components) == 1

    def test_enzyme_inhibitor_two_strong_components(self, enzyme_inhibitor):
        info = connectivity(enzyme_inhibitor)
        assert len(info.strong_components) == 2
        assert info.components_strongly_connected
        assert not info.is_strongly_connected

    def test_single_reaction(self):
        info = connectivity(parse_network("A -> B"))
        assert len(info.strong_components) == 2
        assert not info.components_strongly_connected
        assert not info.is_strongly_connected

    def test_futile_cycle_not_components_strong(self, futile_cycle):
        info = connectivity(futile_cycle)
        assert not info.is_strongly_connected
        assert not info.components_strongly_connected

    def test_invariant_strong_implies_components_strong(self):
        rng = random.Random(3)
        for _ in range(80):
            info = connectivity(random_network(rng))
            if info.is_strongly_connected:
                assert info.components_strongly_connected
            blocks = [v for c in info.strong_components for v in c]
            assert sorted(blocks) == list(range(len(blocks)))

    def test_derived_flags_match_a_per_linkage_class_reference(
        self, receptor_ligand, enzyme_inhibitor, futile_cycle
    ):
        def reach(edges, start):
            seen, todo = {start}, [start]
            while todo:
                v = todo.pop()
                for w in edges.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            return seen

        def each_class_strongly_connected(net, linkage_classes):
            forward, backward = {}, {}
            for r in net.reactions:
                forward.setdefault(r.source, []).append(r.target)
                backward.setdefault(r.target, []).append(r.source)
            return all(
                reach(forward, block[0]) >= set(block) and reach(backward, block[0]) >= set(block)
                for block in linkage_classes
            )

        rng = random.Random(27)
        nets = [receptor_ligand, enzyme_inhibitor, futile_cycle]
        nets += [random_network(rng) for _ in range(300)]
        seen = set()
        for net in nets:
            info = connectivity(net)
            expected = each_class_strongly_connected(net, info.linkage_classes)
            assert info.components_strongly_connected == expected
            assert info.is_strongly_connected == (expected and len(info.linkage_classes) == 1)
            seen.add(expected)
        assert not connectivity(futile_cycle).components_strongly_connected
        assert seen == {True, False}

    def test_reaction_order_does_not_matter(self, enzyme_inhibitor):
        net = enzyme_inhibitor
        reordered = ReactionNetwork(
            net.species, net.complexes, tuple(reversed(net.reactions))
        )
        assert connectivity(reordered) == connectivity(net)


class TestStoichiometricGenerators:
    def test_receptor_ligand_first_edge(self, receptor_ligand):
        gens = stoichiometric_generators(receptor_ligand)
        # 2A + C -> A + D in species order A,B,C,D,E
        assert gens[0] == (-1, 0, -1, 1, 0)
        assert len(gens) == 8

    def test_two_species(self, two_species):
        assert stoichiometric_generators(two_species) == [(-1, 1), (1, -1)]

    def test_futile_cycle_rank(self, futile_cycle):
        import sympy

        gens = stoichiometric_generators(futile_cycle)
        assert len(gens) == 6
        assert sympy.Matrix(gens).rank() == 3
