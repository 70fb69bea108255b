"""Mass-action right-hand sides and the exact face certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_network, random_rate_assignment
from crnsiphon.dynamics import (
    MassActionSystem,
    build_rhs,
    check_face_invariance,
    check_steady_face,
    eval_rhs,
    structurally_annihilates_face,
)
from crnsiphon.linalg import conservation_basis
from crnsiphon.network import connectivity, parse_network
from crnsiphon.siphons import Siphon, is_siphon, minimal_siphons, siphon_violation

F = Fraction

RATE_LABELED = """\
species A, B, C, D, E
2A + C <-> A + D ; k=k12
A + D <-> E ; k=k23
E <-> B + C ; k=k34
B + C <-> 2A + C ; k=k41
"""


@pytest.fixture()
def labeled_system():
    net = parse_network(RATE_LABELED)
    # rates named after the complex-graph edges they label
    values = {
        "k12_fwd": F(2), "k12_rev": F(3),    # A2C <-> AD
        "k23_fwd": F(5), "k23_rev": F(7),    # AD <-> E
        "k34_fwd": F(11), "k34_rev": F(13),  # E <-> BC
        "k41_fwd": F(17), "k41_rev": F(19),  # BC <-> A2C
    }
    rates = [values[r.rate_label] for r in net.reactions]
    return net, MassActionSystem.from_rates(net, rates), values


class TestBuildRhs:
    def test_receptor_ligand_component_b(self, labeled_system):
        net, system, k = labeled_system
        field = build_rhs(system)
        got = {expo: coeff for coeff, expo in field.components[net.species.index["B"]]}
        a2c, bc, e = (2, 0, 1, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 0, 1)
        assert got == {
            a2c: k["k41_rev"],
            bc: -(k["k41_fwd"] + k["k34_rev"]),
            e: k["k34_fwd"],
        }

    def test_receptor_ligand_component_a(self, labeled_system):
        net, system, k = labeled_system
        field = build_rhs(system)
        got = {expo: coeff for coeff, expo in field.components[0]}
        assert got[(2, 0, 1, 0, 0)] == -(k["k12_fwd"] + 2 * k["k41_rev"])
        assert got[(1, 0, 0, 1, 0)] == k["k12_rev"] - k["k23_fwd"]
        assert got[(0, 0, 0, 0, 1)] == k["k23_rev"]
        assert got[(0, 1, 1, 0, 0)] == 2 * k["k41_fwd"]

    def test_single_conversion(self):
        net = parse_network("X -> Y")
        field = build_rhs(MassActionSystem.uniform(net))
        assert field.components[0] == ((F(-1), (1, 0)),)
        assert field.components[1] == ((F(1), (1, 0)),)

    def test_every_reaction_contributes(self):
        rng = random.Random(61)
        for _ in range(30):
            net = random_network(rng)
            field = build_rhs(MassActionSystem.uniform(net))
            assert any(field.components)

    def test_linearity_in_rates(self):
        rng = random.Random(62)
        net = random_network(rng)
        rates = random_rate_assignment(net, rng)
        single = build_rhs(MassActionSystem(net, rates))
        doubled = build_rhs(MassActionSystem(net, tuple(2 * r for r in rates)))
        for terms1, terms2 in zip(single.components, doubled.components):
            assert len(terms1) == len(terms2)
            for (c1, e1), (c2, e2) in zip(terms1, terms2):
                assert e1 == e2 and c2 == 2 * c1

    def test_positive_rates_required(self):
        net = parse_network("X -> Y")
        with pytest.raises(ValueError, match="positive"):
            MassActionSystem.from_rates(net, [0])


class TestEvalRhs:
    def test_simple_point(self):
        net = parse_network("X -> Y")
        field = build_rhs(MassActionSystem.uniform(net))
        assert eval_rhs(field, (F(2), F(0))) == (F(-2), F(2))

    def test_face_coordinates_vanish(self, labeled_system):
        net, system, _ = labeled_system
        field = build_rhs(system)
        # A = B = E = 0 kills the A, B, E coordinates
        values = eval_rhs(field, (F(0), F(0), F(3, 2), F(5, 7), F(0)))
        for name in ("A", "B", "E"):
            assert values[net.species.index[name]] == 0

    def test_conservation_identity(self, labeled_system):
        net, system, _ = labeled_system
        field = build_rhs(system)
        basis = conservation_basis(net)
        rng = random.Random(63)
        for _ in range(20):
            point = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5))
            out = eval_rhs(field, point)
            assert all(v == 0 for v in basis.matrix.matvec(out))

    def test_dimension_mismatch(self):
        net = parse_network("X -> Y")
        field = build_rhs(MassActionSystem.uniform(net))
        with pytest.raises(ValueError):
            eval_rhs(field, (F(1),))


class TestFaceChecks:
    def test_invariance_on_receptor_ligand(self, receptor_ligand):
        net = receptor_ligand
        a, b, e = (net.species.index[n] for n in "ABE")
        z = Siphon.from_names(net, ("A", "B", "E"))
        # every reaction produces a member of {A, B, E}
        assert check_face_invariance(net, z.members) == (
            (0, a), (1, a), (2, a), (3, e), (4, e), (5, b), (6, b), (7, a)
        )
        for names in (("A", "C", "E"), ("C", "D", "E")):
            z = set(Siphon.from_names(net, names).members)
            for ri, species in check_face_invariance(net, z):
                assert net.product_support(ri) & z
                assert species == min(net.reactant_support(ri) & z)

    def test_full_set_passes_trivially(self, receptor_ligand):
        net = receptor_ligand
        assert check_face_invariance(net, range(net.num_species)) == tuple(
            (ri, min(net.reactant_support(ri))) for ri in range(len(net.reactions))
        )

    def test_non_siphon_rejected(self, receptor_ligand):
        with pytest.raises(ValueError, match=r"reaction A \+ D -> E produces a member"):
            check_face_invariance(receptor_ligand, [receptor_ligand.species.index["E"]])

    def test_steady_face_on_strongly_connected(self, receptor_ligand):
        net = receptor_ligand
        a, c, d, e = (net.species.index[n] for n in "ACDE")
        # complexes in order: 2A + C, A + D, E, B + C
        assert check_steady_face(net, Siphon.from_names(net, "ACE").members) == (a, a, e, c)
        assert check_steady_face(net, Siphon.from_names(net, "CDE").members) == (c, d, e, c)

    # the proofs draw nothing, so a trial count or a seed is refused outright
    @pytest.mark.parametrize("trials", [0, -1])
    def test_invariance_needs_a_trial(self, receptor_ligand, trials):
        z = Siphon.from_names(receptor_ligand, ["A", "B", "E"])
        with pytest.raises(TypeError, match="trials"):
            check_face_invariance(receptor_ligand, z.members, trials=trials)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_steady_face_needs_a_trial(self, receptor_ligand, trials):
        z = Siphon.from_names(receptor_ligand, ["C", "D", "E"])
        with pytest.raises(TypeError, match="trials"):
            check_steady_face(receptor_ligand, z.members, trials=trials)

    def test_sampling_parameters_are_gone(self, receptor_ligand):
        z = Siphon.from_names(receptor_ligand, ["C", "D", "E"]).members
        for check in (check_face_invariance, check_steady_face):
            with pytest.raises(TypeError, match="seed"):
                check(receptor_ligand, z, seed=1)

    def test_steady_face_requires_strong_connectivity(self, futile_cycle):
        z = Siphon.from_names(futile_cycle, ["E", "X"])
        with pytest.raises(ValueError, match="strongly connected"):
            check_steady_face(futile_cycle, z.members)

    def test_steady_face_requires_a_complex_on_the_face(self):
        net = parse_network("species X, Y, W\nX <-> Y\n")
        with pytest.raises(ValueError, match="occurring in some complex"):
            check_steady_face(net, [net.species.index["W"]])

    def test_structural_check_characterizes_siphons(self):
        # Z is a siphon exactly when every positive term of every
        # Z-coordinate of the field contains a Z-variable, and the proof
        # either names a consumed member for each producing reaction or the
        # reaction that breaks the siphon condition
        rng = random.Random(64)
        for _ in range(25):
            net = random_network(rng, max_species=6)
            field = build_rhs(MassActionSystem(net, random_rate_assignment(net, rng)))
            s = net.num_species
            reactions = range(len(net.reactions))
            for bits in range(1, 1 << s):
                z = [i for i in range(s) if bits >> i & 1]
                assert structurally_annihilates_face(field, z) == is_siphon(net, z)
                violation = siphon_violation(net, z)
                if violation is None:
                    producing = [ri for ri in reactions if net.product_support(ri) & set(z)]
                    certificate = check_face_invariance(net, z)
                    assert [ri for ri, _ in certificate] == producing
                    for ri, species in certificate:
                        assert species == min(net.reactant_support(ri) & set(z))
                else:
                    with pytest.raises(ValueError) as exc:
                        check_face_invariance(net, z)
                    assert str(exc.value).endswith(violation.reason)

    def test_steady_faces_have_siphon_zero_sets(self):
        # random points on siphon faces of strongly connected networks are
        # steady states whose zero sets are again siphons, and the proof
        # names a member of the siphon in every complex
        rng = random.Random(65)
        checked = 0
        for _ in range(200):
            net = random_network(rng, max_species=6, allow_zero_complex=False)
            if not connectivity(net).is_strongly_connected:
                continue
            for z in minimal_siphons(net):
                if all(set(z.members).isdisjoint(c.support) for c in net.complexes):
                    continue  # a non-occurring species pins no complex to zero
                checked += 1
                witnesses = check_steady_face(net, z.members)
                assert len(witnesses) == net.num_complexes
                for c, species in zip(net.complexes, witnesses):
                    assert species == min(set(z.members) & c.support)
                field = build_rhs(MassActionSystem(net, random_rate_assignment(net, rng)))
                point = [
                    F(0) if i in set(z.members) else F(rng.randint(1, 9), rng.randint(1, 9))
                    for i in range(net.num_species)
                ]
                assert all(v == 0 for v in eval_rhs(field, tuple(point)))
                zero_set = [i for i, x in enumerate(point) if x == 0]
                assert is_siphon(net, zero_set)
        assert checked >= 5
