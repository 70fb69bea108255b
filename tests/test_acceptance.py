"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen.  Two assertions in the 5x5 adjacent-minors block record reference
values that exact computation contradicts; they fail deliberately and the
surrounding tests assert the machine-verified values (see the comments on
the two tests and the project notes).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    brute_force_minimal_siphons,
    chain_network,
    grid_symmetries,
    random_face_point,
    random_network,
    random_rate_assignment,
)
from crnsiphon.dynamics import (
    MassActionSystem,
    build_rhs,
    check_face_invariance,
    eval_rhs,
    structurally_annihilates_face,
)
from crnsiphon.geometry import InvariantPolytope, build_cone, face_dimension
from crnsiphon.linalg import RationalMatrix, conservation_basis, in_row_space
from crnsiphon.lp import LinearSystem, feasible, verify_certificate, verify_witness
from crnsiphon.relevance import (
    analyze,
    is_c0_relevant,
    is_relevant,
    is_relevant_by_facets,
    orbit_partition,
    relevant_minimal_siphons,
    supported_conservation_system,
)
from crnsiphon.siphons import (
    Hypergraph,
    Siphon,
    _search_route,
    complex_support_hypergraph,
    minimal_siphons,
    transversal_counts,
)

F = Fraction


@contextmanager
def criterion(label: str):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.monotonic() - start:.2f}s)")


def siphon_name_sets(net, siphons):
    return {frozenset(z.names(net)) for z in siphons}


# ---------------------------------------------------------------------------
# 1. minimal siphons of the three introductory networks


def test_minimal_siphons_of_benchmark_networks(
    receptor_ligand, enzyme_inhibitor, futile_cycle
):
    with criterion("1 minimal siphons of the three benchmark networks"):
        start = time.monotonic()
        assert siphon_name_sets(receptor_ligand, minimal_siphons(receptor_ligand)) == {
            frozenset({"A", "B", "E"}),
            frozenset({"A", "C", "E"}),
            frozenset({"C", "D", "E"}),
        }
        assert siphon_name_sets(enzyme_inhibitor, minimal_siphons(enzyme_inhibitor)) == {
            frozenset({"E", "Q", "R"}),
            frozenset({"I", "R"}),
            frozenset({"P", "Q", "R", "S"}),
        }
        assert siphon_name_sets(futile_cycle, minimal_siphons(futile_cycle)) == {
            frozenset({"E", "X"}),
            frozenset({"F", "Y"}),
            frozenset({"P", "S0", "X", "Y"}),
        }
        assert time.monotonic() - start < 3.0  # three networks, < 1 s each


# ---------------------------------------------------------------------------
# 2. receptor-ligand conservation geometry and relevance


def test_receptor_ligand_cone_and_relevance(receptor_ligand):
    with criterion("2 receptor-ligand cone facets and relevance verdicts"):
        start = time.monotonic()
        net = receptor_ligand
        reference = RationalMatrix.from_rows([[0, 0, 1, 1, 1], [1, 2, 0, 1, 2]])
        basis = conservation_basis(net)
        assert basis.dim == 2
        assert all(in_row_space(reference, row) for row in basis.matrix.entries)
        assert all(in_row_space(basis, row) for row in reference.entries)

        cone = build_cone(basis)
        complements = {
            frozenset(net.species.names[i] for i in f.complement(5)) for f in cone.facets
        }
        assert complements == {frozenset({"C", "D", "E"}), frozenset({"A", "B", "D", "E"})}

        relevant = relevant_minimal_siphons(net)
        assert siphon_name_sets(net, relevant) == {
            frozenset({"A", "B", "E"}),
            frozenset({"A", "C", "E"}),
        }
        cde = Siphon.from_names(net, ["C", "D", "E"])
        verdict = is_relevant(net, cde)
        assert not verdict.relevant
        assert verdict.conservation_law == (0, 0, 1, 1, 1)
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 3. chamber decomposition of the receptor-ligand cone

OMEGA_SAMPLES = {
    "omega1": [F(1, 10), F(1, 10), F(1), F(1, 10), F(1, 10)],
    "omega12": [F(1, 10), F(1, 10), F(4, 10), F(1), F(1, 10)],
    "omega2": [F(1, 10), F(1, 10), F(1, 10), F(1), F(1, 10)],
    "omega23": [F(1)] * 5,
    "omega3": [F(1, 10), F(1), F(1, 10), F(1, 10), F(1, 10)],
}

EXPECTED_SUPPORTS = {
    "omega1": {"AC", "BC", "CD", "CE"},
    "omega12": {"D", "AC", "BC", "CE"},
    "omega2": {"AD", "BD", "DE", "CE", "AC", "BC"},
    "omega23": {"AD", "BD", "E", "AC", "BC"},
    "omega3": {"AD", "BD", "AE", "BE", "AC", "BC"},
}

EXPECTED_RELEVANCE = {  # chamber -> (ABE relevant, ACE relevant)
    "omega1": (True, False),
    "omega12": (True, True),
    "omega2": (False, True),
    "omega23": (False, True),
    "omega3": (False, True),
}


def test_receptor_ligand_chambers(receptor_ligand):
    with criterion("3 chamber vertex supports and per-chamber relevance"):
        start = time.monotonic()
        net = receptor_ligand
        abe = Siphon.from_names(net, ["A", "B", "E"])
        ace = Siphon.from_names(net, ["A", "C", "E"])
        for name, c0 in OMEGA_SAMPLES.items():
            p = InvariantPolytope.from_network(net, c0)
            got = {"".join(net.species.names[i] for i in s) for s in p.vertex_supports}
            assert got == EXPECTED_SUPPORTS[name], name
            abe_expected, ace_expected = EXPECTED_RELEVANCE[name]
            assert is_c0_relevant(net, c0, abe).relevant == abe_expected, name
            assert is_c0_relevant(net, c0, ace).relevant == ace_expected, name
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 4. the reversible chain with 50 species

CHAIN50_TOTAL = 1_221_537
# counts from the published table; the sizes are the generator degrees of
# the dual ideal, i.e. one more than the printed row labels of that table
CHAIN50_HISTOGRAM = {
    25: 26,
    26: 2300,
    27: 42504,
    28: 245157,
    29: 497420,
    30: 352716,
    31: 77520,
    32: 3876,
    33: 18,
}


def chain_count(s: int) -> int:
    if s == 2:
        return transversal_counts(Hypergraph(2, (frozenset({0, 1}),))).total
    return transversal_counts(complex_support_hypergraph(chain_network(s))).total


def test_chain50_count_and_histogram():
    with criterion("4a chain-50 minimal siphon count and size histogram (< 60 s)"):
        start = time.monotonic()
        tally = transversal_counts(complex_support_hypergraph(chain_network(50)))
        elapsed = time.monotonic() - start
        assert tally.total == CHAIN50_TOTAL
        assert tally.by_size == CHAIN50_HISTOGRAM
        assert elapsed < 60.0


def test_chain_count_recursion():
    with criterion("4b chain count recursion N(s) = N(s-2) + N(s-3) for 5 <= s <= 50"):
        counts = {s: chain_count(s) for s in range(2, 51)}
        assert counts[2] == 2 and counts[3] == 2 and counts[4] == 3
        for s in range(5, 51):
            assert counts[s] == counts[s - 2] + counts[s - 3], s
        assert counts[50] == CHAIN50_TOTAL


# ---------------------------------------------------------------------------
# 5. the 5x5 adjacent-minors network

GRID_Z1 = ["c14", "c21", "c22", "c23", "c24", "c32", "c34", "c42", "c43", "c44", "c45", "c52"]
GRID_Z2 = ["c14", "c21", "c22", "c23", "c24", "c33", "c34", "c35", "c41", "c42", "c43", "c53"]
GRID_Z3 = ["c14", "c24", "c31", "c32", "c33", "c34", "c42", "c43", "c44", "c45", "c52"]
GRID_Z4 = ["c14", "c24", "c31", "c32", "c33", "c34", "c43", "c44", "c45", "c53"]


@pytest.fixture(scope="module")
def grid_data(grid5):
    siphons = minimal_siphons(grid5)
    relevant = [z for z in siphons if is_relevant(grid5, z).relevant]
    return grid5, siphons, relevant


def grid_start(net, center_delta=None):
    c0 = [F(1)] * 25
    if center_delta is not None:
        c0[net.species.index["c33"]] = F(1) + center_delta
    return c0


def test_grid_minimal_siphons_and_orbits(grid_data):
    with criterion("5a grid minimal siphons, relevance, and symmetry orbits"):
        net, siphons, relevant = grid_data
        # machine-verified regression values: 28 minimal siphons (ten
        # row/column sets plus 18 relevant ones in three symmetry classes)
        assert len(siphons) == 28
        assert len(relevant) == 18
        z1 = Siphon.from_names(net, GRID_Z1)
        z3 = Siphon.from_names(net, GRID_Z3)
        z4 = Siphon.from_names(net, GRID_Z4)
        assert {z1, z3, z4} <= set(relevant)
        orbits = orbit_partition(relevant, grid_symmetries(net, 5))
        assert sorted(len(o) for o in orbits) == [2, 8, 8]
        by_rep = {}
        for orbit in orbits:
            members = [relevant[i] for i in orbit]
            for rep, name in ((z1, "z1"), (z3, "z3"), (z4, "z4")):
                if rep in members:
                    by_rep[name] = len(orbit)
        assert by_rep == {"z1": 2, "z3": 8, "z4": 8}


def test_grid_reference_count_of_relevant_minimal_siphons(grid_data):
    # Deliberately failing reference assertion: the four displayed classes
    # (sizes 12, 12, 11, 10 with orbits 2, 8, 8, 8) are all relevant
    # *siphons*, but each 12-element set of the second class strictly
    # contains a 10-element relevant siphon of the fourth class, so only
    # 2 + 8 + 8 = 18 sets are inclusion-minimal.  The companion test above
    # asserts the verified values; this one records the quoted 26.
    with criterion("5b grid relevant minimal siphon count equals the quoted 26"):
        net, siphons, relevant = grid_data
        z2 = Siphon.from_names(net, GRID_Z2)
        assert len(relevant) == 26, (
            f"exact enumeration yields {len(relevant)} inclusion-minimal relevant "
            f"siphons; the quoted 26 includes the orbit of {z2.names(net)} whose "
            "members are relevant but not minimal"
        )


def test_grid_z2_class_is_relevant_but_not_minimal(grid_data):
    with criterion("5c grid second-class sets: relevant siphons, not minimal"):
        net, siphons, relevant = grid_data
        z2 = Siphon.from_names(net, GRID_Z2)
        from crnsiphon.siphons import is_siphon

        assert is_siphon(net, z2.members)
        assert is_relevant(net, z2).relevant
        inside = [z for z in siphons if set(z.members) < set(z2.members)]
        assert len(inside) == 1 and len(inside[0].members) == 10
        assert is_relevant(net, inside[0]).relevant


def test_grid_birkhoff_start(grid_data):
    with criterion("5d grid all-ones start: all relevant siphons meet it; face dims 0/1/1/3"):
        net, siphons, relevant = grid_data
        c0 = grid_start(net)
        p = InvariantPolytope.from_network(net, c0)
        for z in relevant:
            assert is_c0_relevant(net, c0, z).relevant
        dims = [
            face_dimension(p, Siphon.from_names(net, names).members)
            for names in (GRID_Z1, GRID_Z2, GRID_Z3, GRID_Z4)
        ]
        assert dims == [0, 1, 1, 3]


def test_grid_reduced_center_start(grid_data):
    with criterion("5e grid reduced-center start: all relevant siphons meet it"):
        net, siphons, relevant = grid_data
        d0 = grid_start(net, center_delta=F(-1, 2))
        for z in relevant:
            assert is_c0_relevant(net, d0, z).relevant


def test_grid_reference_reduced_center_face_dimension(grid_data):
    # Deliberately failing reference assertion: with the center entry
    # reduced, the face of the 10-element class has affine dimension 4 at
    # every perturbation size in (0, 1) (10 free cells minus a rank-6
    # system); the quoted value is 5.
    with criterion("5f grid reduced-center face dimension of the 10-element class equals 5"):
        net, _, _ = grid_data
        d0 = grid_start(net, center_delta=F(-1, 2))
        p = InvariantPolytope.from_network(net, d0)
        dim = face_dimension(p, Siphon.from_names(net, GRID_Z4).members)
        assert dim == 5, f"exact affine dimension is {dim}; the quoted value is 5"


def test_grid_enlarged_center_start(grid_data):
    with criterion("5g grid enlarged-center start: exactly the two 12-element "
                   "symmetric siphons remain, as vertices"):
        net, siphons, relevant = grid_data
        e0 = grid_start(net, center_delta=F(1, 2))
        p = InvariantPolytope.from_network(net, e0)
        hits = [z for z in relevant if is_c0_relevant(net, e0, z).relevant]
        z1 = Siphon.from_names(net, GRID_Z1)
        assert len(hits) == 2
        assert z1 in hits
        assert all(len(z.members) == 12 for z in hits)
        assert all(face_dimension(p, z.members) == 0 for z in hits)
        # the non-minimal relevant sets are gone too
        z2 = Siphon.from_names(net, GRID_Z2)
        assert not is_c0_relevant(net, e0, z2).relevant


def test_grid_runtime_budget(grid_data):
    with criterion("5h grid analysis fits the ten-minute budget"):
        start = time.monotonic()
        net, siphons, relevant = grid_data
        for delta in (None, F(-1, 2), F(1, 2)):
            c0 = grid_start(net, delta)
            for z in relevant[:6]:
                is_c0_relevant(net, c0, z)
        assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# 6. no-boundary-steady-state certificates


def test_no_relevant_siphon_certificates(enzyme_inhibitor, futile_cycle):
    with criterion("6 boundary-steady-state certificates with verified witnesses"):
        start = time.monotonic()
        for net in (enzyme_inhibitor, futile_cycle):
            report = analyze(net)
            assert report.all_non_relevant
            assert report.boundary_certificate is not None
            assert "no invariant polytope has a boundary steady state" in (
                report.boundary_certificate
            )
            basis = conservation_basis(net)
            for entry in report.siphons:
                assert not entry.verdict.relevant
                law = entry.verdict.conservation_law
                assert law is not None
                assert in_row_space(basis, law)
                assert all(x >= 0 for x in law) and any(x > 0 for x in law)
                assert {i for i, x in enumerate(law) if x > 0} <= set(
                    entry.verdict.siphon.members
                )
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 7. property suites


def test_property_oracle_equivalence():
    with criterion("7a enumerator equals the brute-force oracle on 200 random networks"):
        rng = random.Random(2024)
        for trial in range(200):
            net = random_network(rng, max_species=12, max_complexes=7, max_reactions=12)
            assert _search_route(net, None, count=False) == brute_force_minimal_siphons(
                net
            ), trial
            assert minimal_siphons(net) == brute_force_minimal_siphons(net), trial


def test_property_route_agreement(receptor_ligand, enzyme_inhibitor, futile_cycle):
    with criterion("7b conservation-LP route agrees with the facet route"):
        rng = random.Random(2025)
        nets = [receptor_ligand, enzyme_inhibitor, futile_cycle, chain_network(6)]
        nets += [random_network(rng, max_species=7) for _ in range(40)]
        pointed_checked = 0
        for net in nets:
            cone = build_cone(conservation_basis(net))
            if not cone.pointed:
                continue
            for z in minimal_siphons(net):
                pointed_checked += 1
                assert (
                    is_relevant(net, z).relevant
                    == is_relevant_by_facets(net, z, cone).relevant
                )
        assert pointed_checked >= 30


def test_property_face_annihilation(receptor_ligand, enzyme_inhibitor, futile_cycle):
    with criterion("7c siphon faces annihilate their coordinates at 20 exact points"):
        rng = random.Random(2026)
        nets = [receptor_ligand, enzyme_inhibitor, futile_cycle, chain_network(7)]
        nets += [random_network(rng, max_species=7) for _ in range(10)]
        for net in nets:
            for z in minimal_siphons(net):
                members = set(z.members)
                for ri, species in check_face_invariance(net, members):
                    assert species in members & net.reactant_support(ri)
                master = random.Random(97)
                for _ in range(20):
                    trial = random.Random(master.randrange(2**63))
                    kappa = random_rate_assignment(net, trial)
                    field = build_rhs(MassActionSystem(net, kappa))
                    assert structurally_annihilates_face(field, members)
                    point = random_face_point(net.num_species, members, trial)
                    values = eval_rhs(field, point)
                    assert all(values[i] == 0 for i in members)


def test_property_lp_reverification():
    with criterion("7d every LP witness and certificate re-verifies exactly"):
        rng = random.Random(2027)
        solves = verified = 0
        for _ in range(60):
            net = random_network(rng, max_species=7)
            for z in minimal_siphons(net):
                sys_ = supported_conservation_system(net, z.members)
                res = feasible(sys_)
                solves += 1
                if res.feasible:
                    verified += verify_witness(sys_, res.witness)
                else:
                    verified += verify_certificate(sys_, res.certificate)
        for _ in range(150):
            n = rng.randint(1, 6)
            rows = [
                ([F(rng.randint(-3, 3)) for _ in range(n)], F(rng.randint(-4, 4)))
                for _ in range(rng.randint(0, 4))
            ]
            sys_ = LinearSystem.build(
                n,
                eq_rows=rows,
                nonneg=[j for j in range(n) if rng.random() < 0.6],
                zero=[j for j in range(n) if rng.random() < 0.15],
            )
            res = feasible(sys_)
            solves += 1
            if res.feasible:
                verified += verify_witness(sys_, res.witness)
            else:
                verified += verify_certificate(sys_, res.certificate)
        assert solves > 200
        assert verified == solves


def test_property_conservation_identity(receptor_ligand, enzyme_inhibitor, futile_cycle):
    with criterion("7e conserved quantities are exactly constant along the field"):
        rng = random.Random(2028)
        nets = [receptor_ligand, enzyme_inhibitor, futile_cycle]
        nets += [random_network(rng, max_species=6) for _ in range(5)]
        for net in nets:
            basis = conservation_basis(net)
            field = build_rhs(MassActionSystem(net, random_rate_assignment(net, rng)))
            for _ in range(100):
                point = tuple(
                    F(rng.randint(1, 9), rng.randint(1, 9))
                    for _ in range(net.num_species)
                )
                out = eval_rhs(field, point)
                assert all(v == 0 for v in basis.matrix.matvec(out))
