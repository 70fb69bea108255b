"""Relevance verdicts, route agreement, and report assembly."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import RECEPTOR_LIGAND, grid_minors_network, grid_symmetries, random_network
from crnsiphon.geometry import InvariantPolytope, NotPointedError, build_cone, face_dimension
from crnsiphon.linalg import conservation_basis, in_row_space
from crnsiphon.lp import verify_certificate
from crnsiphon.network import parse_network
from crnsiphon.relevance import (
    RouteDisagreementError,
    analyze,
    is_c0_relevant,
    is_relevant,
    is_relevant_by_facets,
    omega_relevant,
    orbit_partition,
    relevant_minimal_siphons,
    supported_conservation_system,
)
from crnsiphon.siphons import Siphon, minimal_siphons

F = Fraction

OMEGA1 = [F(1, 10), F(1, 10), F(1), F(1, 10), F(1, 10)]
OMEGA12 = [F(1, 10), F(1, 10), F(4, 10), F(1), F(1, 10)]
OMEGA2 = [F(1, 10), F(1, 10), F(1, 10), F(1), F(1, 10)]
OMEGA23 = [F(1)] * 5
OMEGA3 = [F(1, 10), F(1), F(1, 10), F(1, 10), F(1, 10)]


class TestConservationRoute:
    def test_cde_not_relevant_with_witness(self, receptor_ligand):
        net = receptor_ligand
        z = Siphon.from_names(net, ["C", "D", "E"])
        verdict = is_relevant(net, z)
        assert not verdict.relevant
        assert verdict.conservation_law == (0, 0, 1, 1, 1)

    def test_abe_relevant_with_certificate(self, receptor_ligand):
        net = receptor_ligand
        z = Siphon.from_names(net, ["A", "B", "E"])
        verdict = is_relevant(net, z)
        assert verdict.relevant
        assert verdict.certificate is not None
        assert verify_certificate(
            supported_conservation_system(net, z.members), verdict.certificate
        )

    def test_futile_cycle_all_non_relevant(self, futile_cycle):
        for z in minimal_siphons(futile_cycle):
            assert not is_relevant(futile_cycle, z).relevant

    def test_non_siphon_rejected(self, receptor_ligand):
        with pytest.raises(ValueError):
            is_relevant(receptor_ligand, Siphon((receptor_ligand.species.index["E"],)))

    def test_witness_soundness(self):
        rng = random.Random(91)
        for _ in range(40):
            net = random_network(rng, max_species=7)
            basis = conservation_basis(net)
            for z in minimal_siphons(net):
                verdict = is_relevant(net, z)
                if not verdict.relevant:
                    law = verdict.conservation_law
                    assert in_row_space(basis, law)
                    assert all(x >= 0 for x in law)
                    assert any(x > 0 for x in law)
                    assert {i for i, x in enumerate(law) if x > 0} <= set(z.members)


class TestFacetRoute:
    def test_cde_not_relevant_by_facet(self, receptor_ligand):
        net = receptor_ligand
        verdict = is_relevant_by_facets(net, Siphon.from_names(net, ["C", "D", "E"]))
        assert not verdict.relevant
        assert verdict.facet is not None
        assert set(verdict.facet.complement(5)) <= set(
            Siphon.from_names(net, ["C", "D", "E"]).members
        )

    def test_ace_relevant_by_facet(self, receptor_ligand):
        net = receptor_ligand
        assert is_relevant_by_facets(net, Siphon.from_names(net, ["A", "C", "E"])).relevant

    def test_enzyme_inhibitor_ir(self, enzyme_inhibitor):
        net = enzyme_inhibitor
        assert not is_relevant_by_facets(net, Siphon.from_names(net, ["I", "R"])).relevant

    def test_not_pointed_raises(self):
        # the net production A + B lies in the span of the reaction vectors,
        # so the cone of conserved quantities is a full line
        net = parse_network("A + B -> C\nC -> 2A + 2B")
        siphons = minimal_siphons(net)
        assert siphons, "expected at least one siphon"
        with pytest.raises(NotPointedError):
            is_relevant_by_facets(net, siphons[0])
        verdict = is_relevant(net, siphons[0])
        assert verdict.facet is None and verdict.face_point is None
        assert (verdict.conservation_law is None) == verdict.relevant
        assert (verdict.certificate is None) != verdict.relevant

    def test_route_agreement(self, receptor_ligand, enzyme_inhibitor, futile_cycle):
        rng = random.Random(92)
        nets = [receptor_ligand, enzyme_inhibitor, futile_cycle]
        nets += [random_network(rng, max_species=6) for _ in range(30)]
        for net in nets:
            cone = build_cone(conservation_basis(net))
            if not cone.pointed:
                continue
            for z in minimal_siphons(net):
                assert (
                    is_relevant(net, z).relevant
                    == is_relevant_by_facets(net, z, cone).relevant
                )


class TestInitialConditionRoute:
    def test_chamber_pattern(self, receptor_ligand):
        net = receptor_ligand
        abe = Siphon.from_names(net, ["A", "B", "E"])
        ace = Siphon.from_names(net, ["A", "C", "E"])
        pattern = {
            "omega1": (OMEGA1, True, False),
            "omega12": (OMEGA12, True, True),
            "omega2": (OMEGA2, False, True),
            "omega23": (OMEGA23, False, True),
            "omega3": (OMEGA3, False, True),
        }
        for _, (c0, abe_expected, ace_expected) in pattern.items():
            assert is_c0_relevant(net, c0, abe).relevant == abe_expected
            assert is_c0_relevant(net, c0, ace).relevant == ace_expected

    def test_face_point_witness(self, receptor_ligand):
        net = receptor_ligand
        verdict = is_c0_relevant(net, OMEGA1, Siphon.from_names(net, ["A", "B", "E"]))
        assert verdict.relevant and verdict.face_point is not None
        for i in Siphon.from_names(net, ["A", "B", "E"]).members:
            assert verdict.face_point[i] == 0

    def test_positive_start_required(self, receptor_ligand):
        z = Siphon.from_names(receptor_ligand, ["A", "B", "E"])
        with pytest.raises(ValueError, match="positive"):
            is_c0_relevant(receptor_ligand, [1, 1, 0, 1, 1], z)

    def test_sampled_relevance_implies_global(self):
        rng = random.Random(93)
        for _ in range(25):
            net = random_network(rng, max_species=6)
            s = net.num_species
            for z in minimal_siphons(net):
                globally = is_relevant(net, z).relevant
                for _ in range(5):
                    c0 = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(s)]
                    if is_c0_relevant(net, c0, z).relevant:
                        assert globally

    def test_subsiphon_inherits_c0_relevance(self):
        # if Z ⊆ Z' are siphons and Z' is c0-relevant, the larger face of Z
        # contains the Z' face, so Z is c0-relevant too
        rng = random.Random(94)
        for _ in range(30):
            net = random_network(rng, max_species=6)
            s = net.num_species
            from crnsiphon.siphons import is_siphon

            siphons = []
            for bits in range(1, 1 << s):
                members = tuple(i for i in range(s) if bits >> i & 1)
                if is_siphon(net, members):
                    siphons.append(members)
            if len(siphons) < 2:
                continue
            c0 = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(s)]
            for _ in range(6):
                a = rng.choice(siphons)
                b = rng.choice(siphons)
                if set(a) <= set(b) and is_c0_relevant(net, c0, Siphon(b)).relevant:
                    assert is_c0_relevant(net, c0, Siphon(a)).relevant


class TestOmegaRelevance:
    def test_union_over_chambers(self, receptor_ligand):
        net = receptor_ligand
        ace = Siphon.from_names(net, ["A", "C", "E"])
        hit, idx = omega_relevant(net, [OMEGA1, OMEGA2, OMEGA3], ace)
        assert hit and idx == 1
        hit, idx = omega_relevant(net, [OMEGA1], ace)
        assert not hit and idx is None

    def test_single_sample_equals_c0(self, receptor_ligand):
        net = receptor_ligand
        for z in minimal_siphons(net):
            hit, _ = omega_relevant(net, [OMEGA23], z)
            assert hit == is_c0_relevant(net, OMEGA23, z).relevant

    def test_empty_samples_rejected(self, receptor_ligand):
        z = minimal_siphons(receptor_ligand)[0]
        with pytest.raises(ValueError):
            omega_relevant(receptor_ligand, [], z)

    def test_every_sample_must_be_positive(self):
        # sample 0 already witnesses {A}; the zero in sample 1 still counts
        net = parse_network("A -> B")
        (a,) = minimal_siphons(net)
        with pytest.raises(ValueError, match="positive"):
            omega_relevant(net, [[1, 1], [0, 1]], a)


class TestHelpersReportWhatAnalyzeReports:
    def test_helpers_equal_report_fields(self, receptor_ligand, enzyme_inhibitor, futile_cycle):
        rng = random.Random(95)

        def start(s):
            return [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(s)]

        cases = [(receptor_ligand, OMEGA23, [OMEGA1, OMEGA2, OMEGA3])]
        nets = [enzyme_inhibitor, futile_cycle, grid_minors_network(4)]
        nets += [random_network(rng, max_species=6) for _ in range(150)]
        for net in nets:
            s = net.num_species
            cases.append((net, start(s), [start(s) for _ in range(3)]))
        checked = 0
        for net, c0, samples in cases:
            report = analyze(net, c0=c0, omega_samples=samples)
            for a in report.siphons:
                z = a.verdict.siphon
                assert is_relevant(net, z) == a.verdict
                assert is_c0_relevant(net, c0, z) == a.c0_verdict
                hits = a.omega_hits
                assert omega_relevant(net, samples, z) == (bool(hits), hits[0] if hits else None)
                checked += 1
        assert checked > 350


class TestRelevantMinimalSiphons:
    def test_receptor_ligand(self, receptor_ligand):
        got = [z.names(receptor_ligand) for z in relevant_minimal_siphons(receptor_ligand)]
        assert got == [("A", "B", "E"), ("A", "C", "E")]

    def test_enzyme_inhibitor_empty(self, enzyme_inhibitor):
        assert relevant_minimal_siphons(enzyme_inhibitor) == []


class TestAnalyze:
    def test_futile_cycle_certificate(self, futile_cycle):
        report = analyze(futile_cycle)
        assert len(report.siphons) == 3
        assert report.all_non_relevant
        assert report.boundary_certificate is not None
        assert "no invariant polytope has a boundary steady state" in report.boundary_certificate
        for a in report.siphons:
            assert not a.verdict.relevant
            assert a.verdict.conservation_law is not None
            assert a.facet is not None

    def test_receptor_ligand_with_start(self, receptor_ligand):
        report = analyze(receptor_ligand, c0=OMEGA23)
        assert not report.all_non_relevant
        assert report.boundary_certificate is None
        by_names = {a.verdict.siphon.names(receptor_ligand): a for a in report.siphons}
        assert by_names[("A", "C", "E")].c0_verdict.relevant
        assert by_names[("A", "C", "E")].face_dim == 0
        assert not by_names[("A", "B", "E")].c0_verdict.relevant
        assert by_names[("A", "B", "E")].face_dim is None

    def test_strongly_connected_note(self, receptor_ligand, futile_cycle):
        note = "consists entirely of steady states"
        assert any(note in n for n in analyze(receptor_ligand).notes)
        assert not any(note in n for n in analyze(futile_cycle).notes)

    def test_omega_samples_recorded(self, receptor_ligand):
        report = analyze(receptor_ligand, omega_samples=[OMEGA1, OMEGA3])
        by_names = {a.verdict.siphon.names(receptor_ligand): a for a in report.siphons}
        assert by_names[("A", "B", "E")].omega_hits == (0,)
        assert by_names[("A", "C", "E")].omega_hits == (1,)
        assert by_names[("C", "D", "E")].omega_hits == ()

    def test_budget_degrades_to_partial(self):
        from conftest import chain_network
        from crnsiphon.siphons import Budget

        report = analyze(chain_network(20), budget=Budget(max_results=3))
        assert not report.exhaustive
        assert len(report.siphons) == 3
        assert any("not exhaustive" in n for n in report.notes)
        assert report.boundary_certificate is None

    def test_grid_runs_the_facet_cross_check(self, grid5):
        report = analyze(grid5)
        assert report.cone.pointed
        assert len(report.siphons) == 28
        assert all((a.facet is None) == a.verdict.relevant for a in report.siphons)
        assert sum(a.verdict.relevant for a in report.siphons) == 18

    def test_per_network_work_runs_once(self, monkeypatch):
        import crnsiphon.network as network_module

        calls = {}
        for name in ("stoichiometric_generators", "_complex_graph_connectivity"):

            def counted(net, _real=getattr(network_module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(net)

            monkeypatch.setattr(network_module, name, counted)
        report = analyze(parse_network(RECEPTOR_LIGAND), c0=OMEGA1)
        assert len(report.siphons) == 3
        assert calls["_complex_graph_connectivity"] == 1
        # once: the conservation basis and the LP rows of every siphon share
        # the network's cached net-change vectors
        assert calls["stoichiometric_generators"] == 1

    def test_cone_is_built_once_per_network(self, monkeypatch):
        import crnsiphon.geometry as geometry_module

        rays = []
        real = geometry_module._extreme_rays

        def counted(e):
            rays.append(e.cols)
            return real(e)

        monkeypatch.setattr(geometry_module, "_extreme_rays", counted)
        net = grid_minors_network(3)
        first, second = analyze(net), analyze(net)
        assert first.cone is second.cone
        siphons = [a.verdict.siphon for a in first.siphons]
        for z in siphons * 3:
            assert is_relevant_by_facets(net, z).relevant == is_relevant(net, z).relevant
        assert len(rays) == 1

    def test_minimal_siphons_are_not_rechecked(self, monkeypatch):
        import crnsiphon.relevance as relevance_module

        calls = []
        real = relevance_module.is_siphon

        def counted(net, members):
            calls.append(tuple(members))
            return real(net, members)

        monkeypatch.setattr(relevance_module, "is_siphon", counted)
        net = parse_network(RECEPTOR_LIGAND)
        report = analyze(net, c0=OMEGA1)
        assert len(report.siphons) == 3 and calls == []
        assert len(relevant_minimal_siphons(net)) == 2 and calls == []
        e = Siphon((net.species.index["E"],))
        with pytest.raises(ValueError, match="siphons only"):
            is_relevant(net, e)
        with pytest.raises(ValueError, match="siphons only"):
            is_c0_relevant(net, OMEGA1, e)
        assert len(calls) == 2

    def test_c0_face_lp_solved_once_per_siphon(self, grid5, monkeypatch):
        import crnsiphon.lp as lp_module
        import crnsiphon.relevance as relevance_module

        ones = [F(1)] * 25
        p = InvariantPolytope.from_network(grid5, ones)
        faces = {p.face_system(z.members): z for z in minimal_siphons(grid5)}
        solved = []
        real = lp_module.feasible

        def counted(system):
            if system in faces:
                solved.append(faces[system])
            return real(system)

        monkeypatch.setattr(lp_module, "feasible", counted)
        monkeypatch.setattr(relevance_module, "feasible", counted)
        report = analyze(grid5, c0=ones)
        # the face LP runs once for each globally relevant siphon; a
        # non-relevant one is decided by its conservation law
        relevant = [a.verdict.siphon for a in report.siphons if a.verdict.relevant]
        assert len(relevant) == 18
        assert sorted(solved) == sorted(relevant)
        for a in report.siphons:
            if not a.verdict.relevant:
                law = a.c0_verdict.conservation_law
                assert not a.c0_verdict.relevant and a.c0_verdict.certificate is None
                assert law == a.verdict.conservation_law
                assert sum(w * x for w, x in zip(law, ones)) > 0
        dims = [a.face_dim for a in report.siphons if a.c0_verdict.relevant]
        assert len(dims) == 18 and sorted(set(dims)) == [0, 1, 3]
        for a in report.siphons:
            z = a.verdict.siphon
            assert a.face_dim == face_dimension(p, z.members)

    def test_route_disagreement_is_an_internal_error(self, receptor_ligand, monkeypatch):
        import crnsiphon.relevance as relevance_module

        real = relevance_module._lp_verdict

        def inverted(net, z):
            verdict = real(net, z)
            return type(verdict)(siphon=verdict.siphon, relevant=not verdict.relevant)

        monkeypatch.setattr(relevance_module, "_lp_verdict", inverted)
        with pytest.raises(RouteDisagreementError):
            analyze(receptor_ligand)


class TestOrbits:
    def test_grid4_relevant_pair(self):
        # 4x4 adjacent minors: the eight row/column siphons are non-relevant;
        # the two relevant ones are an 8-element transpose pair
        net = grid_minors_network(4)
        siphons = minimal_siphons(net)
        assert len(siphons) == 10
        relevant = [z for z in siphons if is_relevant(net, z).relevant]
        assert sorted(len(z.members) for z in relevant) == [8, 8]
        orbits = orbit_partition(relevant, grid_symmetries(net, 4))
        assert sorted(len(o) for o in orbits) == [2]

    def test_grid3_rows_and_columns(self):
        # the six minimal siphons are the rows and columns; the outer four
        # form one orbit, the middle row and column another
        net = grid_minors_network(3)
        perms = grid_symmetries(net, 3)
        siphons = minimal_siphons(net)
        orbits = orbit_partition(siphons, perms)
        assert sorted(len(o) for o in orbits) == [2, 4]

    def test_identity_only(self, receptor_ligand):
        siphons = minimal_siphons(receptor_ligand)
        identity = {i: i for i in range(receptor_ligand.num_species)}
        orbits = orbit_partition(siphons, [identity])
        assert sorted(len(o) for o in orbits) == [1, 1, 1]


def _d4_invariant_start(net, perms, rng):
    """A random start constant on every orbit of the grid's eight maps."""
    c = [None] * net.num_species
    for i in range(net.num_species):
        if c[i] is None:
            value = F(rng.randint(1, 9), rng.randint(1, 4))
            for perm in perms:
                c[perm[i]] = value
    return c


def _transpose_start(net, n, rng):
    """A random start fixed by the transpose but by no rotation."""
    idx = net.species.index
    c = [None] * net.num_species
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            c[idx[f"c{i}{j}"]] = c[idx[f"c{j}{i}"]] = F(rng.randint(1, 9))
    c[idx["c11"]] = F(11)  # breaks the anti-transpose and every rotation
    return c


def _paper_starts(n):
    ones = [F(1)] * (n * n)
    center = (n // 2) * n + n // 2
    reduced, enlarged = list(ones), list(ones)
    reduced[center], enlarged[center] = F(1, 2), F(3, 2)
    return ones, reduced, enlarged


class TestSymmetricStarts:
    """``analyze(symmetry=...)`` decides each orbit once per start that the
    automorphisms fix; the report must equal the one without symmetry."""

    @staticmethod
    def _assert_same_report(net, c0, samples, perms):
        plain = analyze(net, c0=c0, omega_samples=samples)
        symmetric = analyze(net, c0=c0, omega_samples=samples, symmetry=perms)
        assert plain.orbits is None and symmetric.orbits is not None
        assert replace(symmetric, orbits=None) == plain

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_same_report_with_and_without_symmetry(self, n):
        net = grid_minors_network(n)
        perms = grid_symmetries(net, n)
        rng = random.Random(100 + n)
        ones, reduced, enlarged = _paper_starts(n)
        invariant = [_d4_invariant_start(net, perms, rng) for _ in range(2)]
        partial = _transpose_start(net, n, rng)
        self._assert_same_report(net, ones, [reduced, enlarged], perms)
        self._assert_same_report(net, invariant[0], [invariant[1], partial, reduced], perms)
        self._assert_same_report(net, partial, [ones, partial], perms)

    def test_start_fixed_by_the_transpose_only(self, grid5):
        # at this start the members of some orbit under all eight maps have
        # different faces, so copying along a map that moves the start
        # would change the report
        perms = grid_symmetries(grid5, 5)
        c0 = _transpose_start(grid5, 5, random.Random(0))
        ones, reduced, _ = _paper_starts(5)
        plain = analyze(grid5, c0=c0, symmetry=perms)
        faces = [(a.c0_verdict.relevant, a.face_dim) for a in plain.siphons]
        assert any(len({faces[i] for i in orbit}) > 1 for orbit in plain.orbits)
        self._assert_same_report(grid5, c0, [ones, c0, reduced], perms)

    def test_grid6_same_report(self):
        # the grid has no centre cell: the changed c44 is fixed only by the
        # transpose, so the samples keep two of the eight maps
        net = grid_minors_network(6)
        ones, reduced, enlarged = _paper_starts(6)
        self._assert_same_report(net, ones, [reduced, enlarged], grid_symmetries(net, 6))

    @staticmethod
    def _count_lps(monkeypatch, net, **kwargs):
        import crnsiphon.geometry as geometry_module
        import crnsiphon.lp as lp_module
        import crnsiphon.relevance as relevance_module

        real = lp_module.feasible
        calls = []

        def counted(system):
            calls.append(system)
            return real(system)

        for module in (lp_module, geometry_module, relevance_module):
            monkeypatch.setattr(module, "feasible", counted)
        analyze(net, **kwargs)
        return len(calls)

    def test_grid5_lp_count(self, grid5, monkeypatch):
        ones, reduced, enlarged = _paper_starts(5)
        starts = {"c0": ones, "omega_samples": [reduced, enlarged]}
        perms = grid_symmetries(grid5, 5)
        # 28 conservation LPs, 18 c0 face LPs, then per orbit (sizes 2, 8
        # and 8, all relevant siphons) the face-dimension probes and the
        # two sample LPs
        assert self._count_lps(monkeypatch, grid5, **starts) == 132
        assert self._count_lps(monkeypatch, grid5, symmetry=perms, **starts) <= 60

    def test_only_the_maps_fixing_the_start_save_lps(self, grid5, monkeypatch):
        rng = random.Random(7)
        perms = grid_symmetries(grid5, 5)
        generic = [F(rng.randint(1, 50)) for _ in range(25)]
        transposed = _transpose_start(grid5, 5, rng)
        for c0, saves in ((generic, False), (transposed, True)):
            plain = self._count_lps(monkeypatch, grid5, c0=c0)
            symmetric = self._count_lps(monkeypatch, grid5, c0=c0, symmetry=perms)
            assert (symmetric < plain) == saves and symmetric <= plain

    def test_non_automorphism_is_rejected(self, receptor_ligand):
        net = receptor_ligand
        identity = {i: i for i in range(net.num_species)}
        swap = dict(identity)
        swap[0], swap[1] = 1, 0  # A <-> B
        with pytest.raises(ValueError, match="permutation 2 is not an automorphism"):
            analyze(net, symmetry=[identity, swap])
        with pytest.raises(ValueError, match="permutation 1 is not a permutation"):
            analyze(net, symmetry=[{i: 0 for i in range(net.num_species)}])
        # orbit_partition itself stays tolerant
        assert orbit_partition(minimal_siphons(net), [swap])
