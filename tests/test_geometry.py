"""Cone facets, invariant polytopes, vertex supports, faces, chambers."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

import crnsiphon.geometry as geometry_module
from conftest import (
    grid_minors_network,
    random_network,
    reference_kernel_vectors,
    reference_normalize_integer_vector,
)
from crnsiphon.geometry import (
    InvariantPolytope,
    build_cone,
    face_dimension,
    vertex_supports,
)
from crnsiphon.linalg import (
    RationalMatrix,
    SubspaceBasis,
    conservation_basis,
    dot,
    row_reduce,
)
from crnsiphon.lp import LinearSystem, feasible
from crnsiphon.network import parse_network
from crnsiphon.siphons import Siphon

F = Fraction

OMEGA1 = [F(1, 10), F(1, 10), F(1), F(1, 10), F(1, 10)]
OMEGA12 = [F(1, 10), F(1, 10), F(4, 10), F(1), F(1, 10)]
OMEGA2 = [F(1, 10), F(1, 10), F(1, 10), F(1), F(1, 10)]
OMEGA23 = [F(1)] * 5
OMEGA3 = [F(1, 10), F(1), F(1, 10), F(1, 10), F(1, 10)]


def support_names(net, supports):
    return {"".join(net.species.names[i] for i in s) for s in supports}


# Brute-force oracles for the double-description routine: one LP for
# pointedness, every generator subset of rank d - 1 for the facets, every
# column basis for the vertices.  Integer elimination written here, so they
# share no code with what they check.


def _echelon(rows, ncols):
    """Fraction-free forward elimination of integer rows: (rows, pivots)."""
    m = [list(r) for r in rows]
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            m[i] = [(piv * x - m[i][c] * y) // prev for x, y in zip(m[i], m[r])]
        prev = piv
        pivots.append(c)
    return m, pivots


def _back_substitute(m, pivots, x):
    """Fill the pivot entries of x, whose other entries are set, so that
    every echelon row sums to zero against it."""
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        x[c] = -F(sum(m[i][j] * x[j] for j in range(c + 1, len(x)))) / m[i][c]
    return x


def _primitive(v):
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def oracle_pointed(a):
    # some v with <v, a_i> >= 1 for every generator column a_i
    d, s = a.rows, a.cols
    if d == 0:
        return True
    rows = [
        ([a.entries[r][i] for r in range(d)] + [-1 if j == i else 0 for j in range(s)], 1)
        for i in range(s)
    ]
    return feasible(LinearSystem.build(d + s, eq_rows=rows, nonneg=range(d, d + s))).feasible


def oracle_facets(a):
    """(members, primitive inner normal) of every facet of a full-dimensional
    cone, pointed or not: a supporting hyperplane through d - 1 independent
    generators."""
    d, s = a.rows, a.cols
    cols = [[int(x) for x in a.column(i)] for i in range(s)]
    found = {}
    for subset in combinations(range(s), d - 1):
        m, pivots = _echelon([cols[i] for i in subset], d)
        if len(pivots) != d - 1:
            continue
        x = [F(0)] * d
        x[next(c for c in range(d) if c not in pivots)] = F(1)
        normal = _primitive(_back_substitute(m, pivots, x))
        values = [sum(v * c for v, c in zip(normal, col)) for col in cols]
        if all(v <= 0 for v in values):
            normal, values = [-v for v in normal], [-v for v in values]
        elif not all(v >= 0 for v in values):
            continue
        found[tuple(i for i, v in enumerate(values) if v == 0)] = tuple(F(v) for v in normal)
    return sorted(found.items())


def oracle_vertices(p):
    """Every basic feasible solution of {x >= 0 : A x = A c0}."""
    a, rhs = p.matrix, p.rhs
    r, s = a.rows, a.cols
    if r == 0:
        return {tuple(F(0) for _ in range(s))}
    den = 1
    for x in [*rhs, *(y for row in a.entries for y in row)]:
        den = den * x.denominator // gcd(den, x.denominator)
    rows = [[int(x * den) for x in row] + [int(b * den)] for row, b in zip(a.entries, rhs)]
    points = set()
    for basis in combinations(range(s), r):
        m, pivots = _echelon([[row[j] for j in basis] + [row[s]] for row in rows], r + 1)
        if pivots != list(range(r)):
            continue
        x = _back_substitute(m, pivots, [F(0)] * r + [F(-1)])
        if all(v >= 0 for v in x[:r]):
            point = [F(0)] * s
            for j, v in zip(basis, x):
                point[j] = v
            points.add(tuple(point))
    return points


def oracle_vertex_supports(p):
    supports = {tuple(i for i, x in enumerate(pt) if x > 0) for pt in oracle_vertices(p)}
    return tuple(sorted(supports, key=lambda sup: (len(sup), sup)))


class TestBuildCone:
    def test_receptor_ligand_facets(self, receptor_ligand):
        cone = build_cone(conservation_basis(receptor_ligand))
        assert cone.pointed and cone.dim == 2
        complements = {
            frozenset(receptor_ligand.species.names[i] for i in f.complement(5))
            for f in cone.facets
        }
        assert complements == {frozenset({"C", "D", "E"}), frozenset({"A", "B", "D", "E"})}

    def test_ray_has_trivial_facet(self, two_species):
        cone = build_cone(conservation_basis(two_species))
        assert cone.pointed and cone.dim == 1
        assert len(cone.facets) == 1
        assert cone.facets[0].members == ()
        assert cone.facets[0].complement(2) == (0, 1)

    def test_no_conservation_relations(self):
        net = parse_network("A <-> 0")
        cone = build_cone(conservation_basis(net))
        assert cone.dim == 0
        assert cone.pointed
        assert cone.facets == ()

    def test_not_pointed_cone(self):
        net = parse_network("A + B <-> 0")
        cone = build_cone(conservation_basis(net))
        assert cone.dim == 1
        assert not cone.pointed
        assert cone.facets == ()

    def test_not_pointed_cone_with_a_facet(self):
        # A + B is conserved and C is not in it: the generator of C is 0,
        # so the half-line cone has C on its one facet and is not pointed
        net = parse_network("A <-> B\nC -> 0")
        cone = build_cone(conservation_basis(net))
        assert cone.dim == 1
        assert not cone.pointed
        assert [(f.members, f.complement(3), f.normal) for f in cone.facets] == [
            ((2,), (0, 1), (1,))
        ]

    def test_triangle_cones(self, enzyme_inhibitor, futile_cycle):
        for net in (enzyme_inhibitor, futile_cycle):
            cone = build_cone(conservation_basis(net))
            assert cone.pointed and cone.dim == 3
            assert len(cone.facets) == 3

    def test_square_cone(self):
        basis = SubspaceBasis(RationalMatrix.from_rows([[1, 0], [0, 1]]))
        cone = build_cone(basis)
        assert cone.pointed and len(cone.facets) == 2

    def test_facet_normal_certificates(self, receptor_ligand, enzyme_inhibitor, futile_cycle):
        for net in (receptor_ligand, enzyme_inhibitor, futile_cycle):
            cone = build_cone(conservation_basis(net))
            for facet in cone.facets:
                members = set(facet.members)
                for i in range(cone.num_generators):
                    value = dot(facet.normal, cone.matrix.column(i))
                    if i in members:
                        assert value == 0
                    else:
                        assert value > 0


class TestVertexSupports:
    def test_chamber_one(self, receptor_ligand):
        p = InvariantPolytope.from_network(receptor_ligand, OMEGA1)
        assert support_names(receptor_ligand, p.vertex_supports) == {"AC", "BC", "CD", "CE"}

    def test_wall_with_degenerate_vertex(self, receptor_ligand):
        p = InvariantPolytope.from_network(receptor_ligand, OMEGA23)
        assert support_names(receptor_ligand, p.vertex_supports) == {
            "AD", "BD", "E", "AC", "BC",
        }

    def test_segment(self, two_species):
        p = InvariantPolytope.from_network(two_species, [1, 1])
        assert p.vertex_supports == ((0,), (1,))

    def test_positive_start_required(self, two_species):
        with pytest.raises(ValueError, match="strictly positive"):
            InvariantPolytope.from_network(two_species, [1, 0])

    def test_birkhoff3_vertices_are_permutations(self):
        net = grid_minors_network(3)
        p = InvariantPolytope.from_network(net, [1] * 9)
        supports = p.vertex_supports
        assert len(supports) == 6
        assert all(len(s) == 3 for s in supports)

    def test_duality_with_face_emptiness(self):
        # the face x_Z = 0 is non-empty exactly when some vertex support
        # avoids Z entirely
        rng = random.Random(31)
        for _ in range(25):
            net = random_network(rng, max_species=6)
            s = net.num_species
            c0 = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(s)]
            p = InvariantPolytope.from_network(net, c0)
            supports = vertex_supports(p)
            for _ in range(12):
                z = frozenset(i for i in range(s) if rng.random() < 0.4)
                has_vertex = any(z.isdisjoint(sup) for sup in supports)
                assert (face_dimension(p, z) is not None) == has_vertex


class TestDoubleDescription:
    """Facets, pointedness and vertex supports against the brute-force
    oracles above."""

    @staticmethod
    def check_cone(net):
        basis = conservation_basis(net)
        cone = build_cone(basis)
        assert cone.pointed == oracle_pointed(basis.matrix)
        if basis.dim == 0:
            assert cone.facets == ()
            return "no laws"
        assert [(f.members, f.normal) for f in cone.facets] == oracle_facets(basis.matrix)
        if cone.pointed:
            return "pointed"
        return "not pointed" if cone.facets else "not pointed, no facets"

    @staticmethod
    def check_vertices(net, c0):
        p = InvariantPolytope.from_network(net, c0)
        supports = vertex_supports(p)
        assert supports == oracle_vertex_supports(p)
        return any(len(sup) < p.matrix.rows for sup in supports)

    def test_random_networks(self):
        rng = random.Random(2024)
        kinds = Counter()
        for _ in range(240):
            net = random_network(rng, max_species=7)
            kinds[self.check_cone(net)] += 1
            c0 = [F(rng.randint(1, 2)) for _ in range(net.num_species)]
            kinds["degenerate vertex"] += self.check_vertices(net, c0)
        assert min(kinds.values()) >= 20, kinds

    def test_grids(self):
        rng = random.Random(5)
        for n in (3, 4):
            net = grid_minors_network(n)
            assert self.check_cone(net) == "pointed"
            self.check_vertices(net, [1] * (n * n))
            self.check_vertices(net, [rng.randint(1, 4) for _ in range(n * n)])

    def test_grid5_cone(self, grid5):
        cone = build_cone(conservation_basis(grid5))
        assert cone.pointed and len(cone.facets) == 10
        for facet in cone.facets:
            for i in range(cone.num_generators):
                value = dot(facet.normal, cone.matrix.column(i))
                assert value == 0 if i in facet.members else value > 0

    def test_grid5_chambers_by_vertex_supports(self, grid5):
        net = grid5
        ones = InvariantPolytope.from_network(net, [1] * 25).vertex_supports
        # the vertices of the Birkhoff polytope B5: the 5x5 permutation matrices
        assert set(ones) == {
            tuple(sorted(net.species.index[f"c{i + 1}{j + 1}"] for i, j in enumerate(perm)))
            for perm in permutations(range(5))
        }
        assert len(ones) == 120
        for center in (F(1, 2), F(3, 2)):
            c0 = [F(1)] * 25
            c0[net.species.index["c33"]] = center
            assert InvariantPolytope.from_network(net, c0).vertex_supports != ones


def _reference_rays(red, fix_sign=True):
    return [tuple(int(x) for x in v) for v in reference_kernel_vectors(red, fix_sign)]


def _reference_facets(basis):
    """Facets as ``build_cone`` found them on Fractions: the double
    description on the Fraction route's kernel vectors, and each normal
    read off the Fraction RREF of ``[A^T | laws]``."""
    a = basis.matrix
    d, s = a.rows, a.cols
    if d == 0:
        return []
    kernel = RationalMatrix(tuple(reference_kernel_vectors(row_reduce(a))), s)
    laws = geometry_module._extreme_rays(kernel)
    rows = [[F(x) for x in a.column(i)] + [F(z[i]) for z in laws] for i in range(s)]
    red = row_reduce(RationalMatrix.from_rows(rows, cols=d + len(laws)))
    facets = []
    for j, z in enumerate(laws):
        normal = [red.rref.entries[r][d + j] for r in range(d)]
        members = tuple(i for i, x in enumerate(z) if not x)
        facets.append((members, reference_normalize_integer_vector(normal, fix_sign=False)))
    return sorted(facets)


def _reference_vertex_supports(p):
    """Vertex supports from the Fraction right-hand side ``A c0``."""
    s = p.num_species
    rhs = [sum(F(a) * x for a, x in zip(row, p.c0)) for row in p.matrix.entries]
    homogenized = RationalMatrix.from_rows(
        [[F(a) for a in row] + [-b] for row, b in zip(p.matrix.entries, rhs)], cols=s + 1
    )
    rays = geometry_module._extreme_rays(homogenized)
    supports = {tuple(i for i in range(s) if ray[i]) for ray in rays if ray[s]}
    return tuple(sorted(supports, key=lambda sup: (len(sup), sup)))


class TestIntegerRouteMatchesFractionRoute:
    """Conservation bases, facets and vertex supports equal those of the
    Fraction route the integer kernel replaced (see
    ``conftest.reference_kernel_vectors``)."""

    @staticmethod
    def check(net, c0, monkeypatch):
        basis = conservation_basis(net)
        gens = RationalMatrix.from_rows(
            [[F(x) for x in v] for v in net.integer_net_changes], cols=net.num_species
        )
        assert basis.matrix.entries == tuple(reference_kernel_vectors(row_reduce(gens)))
        p = InvariantPolytope(basis.matrix, c0)
        with monkeypatch.context() as patched:
            patched.setattr(geometry_module, "kernel_vectors", _reference_rays)
            facets = _reference_facets(basis)
            supports = _reference_vertex_supports(p)
        cone = build_cone(basis)
        assert [(f.members, f.normal) for f in cone.facets] == facets
        assert vertex_supports(p) == supports
        entries = [x for row in basis.matrix.entries for x in row]
        entries += [x for f in cone.facets for x in f.normal]
        entries += [x for row in p.rows for x in row[0]]
        assert all(type(x) is int for x in entries)
        return "no laws" if basis.dim == 0 else "pointed" if cone.pointed else "not pointed"

    def test_random_networks(self, monkeypatch):
        rng = random.Random(2026)
        kinds = Counter()
        for _ in range(200):
            net = random_network(rng, max_species=10)
            c0 = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(net.num_species)]
            kinds[self.check(net, c0, monkeypatch)] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_grids(self, monkeypatch):
        for n in (3, 4, 5, 6):
            assert self.check(grid_minors_network(n), [1] * (n * n), monkeypatch) == "pointed"


class TestFaces:
    def test_empty_zero_set_returns_start_compatible_point(self, receptor_ligand):
        p = InvariantPolytope.from_network(receptor_ligand, OMEGA1)
        witness = feasible(p.face_system(())).witness
        assert witness is not None
        assert p.matrix.matvec(witness) == p.rhs

    def test_integer_start_is_scaled_once(self, receptor_ligand):
        p = InvariantPolytope.from_network(receptor_ligand, OMEGA1)
        # OMEGA1 is (1/10, 1/10, 1, 1/10, 1/10): one common scale of 10
        assert p.integer_c0 == (1, 1, 10, 1, 1)
        assert p.integer_c0 is p.integer_c0

    def test_chamber_one_face_results(self, receptor_ligand):
        net = receptor_ligand
        p = InvariantPolytope.from_network(net, OMEGA1)
        ace = Siphon.from_names(net, ["A", "C", "E"]).members
        abe = Siphon.from_names(net, ["A", "B", "E"]).members
        assert face_dimension(p, ace) is None
        witness = feasible(p.face_system(abe)).witness
        assert witness is not None
        support = {i for i, x in enumerate(witness) if x > 0}
        assert support <= {net.species.index["C"], net.species.index["D"]}

    def test_face_dimensions_on_birkhoff5(self, grid5):
        net = grid5
        p = InvariantPolytope.from_network(net, [1] * 25)
        z1 = Siphon.from_names(
            net, ["c14", "c21", "c22", "c23", "c24", "c32", "c34", "c42", "c43", "c44", "c45", "c52"]
        )
        z2 = Siphon.from_names(
            net, ["c14", "c21", "c22", "c23", "c24", "c33", "c34", "c35", "c41", "c42", "c43", "c53"]
        )
        z3 = Siphon.from_names(
            net, ["c14", "c24", "c31", "c32", "c33", "c34", "c42", "c43", "c44", "c45", "c52"]
        )
        z4 = Siphon.from_names(
            net, ["c14", "c24", "c31", "c32", "c33", "c34", "c43", "c44", "c45", "c53"]
        )
        assert face_dimension(p, z1.members) == 0
        assert face_dimension(p, z2.members) == 1
        assert face_dimension(p, z3.members) == 1
        assert face_dimension(p, z4.members) == 3

    def test_face_dimension_whole_polytope(self, receptor_ligand):
        p = InvariantPolytope.from_network(receptor_ligand, OMEGA1)
        assert face_dimension(p, ()) == 3

    def test_face_dimension_matches_vertex_span_oracle(self, receptor_ligand):
        # independent oracle for bounded polytopes: the dimension of a face
        # equals the affine rank of its vertex set, the vertices coming
        # from the basic-solution oracle above
        from crnsiphon.linalg import row_reduce

        nets_and_starts = [
            (receptor_ligand, OMEGA1),
            (receptor_ligand, OMEGA23),
            (grid_minors_network(3), [1] * 9),
        ]
        for net, c0 in nets_and_starts:
            p = InvariantPolytope.from_network(net, c0)
            vertices = oracle_vertices(p)
            for size in (0, 1, 2, 3):
                for z in combinations(range(net.num_species), size):
                    face_vertices = [v for v in vertices if all(v[i] == 0 for i in z)]
                    expected = None
                    if face_vertices:
                        base = face_vertices[0]
                        diffs = [
                            [x - b for x, b in zip(v, base)] for v in face_vertices[1:]
                        ]
                        expected = (
                            row_reduce(
                                RationalMatrix.from_rows(diffs, cols=net.num_species)
                            ).rank
                            if diffs
                            else 0
                        )
                    assert face_dimension(p, z) == expected

    def test_face_dimension_matches_vertex_span_on_random_networks(self):
        # same oracle as above, over random networks whose invariant
        # polytope is bounded (trivial recession cone), random zero sets
        from crnsiphon.linalg import row_reduce

        def polytope_is_bounded(p):
            n = p.num_species
            probe = LinearSystem.build(
                n,
                eq_rows=[(row, 0) for row in p.matrix.entries],
                nonneg=range(n),
                normalization=[1] * n,
            )
            return not feasible(probe).feasible

        rng = random.Random(137)
        checked = 0
        for _ in range(120):
            net = random_network(rng, max_species=6)
            c0 = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(net.num_species)]
            p = InvariantPolytope.from_network(net, c0)
            if not polytope_is_bounded(p):
                continue
            checked += 1
            vertices = oracle_vertices(p)
            for _ in range(8):
                z = tuple(i for i in range(net.num_species) if rng.random() < 0.4)
                face_vertices = [v for v in vertices if all(v[i] == 0 for i in z)]
                if not face_vertices:
                    expected = None
                else:
                    base = face_vertices[0]
                    diffs = [[x - b for x, b in zip(v, base)] for v in face_vertices[1:]]
                    expected = (
                        row_reduce(
                            RationalMatrix.from_rows(diffs, cols=net.num_species)
                        ).rank
                        if diffs
                        else 0
                    )
                assert face_dimension(p, z) == expected
        assert checked >= 15

    def test_perturbed_center_face_dimensions(self, grid5):
        # moving mass off the center changes the Z4 face from a 3-face to a
        # 4-face, independent of the (positive) perturbation size
        net = grid5
        z4 = Siphon.from_names(
            net, ["c14", "c24", "c31", "c32", "c33", "c34", "c43", "c44", "c45", "c53"]
        )
        for eps in (F(1, 2), F(1, 4)):
            c0 = [F(1)] * 25
            c0[net.species.index["c33"]] = 1 - eps
            p = InvariantPolytope.from_network(net, c0)
            assert face_dimension(p, z4.members) == 4


class TestChamberSignature:
    """Two starts lie in one chamber exactly when their polytopes have the
    same vertex supports."""

    def test_same_chamber_equal_signature(self, receptor_ligand):
        other = [F(1, 5), F(1, 10), F(2), F(1, 10), F(1, 10)]
        assert (
            InvariantPolytope.from_network(receptor_ligand, OMEGA1).vertex_supports
            == InvariantPolytope.from_network(receptor_ligand, other).vertex_supports
        )

    def test_different_chambers_differ(self, receptor_ligand):
        assert (
            InvariantPolytope.from_network(receptor_ligand, OMEGA23).vertex_supports
            != InvariantPolytope.from_network(receptor_ligand, OMEGA2).vertex_supports
        )

    def test_one_chamber_for_segment(self, two_species):
        rng = random.Random(41)
        base = InvariantPolytope.from_network(two_species, [1, 1]).vertex_supports
        for _ in range(10):
            c0 = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
            assert InvariantPolytope.from_network(two_species, c0).vertex_supports == base

    def test_midpoint_stability(self, receptor_ligand):
        a = OMEGA1
        b = [F(1, 5), F(1, 10), F(2), F(1, 10), F(1, 10)]
        mid = [(x + y) / 2 for x, y in zip(a, b)]
        sig = InvariantPolytope.from_network(receptor_ligand, a).vertex_supports
        assert InvariantPolytope.from_network(receptor_ligand, b).vertex_supports == sig
        assert InvariantPolytope.from_network(receptor_ligand, mid).vertex_supports == sig
