"""Exact linear algebra: row reduction, nullspaces, conservation bases."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import grid_minors_network, random_network, reference_kernel_vectors
from crnsiphon.linalg import (
    RationalMatrix,
    SubspaceBasis,
    conservation_basis,
    dot,
    in_row_space,
    integer_row,
    kernel_vectors,
    normalize_integer_vector,
    nullspace_basis,
    rank,
    row_reduce,
)
from crnsiphon.network import stoichiometric_generators

MATRIX_A = RationalMatrix.from_rows([[0, 0, 1, 1, 1], [1, 2, 0, 1, 2]])


def _sympy_of(m: RationalMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for r in m.entries for x in r]
    )


class TestRowReduce:
    def test_identity(self):
        m = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        red = row_reduce(m)
        assert red.rank == 3
        assert red.rref == m
        assert red.pivot_cols == (0, 1, 2)

    def test_zero_matrix(self):
        red = row_reduce(RationalMatrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0]]))
        assert red.rank == 0
        assert red.pivot_cols == ()

    def test_receptor_ligand_generators_rank(self, receptor_ligand):
        gens = stoichiometric_generators(receptor_ligand)
        assert row_reduce(RationalMatrix.from_rows(gens)).rank == 3

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = RationalMatrix.from_rows(
                [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]
            )
            red = row_reduce(m)
            assert row_reduce(red.rref).rref == red.rref

    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(150):
            nr, nc = rng.randint(0, 6), rng.randint(1, 6)
            m = RationalMatrix.from_rows(
                [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)],
                cols=nc,
            )
            red = row_reduce(m)
            rref, pivots = _sympy_of(m).rref()
            assert red.rank == len(pivots)
            assert red.pivot_cols == tuple(pivots)
            assert _sympy_of(red.rref) == rref


BIG_DENOMINATORS = (1, 1, 2, 3, 7, 10**12 + 39, 2**61 - 1)


def _kernel_matrix(rng: random.Random, integer: bool = False) -> RationalMatrix:
    """A small rational matrix with the shapes elimination gets wrong:
    no rows, zero rows and columns, repeated and negated rows, negative
    pivots and denominators far past one machine word (with ``integer``,
    a matrix of ints of the same shapes)."""
    nr, nc = rng.randint(0, 6), rng.randint(1, 6)

    def entry():
        if rng.random() < 0.3:
            return 0 if integer else Fraction(0)
        if integer:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.choice(BIG_DENOMINATORS))

    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(nr)] = [Fraction(0)] * nc
    if rng.random() < 0.3:
        dead = rng.randrange(nc)
        for row in rows:
            row[dead] = Fraction(0)
    if nr >= 2 and rng.random() < 0.3:
        if integer:
            k = rng.choice((-3, -1, 2))
        else:
            k = Fraction(rng.choice((-3, -1, 2)), rng.choice(BIG_DENOMINATORS))
        rows[rng.randrange(nr)] = [k * x for x in rows[rng.randrange(nr)]]
    if rows and rng.random() < 0.3:
        rows[0][0] = -abs(rows[0][0]) or Fraction(-1)
    return RationalMatrix.from_rows(rows, cols=nc)


class TestIntegerKernel:
    def test_integer_row_scales_by_the_least_common_denominator(self):
        assert integer_row([Fraction(1, 6), Fraction(-3, 4), 2]) == ([2, -9, 24], 12)
        assert integer_row([3, -1, 0]) == ([3, -1, 0], 1)
        assert integer_row(["1/3", 0.5]) == ([2, 3], 6)
        assert integer_row([]) == ([], 1)

    def test_rank_matches_sympy(self):
        rng = random.Random(73)
        ranks = set()
        for _ in range(300):
            m = _kernel_matrix(rng)
            expected = _sympy_of(m).rank()
            assert rank(m) == expected
            ranks.add(expected)
        assert ranks == set(range(7))

    def test_row_reduce_matches_sympy_rref(self):
        rng = random.Random(73)
        for _ in range(300):
            m = _kernel_matrix(rng)
            red = row_reduce(m)
            rref, pivots = _sympy_of(m).rref()
            assert red.rank == len(pivots)
            assert red.pivot_cols == tuple(pivots)
            assert _sympy_of(red.rref) == rref
            assert all(type(x) is Fraction for row in red.rref.entries for x in row)

    def test_rank_of_shapes_without_rows_or_entries(self):
        assert rank(RationalMatrix((), 4)) == 0
        assert rank(RationalMatrix.from_rows([[0, 0], [0, 0]])) == 0
        assert row_reduce(RationalMatrix((), 3)).rref == RationalMatrix((), 3)
        zero = row_reduce(RationalMatrix.from_rows([[0, 0], [0, 0]]))
        assert zero.rref.entries == ((Fraction(0),) * 2,) * 2
        assert all(type(x) is Fraction for row in zero.rref.entries for x in row)

    def test_negative_pivot_rows(self):
        m = RationalMatrix.from_rows([[-2, 4, 1], [3, -6, Fraction(-1, 2)], [0, 0, 5]])
        assert rank(m) == 2
        red = row_reduce(m)
        assert red.pivot_cols == (0, 2)
        assert red.rref.entries[:2] == (
            (Fraction(1), Fraction(-2), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )


class TestKernelAgainstFractionRoute:
    """The integer kernel vectors against the Fraction route they
    replaced (``reference_kernel_vectors``: RREF, then 1 at the free
    column, then scaled to integers)."""

    def test_random_integer_and_rational_matrices(self):
        rng = random.Random(16)
        shapes = Counter()
        for k in range(600):
            m = _kernel_matrix(rng, integer=k % 2 == 0)
            red = row_reduce(m)
            routes = {fix_sign: kernel_vectors(red, fix_sign) for fix_sign in (True, False)}
            assert "rref" not in vars(red)  # the Fraction view is built only when read
            for fix_sign, vectors in routes.items():
                assert vectors == reference_kernel_vectors(red, fix_sign)
                assert all(type(x) is int for v in vectors for x in v)
            basis = nullspace_basis(m)
            assert basis.entries == tuple(reference_kernel_vectors(red))
            for v in basis.entries:
                assert all(dot(row, v) == 0 for row in m.entries)
            shapes.update(
                {
                    "integer": k % 2 == 0,
                    "no rows": m.rows == 0,
                    "rank-deficient": red.rank < min(m.rows, m.cols),
                    "zero row": any(not any(row) for row in m.entries),
                    "zero column": any(not any(m.column(j)) for j in range(m.cols)),
                    "negative pivot": any(
                        row[c] < 0 for row, c in zip(red.pivot_rows, red.pivot_cols)
                    ),
                }
            )
        assert min(shapes.values()) >= 30, shapes

    def test_scaled_column_is_the_rref_column(self):
        m = RationalMatrix.from_rows([[-2, 4, 1, 3], [3, -6, Fraction(-1, 2), 0], [0, 0, 5, 7]])
        red = row_reduce(m)
        for f in range(m.cols):
            x, scale = red.scaled_column(f)
            assert scale > 0
            column = [row[f] for row in red.rref.entries[: red.rank]]
            assert [Fraction(xi, scale) for xi in x] == column


# zeros and small integers often, so that pivots need row swaps and rows
# are dependent
_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def _small_matrices(draw):
    nc = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_rationals, min_size=nc, max_size=nc), max_size=5))
    return RationalMatrix.from_rows(rows, cols=nc)


class TestRankProperty:
    # no shrink phase: shrinking one failure here took about four minutes,
    # so a failure reports its first example as drawn
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(_small_matrices())
    def test_rank_agrees_with_row_reduce_and_sympy(self, m):
        r = rank(m)
        assert r == row_reduce(m).rank
        assert r == _sympy_of(m).rank()


class TestNullspace:
    def test_orthogonality(self):
        rng = random.Random(9)
        for _ in range(60):
            nr, nc = rng.randint(1, 4), rng.randint(1, 6)
            m = RationalMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)], cols=nc
            )
            basis = nullspace_basis(m)
            assert basis.rows + row_reduce(m).rank == nc
            for row in basis.entries:
                for orig in m.entries:
                    assert dot(row, orig) == 0

    def test_integer_normalization(self):
        v = normalize_integer_vector([Fraction(-2, 3), Fraction(4, 3), Fraction(0)])
        assert v == (Fraction(1), Fraction(-2), Fraction(0))


class TestConservationBasis:
    def test_receptor_ligand_matches_reference_rows(self, receptor_ligand):
        basis = conservation_basis(receptor_ligand)
        assert basis.dim == 2
        assert all(in_row_space(MATRIX_A, row) for row in basis.matrix.entries)
        assert all(in_row_space(basis, row) for row in MATRIX_A.entries)

    def test_two_species(self, two_species):
        basis = conservation_basis(two_species)
        assert basis.matrix.entries == ((Fraction(1), Fraction(1)),)

    def test_computed_once_per_network(self):
        net = grid_minors_network(5)
        assert conservation_basis(net) is conservation_basis(net)

    def test_grid5_row_column_sums(self):
        net = grid_minors_network(5)
        basis = conservation_basis(net)
        assert basis.dim == 9
        idx = net.species.index
        indicators = []
        for i in range(1, 6):
            row = [Fraction(0)] * 25
            for j in range(1, 6):
                row[idx[f"c{i}{j}"]] = Fraction(1)
            indicators.append(tuple(row))
        for j in range(1, 6):
            col = [Fraction(0)] * 25
            for i in range(1, 6):
                col[idx[f"c{i}{j}"]] = Fraction(1)
            indicators.append(tuple(col))
        assert all(in_row_space(basis, v) for v in indicators)
        stacked = RationalMatrix.from_rows(indicators, cols=25)
        assert row_reduce(stacked).rank == 9
        assert all(in_row_space(stacked, row) for row in basis.matrix.entries)

    def test_rows_orthogonal_to_generators(self):
        rng = random.Random(21)
        for _ in range(60):
            net = random_network(rng)
            basis = conservation_basis(net)
            gens = stoichiometric_generators(net)
            for row in basis.matrix.entries:
                for g in gens:
                    assert dot(row, [Fraction(x) for x in g]) == 0

    def test_dimension_sum(self):
        rng = random.Random(22)
        for _ in range(60):
            net = random_network(rng)
            gens = stoichiometric_generators(net)
            stoi_dim = row_reduce(
                RationalMatrix.from_rows(gens, cols=net.num_species)
            ).rank
            assert stoi_dim + conservation_basis(net).dim == net.num_species


class TestInRowSpace:
    def test_simple_membership(self):
        b = SubspaceBasis(RationalMatrix.from_rows([[1, 1]]))
        assert in_row_space(b, (Fraction(2), Fraction(2)))
        assert not in_row_space(b, (Fraction(1), Fraction(0)))

    def test_receptor_ligand_known_law(self, receptor_ligand):
        basis = conservation_basis(receptor_ligand)
        assert in_row_space(basis, tuple(Fraction(x) for x in (1, 2, 0, 1, 2)))

    def test_dimension_mismatch(self):
        b = SubspaceBasis(RationalMatrix.from_rows([[1, 1]]))
        with pytest.raises(ValueError):
            in_row_space(b, (Fraction(1),))

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            SubspaceBasis(RationalMatrix.from_rows([[1, 1], [2, 2]]))
