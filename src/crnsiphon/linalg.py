"""Exact rational linear algebra for conservation-law computations.

All arithmetic is over :class:`fractions.Fraction`; nothing here ever
rounds.  Row reduction runs a fraction-free (Bareiss) forward pass over an
integer-scaled copy of the matrix to bound coefficient growth, then
normalizes to reduced row echelon form.  Output bases are integer vectors
with content 1 and a positive leading entry, so they are directly
comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from crnsiphon.network import ReactionNetwork

__all__ = [
    "RationalMatrix",
    "RowReduction",
    "SubspaceBasis",
    "row_reduce",
    "nullspace_basis",
    "conservation_basis",
    "in_row_space",
    "normalize_integer_vector",
    "dot",
]

Vec = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of Fractions; `cols` is explicit so 0-row shapes work."""

    entries: tuple[Vec, ...]
    cols: int

    def __post_init__(self):
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], cols: int | None = None) -> "RationalMatrix":
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(data[0])
        return cls(data, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "RationalMatrix":
        data = tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols))
        return RationalMatrix(data, self.rows)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.cols != self.cols:
            raise ValueError("column count mismatch in stack")
        return RationalMatrix(self.entries + other.entries, self.cols)

    def matvec(self, v: Sequence[Fraction]) -> Vec:
        return tuple(dot(row, v) for row in self.entries)


@dataclass(frozen=True)
class RowReduction:
    rank: int
    rref: RationalMatrix
    pivot_cols: tuple[int, ...]


def _integerize(row: Sequence[Fraction]) -> list[int]:
    scale = 1
    for x in row:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    return [int(x * scale) for x in row]


def row_reduce(m: RationalMatrix) -> RowReduction:
    """Rank, RREF, and pivot columns (pivot order fixed by column order).

    Forward pass is one-step Bareiss on an integer-scaled copy; every row
    below the pivot is updated at every step (the exact division relies on
    that), then a rational back-substitution produces the RREF.
    """
    rows = [_integerize(r) for r in m.entries]
    nrows, ncols = len(rows), m.cols
    pivots: list[tuple[int, int]] = []
    prev_piv = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            fi = rows[i][c]
            rows[i] = [(piv * rows[i][j] - fi * rows[r][j]) // prev_piv for j in range(ncols)]
        prev_piv = piv
        pivots.append((r, c))
        r += 1

    frac_rows = [[Fraction(x) for x in row] for row in rows]
    for k in range(len(pivots) - 1, -1, -1):
        pr, pc = pivots[k]
        piv = frac_rows[pr][pc]
        frac_rows[pr] = [x / piv for x in frac_rows[pr]]
        prow = frac_rows[pr]
        for i in range(pr):
            f = frac_rows[i][pc]
            if f:
                frac_rows[i] = [x - f * p for x, p in zip(frac_rows[i], prow)]
    return RowReduction(
        rank=len(pivots),
        rref=RationalMatrix(tuple(tuple(row) for row in frac_rows), ncols),
        pivot_cols=tuple(c for _, c in pivots),
    )


def normalize_integer_vector(v: Sequence[Fraction], fix_sign: bool = True) -> Vec:
    """Scale to integer entries with content 1; by default also flip the
    sign so the first nonzero entry is positive (skip that for vectors
    whose orientation is meaningful, e.g. facet normals)."""
    ints = _integerize([_frac(x) for x in v])
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


def nullspace_basis(m: RationalMatrix) -> RationalMatrix:
    """Integer-normalized row basis of ``{v : m v = 0}``."""
    red = row_reduce(m)
    pivot_set = set(red.pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for i, pc in enumerate(red.pivot_cols):
            vec[pc] = -red.rref.entries[i][f]
        basis.append(normalize_integer_vector(vec))
    return RationalMatrix(tuple(basis), m.cols)


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent rows spanning a subspace of R^n."""

    matrix: RationalMatrix

    def __post_init__(self):
        if row_reduce(self.matrix).rank != self.matrix.rows:
            raise ValueError("basis rows are linearly dependent")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def ambient_dim(self) -> int:
        return self.matrix.cols


def conservation_basis(net: "ReactionNetwork") -> SubspaceBasis:
    """Integer basis of the conservation space (orthogonal complement of the
    span of the reaction net-change vectors)."""
    from crnsiphon.network import stoichiometric_generators

    gens = stoichiometric_generators(net)
    m = RationalMatrix.from_rows(gens, cols=net.num_species)
    return SubspaceBasis(nullspace_basis(m))


def in_row_space(basis: SubspaceBasis | RationalMatrix, v: Sequence[Fraction]) -> bool:
    """True iff ``v`` is a rational combination of the basis rows."""
    m = basis.matrix if isinstance(basis, SubspaceBasis) else basis
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    base_rank = row_reduce(m).rank
    stacked = m.stack(RationalMatrix.from_rows([v], cols=m.cols))
    return row_reduce(stacked).rank == base_rank
