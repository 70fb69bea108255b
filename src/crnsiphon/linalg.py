"""Exact rational linear algebra for conservation-law computations.

Inputs and outputs are :class:`fractions.Fraction`; nothing here ever
rounds.  Inside, every row is scaled once to integers by
:func:`integer_row`, and the elimination loops run on Python ints only:
:func:`rank` is a fraction-free (Bareiss) forward pass, and
:func:`row_reduce` follows that pass with an integer back-substitution
that clears each pivot column by cross-multiplication and divides every
updated row by its content.  Fractions are built once, when the reduced
row echelon form is returned.  Output bases are integer vectors with
content 1 and a positive leading entry, so they are directly comparable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from crnsiphon.network import ReactionNetwork

__all__ = [
    "RationalMatrix",
    "RowReduction",
    "SubspaceBasis",
    "rank",
    "row_reduce",
    "kernel_vectors",
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


def integer_row(row: Sequence) -> tuple[list[int], int]:
    """``(row * scale, scale)`` as ints, with ``scale`` the least positive
    integer clearing every denominator of the row.

    Entries may be ints, Fractions or anything ``Fraction`` accepts; an
    entry without ``.denominator`` makes the whole row go through
    ``Fraction`` first.
    """
    try:
        scale = lcm(*{x.denominator for x in row})
    except AttributeError:
        row = [Fraction(x) for x in row]
        scale = lcm(*{x.denominator for x in row})
    if scale == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _bareiss_forward(rows: list[list[int]], ncols: int) -> list[tuple[int, int]]:
    """Fraction-free forward elimination of integer ``rows`` in place.

    One-step Bareiss: every row below the pivot is updated at every step
    (the exact division by the previous pivot relies on that).  Returns the
    (row, column) of each pivot, pivot columns in increasing order; the rows
    past the last pivot are left zero.
    """
    nrows = len(rows)
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
        prow = rows[r]
        piv = prow[c]
        for i in range(r + 1, nrows):
            fi = rows[i][c]
            if fi:
                rows[i] = [(piv * x - fi * p) // prev_piv for x, p in zip(rows[i], prow)]
            elif piv != prev_piv:
                rows[i] = [piv * x // prev_piv for x in rows[i]]
        prev_piv = piv
        pivots.append((r, c))
        r += 1
    return pivots


def rank(m: RationalMatrix) -> int:
    """Rank of ``m`` by one fraction-free forward pass on integer rows."""
    return len(_bareiss_forward([integer_row(r)[0] for r in m.entries], m.cols))


def row_reduce(m: RationalMatrix) -> RowReduction:
    """Rank, RREF, and pivot columns (pivot order fixed by column order).

    The forward pass is the one of :func:`rank`.  The back-substitution
    stays on integers: the pivot rows are divided by their content, then,
    from the last pivot up, each row above is updated to
    ``row * piv - f * prow`` (``f`` its entry in the pivot column) and
    divided by its content.  Each row of the RREF is then its integer row
    over its pivot entry, one Fraction per entry.
    """
    rows = [integer_row(r)[0] for r in m.entries]
    ncols = m.cols
    pivots = _bareiss_forward(rows, ncols)
    for pr, _ in pivots:
        g = gcd(*rows[pr])
        if g > 1:
            rows[pr] = [x // g for x in rows[pr]]
    for k in range(len(pivots) - 1, 0, -1):
        pr, pc = pivots[k]
        prow = rows[pr]
        piv = prow[pc]
        for i in range(pr):
            f = rows[i][pc]
            if f:
                row = [x * piv - f * p for x, p in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
    zero = Fraction(0)
    out = []
    for i, row in enumerate(rows):
        if i < len(pivots):
            piv = row[pivots[i][1]]
            out.append(tuple(Fraction(x, piv) if x else zero for x in row))
        else:
            out.append((zero,) * ncols)
    return RowReduction(
        rank=len(pivots),
        rref=RationalMatrix(tuple(out), ncols),
        pivot_cols=tuple(c for _, c in pivots),
    )


def normalize_integer_vector(v: Sequence[Fraction], fix_sign: bool = True) -> Vec:
    """Scale to integer entries with content 1; by default also flip the
    sign so the first nonzero entry is positive (skip that for vectors
    whose orientation is meaningful, e.g. facet normals)."""
    ints, _ = integer_row(v)
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


def kernel_vectors(red: RowReduction, fix_sign: bool = True) -> list[Vec]:
    """One kernel vector of the reduced matrix per free column f of its
    RREF, in column order: 1 at f, minus column f of the RREF at the pivot
    columns, 0 elsewhere, scaled by :func:`normalize_integer_vector`
    (``fix_sign`` as there; without it the entry at f stays positive)."""
    cols = red.rref.cols
    zero, one = Fraction(0), Fraction(1)
    vectors = []
    for f in range(cols):
        if f in red.pivot_cols:
            continue
        vec = [zero] * cols
        vec[f] = one
        for i, pc in enumerate(red.pivot_cols):
            vec[pc] = -red.rref.entries[i][f]
        vectors.append(normalize_integer_vector(vec, fix_sign))
    return vectors


def nullspace_basis(m: RationalMatrix) -> RationalMatrix:
    """Integer-normalized row basis of ``{v : m v = 0}``."""
    return RationalMatrix(tuple(kernel_vectors(row_reduce(m))), m.cols)


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent rows spanning a subspace of R^n."""

    matrix: RationalMatrix

    def __post_init__(self):
        if rank(self.matrix) != self.matrix.rows:
            raise ValueError("basis rows are linearly dependent")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def ambient_dim(self) -> int:
        return self.matrix.cols


def conservation_basis(net: "ReactionNetwork") -> SubspaceBasis:
    """Integer basis of the conservation space (orthogonal complement of the
    span of the reaction net-change vectors), computed once per network."""
    return net._conservation_basis


def in_row_space(basis: SubspaceBasis | RationalMatrix, v: Sequence[Fraction]) -> bool:
    """True iff ``v`` is a rational combination of the basis rows."""
    m = basis.matrix if isinstance(basis, SubspaceBasis) else basis
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    stacked = m.stack(RationalMatrix.from_rows([v], cols=m.cols))
    return rank(stacked) == rank(m)
