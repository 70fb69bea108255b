"""Exact linear algebra for conservation-law computations.

A matrix holds Python ints or Fractions, and nothing here ever rounds.  The
data of a network are integer, and so is everything this module derives
from them: the elimination loops run on Python ints only, each row scaled
once to integers by :func:`integer_row` (a row of ints is taken as it is).
:func:`rank` is a fraction-free (Bareiss) forward pass, and
:func:`row_reduce` follows that pass with an integer back-substitution that
clears each pivot column by cross-multiplication and divides every updated
row by its content.  Kernel vectors and solutions are read off those
integer pivot rows as primitive integer vectors, with content 1 (and, for
bases, a positive leading entry), so they are directly comparable across
runs.  The reduced row echelon form, the one matrix of Fractions, is built
only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

IntVec = tuple[int, ...]


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum(a * b for a, b in zip(u, v) if a and b)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of ints and Fractions; `cols` is explicit so 0-row
    shapes work."""

    entries: tuple[tuple, ...]
    cols: int

    def __post_init__(self):
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], cols: int | None = None) -> "RationalMatrix":
        """Rows as given; an entry that is neither an int nor a Fraction
        goes through ``Fraction``."""
        data = tuple(
            tuple(x if type(x) is int or isinstance(x, Fraction) else Fraction(x) for x in row)
            for row in rows
        )
        if cols is None:
            if not data:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(data[0])
        return cls(data, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.cols != self.cols:
            raise ValueError("column count mismatch in stack")
        return RationalMatrix(self.entries + other.entries, self.cols)

    def matvec(self, v: Sequence) -> tuple:
        return tuple(dot(row, v) for row in self.entries)


@dataclass(frozen=True)
class RowReduction:
    """The pivot columns of a matrix and its back-substituted integer pivot
    rows: ``pivot_rows[i]`` has content 1 and is zero at every pivot column
    but ``pivot_cols[i]``, so it is row i of the RREF times its pivot."""

    pivot_cols: tuple[int, ...]
    pivot_rows: tuple[IntVec, ...]
    shape: tuple[int, int]  # (rows, cols) of the reduced matrix

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @cached_property
    def rref(self) -> RationalMatrix:
        """The reduced row echelon form, zero rows included, as Fractions;
        built when first read."""
        nrows, ncols = self.shape
        zero = Fraction(0)
        out = [
            tuple(Fraction(x, row[c]) if x else zero for x in row)
            for row, c in zip(self.pivot_rows, self.pivot_cols)
        ]
        out += [(zero,) * ncols] * (nrows - self.rank)
        return RationalMatrix(tuple(out), ncols)

    def scaled_column(self, f: int) -> tuple[IntVec, int]:
        """Column f of the RREF at the pivot rows as ``(x, scale)``, with
        ``x[i] / scale`` its entry i: ``scale`` is the lcm of the pivots of
        the rows that are non-zero at f (1 when none is), and ``x[i]`` is
        ``pivot_rows[i][f]`` times ``scale`` over that row's pivot."""
        used = [(row[f], row[c]) for row, c in zip(self.pivot_rows, self.pivot_cols)]
        scale = lcm(*(piv for x, piv in used if x))
        return tuple(x * (scale // piv) if x else 0 for x, piv in used), scale


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
    """Pivot columns (in column order) and integer pivot rows of ``m``.

    The forward pass is the one of :func:`rank`.  The back-substitution
    stays on integers: the pivot rows are divided by their content, then,
    from the last pivot up, each row above is updated to
    ``row * piv - f * prow`` (``f`` its entry in the pivot column) and
    divided by its content.  Each row of the RREF is its integer row over
    its pivot entry; :attr:`RowReduction.rref` builds those Fractions only
    when it is read.
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
    return RowReduction(
        pivot_cols=tuple(c for _, c in pivots),
        pivot_rows=tuple(tuple(rows[r]) for r, _ in pivots),
        shape=(m.rows, ncols),
    )


def normalize_integer_vector(v: Sequence, fix_sign: bool = True) -> IntVec:
    """Scale to integer entries with content 1; by default also flip the
    sign so the first nonzero entry is positive (skip that for vectors
    whose orientation is meaningful, e.g. facet normals)."""
    ints, _ = integer_row(v)
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    if fix_sign and next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def kernel_vectors(red: RowReduction, fix_sign: bool = True) -> list[IntVec]:
    """One primitive integer kernel vector of the reduced matrix per free
    column f, in column order.  With ``(x, scale)`` the
    :meth:`RowReduction.scaled_column` of f, the vector is ``scale`` at f,
    ``-x[i]`` at pivot column i and 0 elsewhere (the RREF's kernel vector
    with 1 at f, times ``scale``), divided by its content.  ``fix_sign`` as
    in :func:`normalize_integer_vector`; without it the entry at f stays
    positive."""
    vectors = []
    for f in sorted(set(range(red.shape[1])) - set(red.pivot_cols)):
        x, scale = red.scaled_column(f)
        vec = [0] * red.shape[1]
        vec[f] = scale
        for pc, xi in zip(red.pivot_cols, x):
            vec[pc] = -xi
        vectors.append(normalize_integer_vector(vec, fix_sign))
    return vectors


def nullspace_basis(m: RationalMatrix) -> RationalMatrix:
    """Primitive integer row basis of ``{v : m v = 0}``."""
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


def conservation_basis(net: "ReactionNetwork") -> SubspaceBasis:
    """Integer basis of the conservation space (orthogonal complement of the
    span of the reaction net-change vectors), computed once per network."""
    return net._conservation_basis


def in_row_space(basis: SubspaceBasis | RationalMatrix, v: Sequence) -> bool:
    """True iff ``v`` is a rational combination of the basis rows."""
    m = basis.matrix if isinstance(basis, SubspaceBasis) else basis
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    stacked = m.stack(RationalMatrix.from_rows([v], cols=m.cols))
    return rank(stacked) == rank(m)
