"""Exact rational linear-program feasibility with verified outcomes.

The only solver exposed is phase-one simplex with Bland's anti-cycling
rule, so every run terminates and every answer is exact.  A system holds
each row ``[a | b]`` scaled to integers once, when it is stated
(``LinearSystem.rows``; systems that share rows, such as the faces of one
invariant polytope, share them), and it pivots on an integer tableau:
Edmonds/Bareiss pivots ``(x*piv - f*p) // det``
keep every entry an integer, the division always exact, so no Fraction
is built inside the loop.  A unit pivot, one whose entry equals the
current determinant (most pivots on integer data such as the grid's),
leaves a row's entry unchanged wherever the pivot row or the row's
entering entry is zero, so it updates only the pivot row's non-zero
columns of the rows it touches, each by an exact ``f*p // det``; any
other pivot rebuilds its rows with one division of the whole numerator
(see ``_bareiss_update``).  Signs and ratios are compared on integers by
cross-multiplication; the pivot sequence is the one a Fraction tableau
with the same rule would take.  A row that is zero on every variable not
pinned to 0 and has right-hand side 0 (an inert row, such as a net change
outside the siphon in a conservation LP) is left out of the tableau: its
artificial would stay basic at 0 untouched by every pivot, so dropping it
changes no pivot, and its certificate multiplier is 1.  A feasible
system returns a basic feasible point; an infeasible one returns a Farkas
certificate: multipliers that combine the equality rows into a linear
form which is zero on free variables, non-positive on the variables
constrained to be non-negative, yet has a positive right-hand side.  These
answers are where the Fractions are: both kinds are mapped back to
Fractions and re-verified before being returned, by
:func:`verify_witness` and :func:`verify_certificate`: they test every
row of the system in integers, scaling the answer themselves, and share
no code with the pivots.

Systems are stated as ``A x = b`` plus per-variable domains: each variable
is free, constrained ``>= 0``, or pinned to ``0`` (pinning dominates).
:meth:`LinearSystem.build` takes rational rows and an optional
``normalization``: a linear form required to equal 1, appended as the last
row, which is how strict-positivity questions are asked (scale invariance
turns "exists x with f(x) > 0" into "exists x with f(x) = 1").

:func:`affine_dim` finds the coordinates that are zero on the whole
feasible set by witness union: each homogenized probe either shows some
still-unsettled coordinates positive (and settles every coordinate its
witness lifts) or proves all the rest zero, so it takes far fewer LPs
than one probe per coordinate.  The dimension is then one integer rank
over the columns left unpinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from crnsiphon.linalg import RationalMatrix, integer_row, rank

__all__ = [
    "LinearSystem",
    "FeasibilityResult",
    "feasible",
    "affine_dim",
    "verify_witness",
    "verify_certificate",
]

Vec = tuple[Fraction, ...]
IntRow = tuple[tuple[int, ...], int]  # (row * scale, scale), see integer_row
_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class LinearSystem:
    """``A x = b`` plus variable domains.

    ``rows[i] = (ints, scale)`` is row ``[a_i | b_i]`` times a positive
    ``scale``, as :func:`~crnsiphon.linalg.integer_row` returns it; the
    tableau build, both verify gates and :func:`affine_dim` read only these.
    Makers whose rows are already integers pass them as they are;
    :meth:`build` scales rational rows.
    """

    num_vars: int
    rows: tuple[IntRow, ...]
    nonneg: frozenset[int]
    zero: frozenset[int]
    normalization = None  # read, with eq_coeffs, by crnbench/spans.py _tableau_cells

    def __post_init__(self):
        for ints, scale in self.rows:
            if len(ints) != self.num_vars + 1:
                raise ValueError("row length does not match num_vars + 1")
            if scale <= 0:
                raise ValueError("row scale must be positive")
        for i in self.nonneg | self.zero:
            if not 0 <= i < self.num_vars:
                raise ValueError("variable index out of range")

    @classmethod
    def build(
        cls,
        num_vars: int,
        eq_rows: Sequence[tuple[Sequence, object]] = (),
        nonneg: Sequence[int] = (),
        zero: Sequence[int] = (),
        normalization: Sequence | None = None,
    ) -> "LinearSystem":
        """The system of rational rows ``(a, b)``, each ``a . x == b``, with
        ``normalization . x == 1`` appended last when given."""
        stated = [(*a, b) for a, b in eq_rows]
        if normalization is not None:
            stated.append((*normalization, 1))
        rows = tuple((tuple(ints), s) for ints, s in map(integer_row, stated))
        return cls(num_vars, rows, frozenset(nonneg), frozenset(zero))

    @property
    def eq_coeffs(self) -> tuple[tuple[int, ...], ...]:
        """The scaled coefficients ``a_i * scale_i`` of every row."""
        return tuple(ints[:-1] for ints, _ in self.rows)


@dataclass(frozen=True)
class FeasibilityResult:
    witness: Vec | None = None
    certificate: Vec | None = None  # one multiplier per row

    @property
    def feasible(self) -> bool:
        return self.witness is not None


def verify_witness(system: LinearSystem, witness: Sequence[Fraction]) -> bool:
    """Exact check that the point satisfies every row and domain.

    Integer arithmetic only: the witness is scaled by one positive common
    denominator ``d``, each row ``[a | b]`` is read scaled by its own
    (``system.rows``), and ``a . x == b`` is tested as
    ``a' . x' == b' * d``.
    """
    if len(witness) != system.num_vars:
        return False
    x, d = integer_row(witness)
    for ints, _ in system.rows:
        if sum(a * v for a, v in zip(ints, x) if a and v) != ints[-1] * d:
            return False
    for i in range(system.num_vars):
        if i in system.zero:
            if x[i] != 0:
                return False
        elif i in system.nonneg and x[i] < 0:
            return False
    return True


def verify_certificate(system: LinearSystem, certificate: Sequence[Fraction]) -> bool:
    """Exact check that the multipliers prove infeasibility.

    Integer arithmetic only: the certificate is scaled by one positive
    common denominator, each row ``[a | b]`` is read scaled by its own
    ``s_i`` (``system.rows``), and the
    multiplier of row i by ``lcm(s) / s_i`` to undo that; the combined row
    is then a positive multiple of ``sum_i y_i [a_i | b_i]``, so every sign
    it is tested for is the rational one.
    """
    scaled = system.rows
    if len(certificate) != len(scaled):
        return False
    y, _ = integer_row(certificate)
    common = lcm(*(s for _, s in scaled))
    n = system.num_vars
    combined = [0] * (n + 1)
    for yi, (ints, s) in zip(y, scaled):
        if yi:
            w = yi * (common // s)
            for j, a in enumerate(ints):
                if a:
                    combined[j] += w * a
    if combined[n] <= 0:
        return False
    for j in range(n):
        if j in system.zero:
            continue
        if j in system.nonneg:
            if combined[j] > 0:
                return False
        elif combined[j] != 0:
            return False
    return True


def feasible(system: LinearSystem) -> FeasibilityResult:
    """Decide feasibility; the returned witness/certificate re-verifies."""
    rows = system.rows

    # Internal columns: one per non-negative variable, a split pair per
    # free variable; pinned variables are dropped entirely.
    col_map: list[tuple[int, int]] = []  # (original var, sign)
    for j in range(system.num_vars):
        if j in system.zero:
            continue
        col_map.append((j, 1))
        if j not in system.nonneg:
            col_map.append((j, -1))
    k = len(col_map)

    # Integer rows: each row scaled to integers (``system.rows``)
    # and multiplied by its rhs sign; the artificial column keeps entry 1,
    # so artificial i stands for scale_i times the artificial of row i.
    # Inert rows (zero on every live column, rhs 0) are left out, as the
    # module docstring explains; ``kept`` lists the original index of each
    # row that stays.
    tab: list[list[int]] = []
    flips: list[int] = []
    scales: list[int] = []
    kept: list[int] = []
    for i, (ints, scale) in enumerate(rows):
        sign = -1 if ints[-1] < 0 else 1
        row = [sign * s * ints[v] for v, s in col_map]
        if ints[-1] or any(row):
            row.append(sign * ints[-1])
            tab.append(row)
            flips.append(sign)
            scales.append(scale)
            kept.append(i)
    m = len(tab)
    ncols = k + m

    # Phase-one objective: minimize the sum of the original artificials,
    # i.e. artificial i at cost 1/scale_i, with the row multiplied by the
    # common multiple `big` of the scales to stay integral.  A positive
    # multiple of the objective and positive rescalings of variables leave
    # every sign and ratio the simplex compares unchanged, so the pivots
    # are those of the same phase one run on the unscaled rows.  The
    # artificials are unit columns, so their reduced costs start at 0.
    big = lcm(*scales)
    weights = [big // sc for sc in scales]
    obj = [-sum(map(mul, weights, col)) for col in zip(*tab)] if m else [0] * (k + 1)
    obj[k:k] = [0] * m
    for i, row in enumerate(tab):
        row[k:k] = [0] * m
        row[k + i] = 1

    # Edmonds/Bareiss pivots: the current tableau is tab/det and obj/det,
    # and every update divides exactly.
    det = 1
    basis = list(range(k, k + m))
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave_row = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave_row is None:
                    leave_row = i
                    continue
                # compare tab[i][rhs]/a with the best ratio (det cancels)
                lhs = tab[i][ncols] * tab[leave_row][enter]
                best = tab[leave_row][ncols] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave_row]):
                    leave_row = i
        if leave_row is None:
            raise AssertionError("phase-one objective is bounded; no leaving row found")
        prow = tab[leave_row]
        piv = prow[enter]
        support = [(j, p) for j, p in enumerate(prow) if p] if piv == det else None
        for i in range(m):
            if i != leave_row:
                tab[i] = _bareiss_update(tab[i], prow, enter, piv, det, support)
        obj = _bareiss_update(obj, prow, enter, piv, det, support)
        det = piv
        basis[leave_row] = enter

    if all(tab[i][ncols] == 0 for i in range(m) if basis[i] >= k):
        x = [0] * system.num_vars  # the witness times det
        for i in range(m):
            if basis[i] < k:
                v, s = col_map[basis[i]]
                x[v] += s * tab[i][ncols]
        witness = tuple(Fraction(v, det) if v else _ZERO for v in x)
        if not verify_witness(system, witness):
            raise AssertionError("internal error: witness failed exact re-verification")
        return FeasibilityResult(witness=witness)

    # Multiplier of row i is 1 - (reduced cost of its original artificial),
    # and that reduced cost is scale_i * obj[k+i] / (big * det); the sign
    # flip returns it to the original row orientation.  An inert row's
    # multiplier is 1.
    scaled_det = big * det
    cert = [_ONE] * len(rows)
    for i, r in enumerate(kept):
        cert[r] = Fraction(flips[i] * (scaled_det - scales[i] * obj[k + i]), scaled_det)
    cert = tuple(cert)
    if not verify_certificate(system, cert):
        raise AssertionError("internal error: certificate failed exact re-verification")
    return FeasibilityResult(certificate=cert)


def _bareiss_update(
    row: list[int],
    prow: list[int],
    col: int,
    piv: int,
    det: int,
    support: list[tuple[int, int]] | None,
) -> list[int]:
    """Row after pivoting on ``prow[col] = piv``: ``(x*piv - f*p) // det``.

    A unit pivot (``piv == det``, ``support`` the non-zero ``(j, p)`` of
    ``prow``) changes the row in place and only where ``p != 0``: the new
    entry is ``x - f*p/det``, and ``f*p`` is a multiple of ``det`` because
    ``x*det - f*p`` is, so ``f*p // det`` is exact; a row with ``f = 0``
    is left as it is.  Any other pivot rebuilds the row with one floor
    division of the whole numerator, which is exact: ``x*piv`` and ``f*p``
    need not be multiples of ``det`` one by one, so splitting it would rest
    on their remainders cancelling and cost a second division per entry.
    """
    f = row[col]
    if support is not None:
        if f:
            for j, p in support:
                row[j] -= f * p // det
        return row
    if f == 0:
        return [x * piv // det for x in row]
    return [(x * piv - f * p) // det for x, p in zip(row, prow)]


def _homogenized_probe(system: LinearSystem, support: Sequence[int]) -> LinearSystem:
    """System deciding whether some coordinate in `support` is positive
    somewhere on the (nonempty) feasible set: homogenize with a ray
    variable t >= 0 and normalize the sum over `support` to 1.

    Each row ``[a | b]`` becomes ``[a, -b | 0]``, with the same scale."""
    n = system.num_vars
    inside = set(support)
    norm = tuple(1 if j in inside else 0 for j in range(n + 1)) + (1,)
    rows = tuple((ints[:-1] + (-ints[-1], 0), s) for ints, s in system.rows)
    return LinearSystem(n + 1, rows + ((norm, 1),), system.nonneg | {n}, system.zero)


def affine_dim(system: LinearSystem, *, first: Sequence[Fraction] | None = None) -> int | None:
    """Dimension of the affine hull of the feasible set, or None if empty.

    The sign constraints that hold with equality across the whole set are
    found by witness union: start from the non-negative coordinates that
    are zero in a first feasible point; one homogenized probe asks whether
    any of them is positive somewhere (a probe point with t > 0 scales back
    into the set, one with t = 0 is a recession direction that lifts its
    support off zero when added to a point of the set).  A feasible probe
    clears every coordinate positive in its witness; an infeasible one
    proves all that remain are zero on the whole set.  With P the pinned
    coordinates (the explicit and the implicit ones), the hull is cut out
    by the equality rows and ``x_P = 0``, so its dimension is
    ``(n - |P|) - rank(A[:, not P])``: one integer rank over the columns
    that are not pinned.

    ``first`` is a point of the feasible set when the caller already has
    one, such as :func:`feasible`'s witness; the system is then not solved
    again.  A point that fails :func:`verify_witness` raises ValueError.
    """
    if first is None:
        result = feasible(system)
        if not result.feasible:
            return None
        first = result.witness
    elif not verify_witness(system, first):
        raise ValueError("first is not a feasible point of the system")
    pinned = set(system.zero)
    unsettled = [j for j in sorted(system.nonneg - system.zero) if first[j] == 0]
    while unsettled:
        probe = feasible(_homogenized_probe(system, unsettled))
        if not probe.feasible:
            pinned.update(unsettled)
            break
        unsettled = [j for j in unsettled if probe.witness[j] == 0]
    free = [j for j in range(system.num_vars) if j not in pinned]
    # a positive scale per row leaves the rank unchanged
    sub = RationalMatrix(tuple(tuple(ints[j] for j in free) for ints, _ in system.rows), len(free))
    return len(free) - rank(sub)
