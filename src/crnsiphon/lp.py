"""Exact rational linear-program feasibility with verified outcomes.

The only solver exposed is phase-one simplex with Bland's anti-cycling
rule, so every run terminates and every answer is exact.  It pivots on an
integer tableau: each row's denominators are cleared once by a positive
scale, and Edmonds/Bareiss pivots ``(x*piv - f*p) // det`` keep every
entry an integer, the division always exact, so no Fraction is built
inside the loop.  Signs and ratios are compared on integers by
cross-multiplication; the pivot sequence is the one a Fraction tableau
with the same rule would take.  A feasible system returns a basic
feasible point; an infeasible one returns a Farkas certificate:
multipliers that combine the equality rows into a linear form which is
zero on free variables, non-positive on the variables constrained to be
non-negative, yet has a positive right-hand side.  Both kinds of answer
are mapped back to Fractions and re-verified before being returned, by
:func:`verify_witness` and :func:`verify_certificate`: they test every
row in integers after their own scaling and share no code with the
pivots.

Systems are stated as ``A x = b`` plus per-variable domains: each variable
is free, constrained ``>= 0``, or pinned to ``0`` (pinning dominates).  An
optional extra row requires a designated linear form to equal 1, which is
how strict-positivity questions are asked (scale invariance turns
"exists x with f(x) > 0" into "exists x with f(x) = 1").

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


@dataclass(frozen=True)
class LinearSystem:
    num_vars: int
    eq_coeffs: tuple[Vec, ...]
    eq_rhs: Vec
    nonneg: frozenset[int]
    zero: frozenset[int]
    normalization: Vec | None = None  # extra row: normalization . x == 1

    def __post_init__(self):
        if len(self.eq_coeffs) != len(self.eq_rhs):
            raise ValueError("row/rhs count mismatch")
        for row in self.eq_coeffs:
            if len(row) != self.num_vars:
                raise ValueError("row length does not match num_vars")
        if self.normalization is not None and len(self.normalization) != self.num_vars:
            raise ValueError("normalization length does not match num_vars")
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
        coeffs = RationalMatrix.from_rows([row for row, _ in eq_rows], cols=num_vars).entries
        rhs = tuple(Fraction(b) for _, b in eq_rows)
        norm = None
        if normalization is not None:
            norm = RationalMatrix.from_rows([normalization], cols=num_vars).entries[0]
        return cls(num_vars, coeffs, rhs, frozenset(nonneg), frozenset(zero), norm)

    def all_rows(self) -> tuple[tuple[Vec, ...], Vec]:
        """Equality rows with the normalization row (rhs 1) folded in last."""
        coeffs = self.eq_coeffs
        rhs = self.eq_rhs
        if self.normalization is not None:
            coeffs = coeffs + (self.normalization,)
            rhs = rhs + (Fraction(1),)
        return coeffs, rhs


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Vec | None = None
    certificate: Vec | None = None  # one multiplier per row (normalization last)

    @property
    def status(self) -> str:
        return "Feasible" if self.feasible else "Infeasible"


def verify_witness(system: LinearSystem, witness: Sequence[Fraction]) -> bool:
    """Exact check that the point satisfies every row and domain.

    Integer arithmetic only: the witness is scaled by one positive common
    denominator ``d``, each row ``[a | b]`` by its own, and ``a . x == b``
    is tested as ``a' . x' == b' * d``.
    """
    if len(witness) != system.num_vars:
        return False
    x, d = integer_row(witness)
    coeffs, rhs = system.all_rows()
    for row, b in zip(coeffs, rhs):
        ints, _ = integer_row(row + (b,))
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
    common denominator, each row ``[a | b]`` by its own ``s_i``, and the
    multiplier of row i by ``lcm(s) / s_i`` to undo that; the combined row
    is then a positive multiple of ``sum_i y_i [a_i | b_i]``, so every sign
    it is tested for is the rational one.
    """
    coeffs, rhs = system.all_rows()
    if len(certificate) != len(coeffs):
        return False
    y, _ = integer_row(certificate)
    scaled = [integer_row(row + (b,)) for row, b in zip(coeffs, rhs)]
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
    coeffs, rhs = system.all_rows()
    m = len(coeffs)

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
    ncols = k + m

    # Integer rows: each row is multiplied by its rhs sign and a positive
    # scale clearing its denominators; the artificial column keeps entry 1,
    # so artificial i stands for scale_i times the artificial of row i.
    col_signs = [s for _, s in col_map] + [1]
    tab: list[list[int]] = []
    flips: list[int] = []
    scales: list[int] = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        entries = [coeffs[i][v] for v, _ in col_map]
        entries.append(rhs[i])
        ints, scale = integer_row(entries)
        row = [sign * s * x for s, x in zip(col_signs, ints)]
        row[k:k] = [1 if t == i else 0 for t in range(m)]
        tab.append(row)
        flips.append(sign)
        scales.append(scale)

    # Phase-one objective: minimize the sum of the original artificials,
    # i.e. artificial i at cost 1/scale_i, with the row multiplied by the
    # common multiple `big` of the scales to stay integral.  A positive
    # multiple of the objective and positive rescalings of variables leave
    # every sign and ratio the simplex compares unchanged, so the pivots
    # are those of the same phase one run on the unscaled rows.
    big = lcm(*scales)
    weights = [big // sc for sc in scales]
    obj = [-sum(w * row[j] for w, row in zip(weights, tab)) for j in range(ncols + 1)]
    for i in range(m):
        obj[k + i] += weights[i]

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
        for i in range(m):
            if i != leave_row:
                tab[i] = _bareiss_update(tab[i], prow, enter, piv, det)
        obj = _bareiss_update(obj, prow, enter, piv, det)
        det = piv
        basis[leave_row] = enter

    if all(tab[i][ncols] == 0 for i in range(m) if basis[i] >= k):
        x = [Fraction(0)] * system.num_vars
        for i in range(m):
            if basis[i] < k:
                v, s = col_map[basis[i]]
                x[v] += s * Fraction(tab[i][ncols], det)
        witness = tuple(x)
        if not verify_witness(system, witness):
            raise AssertionError("internal error: witness failed exact re-verification")
        return FeasibilityResult(True, witness=witness)

    # Multiplier of row i is 1 - (reduced cost of its original artificial),
    # and that reduced cost is scale_i * obj[k+i] / (big * det); the sign
    # flip returns it to the original row orientation.
    cert = tuple(
        flips[i] * (1 - Fraction(scales[i] * obj[k + i], big * det)) for i in range(m)
    )
    if not verify_certificate(system, cert):
        raise AssertionError("internal error: certificate failed exact re-verification")
    return FeasibilityResult(False, certificate=cert)


def _bareiss_update(row: list[int], prow: list[int], col: int, piv: int, det: int) -> list[int]:
    """Row after pivoting on ``prow[col] = piv``: ``(x*piv - f*p) // det``."""
    f = row[col]
    if f == 0:
        if piv == det:
            return row
        return [x * piv // det for x in row]
    return [(x * piv - f * p) // det for x, p in zip(row, prow)]


def _homogenized_probe(system: LinearSystem, support: Sequence[int]) -> LinearSystem:
    """System deciding whether some coordinate in `support` is positive
    somewhere on the (nonempty) feasible set: homogenize with a ray
    variable t >= 0 and normalize the sum over `support` to 1."""
    coeffs, rhs = system.all_rows()
    n = system.num_vars
    rows = [(row + (-b,), Fraction(0)) for row, b in zip(coeffs, rhs)]
    norm = [Fraction(0)] * (n + 1)
    for j in support:
        norm[j] = Fraction(1)
    return LinearSystem.build(
        n + 1,
        eq_rows=rows,
        nonneg=tuple(system.nonneg) + (n,),
        zero=tuple(system.zero),
        normalization=norm,
    )


def affine_dim(system: LinearSystem, *, first: FeasibilityResult | None = None) -> int | None:
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

    ``first`` is :func:`feasible`'s result for this same system when the
    caller already has it; it is then not solved again.
    """
    if first is None:
        first = feasible(system)
    if not first.feasible:
        return None
    pinned = set(system.zero)
    unsettled = [j for j in sorted(system.nonneg - system.zero) if first.witness[j] == 0]
    while unsettled:
        probe = feasible(_homogenized_probe(system, unsettled))
        if not probe.feasible:
            pinned.update(unsettled)
            break
        unsettled = [j for j in unsettled if probe.witness[j] == 0]
    free = [j for j in range(system.num_vars) if j not in pinned]
    coeffs, _ = system.all_rows()
    sub = RationalMatrix(tuple(tuple(row[j] for j in free) for row in coeffs), len(free))
    return len(free) - rank(sub)
