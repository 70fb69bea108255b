"""Exact LP feasibility: witnesses, Farkas certificates, affine dimension."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import crnsiphon.lp as lp_module
import crnsiphon.relevance as relevance_module
from conftest import random_network
from crnsiphon.linalg import RationalMatrix, rank, row_reduce
from crnsiphon.lp import (
    LinearSystem,
    affine_dim,
    feasible,
    verify_certificate,
    verify_witness,
)
from crnsiphon.relevance import analyze, supported_conservation_system
from crnsiphon.siphons import Siphon

F = Fraction


def _stated_rows(system):
    """The rational rows ``[a | b]`` a system states: each integer row
    divided by its scale."""
    return [[F(x, scale) for x in ints] for ints, scale in system.rows]


def _simple(num_vars, rows, nonneg=(), zero=(), normalization=None):
    system = LinearSystem.build(
        num_vars, eq_rows=rows, nonneg=nonneg, zero=zero, normalization=normalization
    )
    given = [[*a, b] for a, b in rows]
    if normalization is not None:
        given.append([*normalization, 1])
    assert _stated_rows(system) == given
    return system


def _assert_verified(system):
    """Solve and check the answer with the verifier for its kind."""
    res = feasible(system)
    if res.feasible:
        assert res.certificate is None
        assert verify_witness(system, res.witness)
    else:
        assert res.witness is None
        assert verify_certificate(system, res.certificate)
    return res


def _reference_feasible(system):
    """Phase-one simplex on a tableau of Fractions with Bland's rule: the
    same pivot rule as the kernel, in the plainest arithmetic."""
    stated = _stated_rows(system)
    coeffs = [row[:-1] for row in stated]
    rhs = [row[-1] for row in stated]
    m = len(coeffs)
    cols = []
    for j in range(system.num_vars):
        if j not in system.zero:
            cols.append((j, 1))
            if j not in system.nonneg:
                cols.append((j, -1))
    k = len(cols)
    flips = [-1 if b < 0 else 1 for b in rhs]
    tab = [
        [f * row[v] * sg for v, sg in cols] + [Fraction(int(t == i)) for t in range(m)] + [f * b]
        for i, (row, b, f) in enumerate(zip(coeffs, rhs, flips))
    ]
    obj = [int(j >= k) - sum(r[j] for r in tab) for j in range(k + m)] + [0]
    basis = list(range(k, k + m))
    while (enter := next((j for j in range(k + m) if obj[j] < 0), None)) is not None:
        rows = [i for i in range(m) if tab[i][enter] > 0]
        r = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        tab[r] = [x / tab[r][enter] for x in tab[r]]
        for i in range(m):
            if i != r:
                tab[i] = [x - tab[i][enter] * p for x, p in zip(tab[i], tab[r])]
        obj = [x - obj[enter] * p for x, p in zip(obj, tab[r])]
        basis[r] = enter
    if all(tab[i][-1] == 0 for i in range(m) if basis[i] >= k):
        x = [Fraction(0)] * system.num_vars
        for i in range(m):
            if basis[i] < k:
                v, sg = cols[basis[i]]
                x[v] += sg * tab[i][-1]
        return tuple(x), None
    return None, tuple(f * (1 - obj[k + i]) for i, f in enumerate(flips))


def _pins_by_probes(system):
    """Coordinates zero on the whole (nonempty) feasible set, by one
    homogenized positivity probe for every non-negative coordinate."""
    n = system.num_vars
    pinned = set(system.zero)
    for j in sorted(system.nonneg - system.zero):
        probe = LinearSystem.build(
            n + 1,
            eq_rows=[(row[:-1] + [-row[-1]], 0) for row in _stated_rows(system)],
            nonneg=tuple(system.nonneg) + (n,),
            zero=tuple(system.zero),
            normalization=[int(i == j) for i in range(n + 1)],
        )
        if not feasible(probe).feasible:
            pinned.add(j)
    return pinned


def _unit_row_dim(system, pinned):
    """Dimension of ``{A x = b, x_P = 0}`` as ``n - rank([A; e_P])``, with
    the unit rows written out and ranked by ``row_reduce``."""
    n = system.num_vars
    rows = [r[:-1] for r in _stated_rows(system)]
    rows += [[int(i == j) for i in range(n)] for j in sorted(pinned)]
    if not rows:
        return n
    return n - row_reduce(RationalMatrix.from_rows(rows, cols=n)).rank


def _affine_dim_oracle(system):
    """The per-coordinate definition: one homogenized positivity probe for
    every non-negative coordinate, then a rank."""
    if not feasible(system).feasible:
        return None
    return _unit_row_dim(system, _pins_by_probes(system))


def _affine_corpus():
    """240 systems, many feasible with coordinates pinned on the whole set."""
    rng = random.Random(29)
    for _ in range(240):
        n = rng.randint(1, 6)
        m = rng.randint(0, 3)
        # rhs from a point with some zero coordinates, so that many
        # systems are feasible with coordinates pinned on the whole set
        point = [
            F(rng.randint(0, 3), rng.randint(1, 2)) if rng.random() < 0.6 else F(0)
            for _ in range(n)
        ]
        rows = []
        for _ in range(m):
            row = [F(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(n)]
            b = sum((a * x for a, x in zip(row, point)), F(0))
            rows.append((row, b if rng.random() < 0.85 else b + 1))
        nonneg = [j for j in range(n) if rng.random() < 0.8]
        zero = [j for j in range(n) if rng.random() < 0.1]
        norm = [F(rng.randint(0, 2)) for _ in range(n)] if rng.random() < 0.2 else None
        yield _simple(n, rows, nonneg=nonneg, zero=zero, normalization=norm)


def _reference_verify_witness(system, witness):
    """The gate in Fraction arithmetic, row by row."""
    if len(witness) != system.num_vars:
        return False
    for row in _stated_rows(system):
        if sum((a * x for a, x in zip(row[:-1], witness)), F(0)) != row[-1]:
            return False
    for i in range(system.num_vars):
        if i in system.zero:
            if witness[i] != 0:
                return False
        elif i in system.nonneg and witness[i] < 0:
            return False
    return True


def _reference_verify_certificate(system, certificate):
    """The Farkas check in Fraction arithmetic, column by column."""
    stated = _stated_rows(system)
    if len(certificate) != len(stated):
        return False
    if sum((y * row[-1] for y, row in zip(certificate, stated)), F(0)) <= 0:
        return False
    for j in range(system.num_vars):
        if j in system.zero:
            continue
        combined = sum((y * row[j] for y, row in zip(certificate, stated)), F(0))
        if j in system.nonneg:
            if combined > 0:
                return False
        elif combined != 0:
            return False
    return True


def _perturbations(rng, vec, pinned):
    """Copies of `vec` with one numerator moved by one, one sign flipped,
    one denominator changed, and a nonzero value on a pinned coordinate."""
    out = []
    for _ in range(3):
        i = rng.randrange(len(vec))
        x = vec[i]
        v = list(vec)
        v[i] = F(x.numerator + rng.choice((-1, 1)), x.denominator)
        out.append(tuple(v))
        v = list(vec)
        v[i] = -x if x else F(-1, rng.randint(1, 4))
        out.append(tuple(v))
        v = list(vec)
        v[i] = F(x.numerator or 1, x.denominator * rng.choice((2, 3, 5)))
        out.append(tuple(v))
    for j in pinned:
        v = list(vec)
        v[j] = F(rng.choice((-1, 1)), rng.randint(1, 3))
        out.append(tuple(v))
    return out


class TestFeasible:
    def test_pinned_variable_cannot_be_one(self):
        sys_ = _simple(1, [], nonneg=[0], zero=[0], normalization=[1])
        res = feasible(sys_)
        assert not res.feasible
        assert verify_certificate(sys_, res.certificate)

    def test_unit_segment(self):
        sys_ = _simple(2, [([1, 1], 1)], nonneg=[0, 1])
        res = feasible(sys_)
        assert res.feasible
        assert verify_witness(sys_, res.witness)
        # phase-one simplex lands on a vertex of the segment
        assert res.witness in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_supported_conservation_law_for_cde(self, receptor_ligand):
        z = Siphon.from_names(receptor_ligand, ["C", "D", "E"])
        sys_ = supported_conservation_system(receptor_ligand, z.members)
        res = feasible(sys_)
        assert res.feasible
        third = Fraction(1, 3)
        assert res.witness == (0, 0, third, third, third)

    def test_empty_system_is_feasible(self):
        res = feasible(_simple(3, []))
        assert res.feasible
        assert res.witness == (0, 0, 0)

    def test_zero_vars_infeasible_rhs(self):
        sys_ = _simple(1, [([1], 5)], zero=[0])
        res = feasible(sys_)
        assert not res.feasible
        assert verify_certificate(sys_, res.certificate)

    def test_free_variable_equality(self):
        sys_ = _simple(1, [([2], -3)])
        res = feasible(sys_)
        assert res.feasible
        assert res.witness == (Fraction(-3, 2),)

    def test_determinism(self):
        sys_ = _simple(3, [([1, 1, 1], 2), ([1, -1, 0], 0)], nonneg=[0, 1, 2])
        first = feasible(sys_)
        for _ in range(5):
            assert feasible(sys_) == first

    def test_random_systems_always_verify(self):
        rng = random.Random(17)
        feasible_count = infeasible_count = 0
        for _ in range(250):
            n = rng.randint(1, 6)
            m = rng.randint(0, 4)
            rows = [
                ([Fraction(rng.randint(-3, 3)) for _ in range(n)], Fraction(rng.randint(-4, 4)))
                for _ in range(m)
            ]
            nonneg = [j for j in range(n) if rng.random() < 0.6]
            zero = [j for j in range(n) if rng.random() < 0.15]
            norm = None
            if rng.random() < 0.3:
                norm = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            sys_ = _simple(n, rows, nonneg=nonneg, zero=zero, normalization=norm)
            res = feasible(sys_)
            if res.feasible:
                feasible_count += 1
                assert verify_witness(sys_, res.witness)
            else:
                infeasible_count += 1
                assert verify_certificate(sys_, res.certificate)
        assert feasible_count > 0 and infeasible_count > 0


class TestRationalKernel:
    """Systems whose rows need denominators cleared before integer pivots."""

    def test_thirds_and_fifths_with_mixed_signs(self):
        rows = [([F(1, 3), F(-2, 5), F(3, 5)], F(2, 15)), ([F(-1, 3), F(1, 5), F(2, 3)], F(1, 5))]
        res = _assert_verified(_simple(3, rows, nonneg=[0, 1, 2]))
        assert res.feasible

    def test_negative_right_hand_sides(self):
        rows = [([F(-1, 3), F(-1, 5)], F(-7, 15)), ([F(2, 3), F(-1, 5)], F(-1, 3))]
        res = _assert_verified(_simple(2, rows, nonneg=[0, 1]))
        assert res.feasible
        # both sides negated: the same point solves it
        flipped = [([-a for a in row], -b) for row, b in rows]
        assert _assert_verified(_simple(2, flipped, nonneg=[0, 1])).witness == res.witness

    def test_negative_rhs_without_a_non_negative_solution(self):
        rows = [([F(1, 3), F(2, 5)], F(-1, 7))]
        res = _assert_verified(_simple(2, rows, nonneg=[0, 1]))
        assert not res.feasible

    def test_free_and_pinned_variables(self):
        # x0 free, x1 >= 0, x2 pinned: x0 + x2 = -5/3 forces x0 = -5/3
        rows = [([F(1), F(0), F(1)], F(-5, 3)), ([F(1, 5), F(1, 3), F(7, 2)], F(0))]
        res = _assert_verified(_simple(3, rows, nonneg=[1], zero=[2]))
        assert res.witness == (F(-5, 3), F(1), F(0))

    def test_pinned_variable_makes_rational_system_infeasible(self):
        rows = [([F(2, 3), F(1, 5)], F(4, 9))]
        assert _assert_verified(_simple(2, rows, nonneg=[0, 1])).feasible
        # x0 = 0 forces x1 = 20/9, which the normalization x1 = 1 excludes
        pinned = _simple(2, rows, nonneg=[1], zero=[0], normalization=[0, 1])
        assert not _assert_verified(pinned).feasible

    def test_rational_normalization_row(self):
        rows = [([F(1, 3), F(-1, 3), F(0)], F(0))]
        norm = [F(1, 5), F(1, 5), F(2, 5)]
        assert _assert_verified(_simple(3, rows, nonneg=[0, 1, 2], normalization=norm)).feasible
        # a normalization that is non-positive on the cone cannot equal 1
        bad = _simple(3, rows, nonneg=[0, 1, 2], normalization=[F(-1, 5), F(-1, 3), F(0)])
        assert not _assert_verified(bad).feasible

    def test_beale_degenerate_example(self):
        # Beale's example: the largest-coefficient rule cycles on it.
        # Written as a feasibility question on its optimal value -1/20.
        def beale(bound):
            rows = [
                ([F(1, 4), -60, F(-1, 25), 9, 1, 0, 0, 0], 0),
                ([F(1, 2), -90, F(-1, 50), 3, 0, 1, 0, 0], 0),
                ([0, 0, 1, 0, 0, 0, 1, 0], 1),
                ([F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0, 1], bound),
            ]
            return _simple(8, rows, nonneg=range(8))

        at_optimum = _assert_verified(beale(F(-1, 20)))
        assert at_optimum.witness[:4] == (F(1, 25), 0, 1, 0)
        assert not _assert_verified(beale(F(-1, 20) - F(1, 100))).feasible

    def test_same_pivots_as_the_fraction_tableau(self, monkeypatch):
        # Rational rows give pivots off the determinant (piv != det), on
        # rows with a zero and a non-zero entering entry; sparse {-1, 0, 1}
        # rows give mostly unit pivots (piv == det), the sparse update.
        rng = random.Random(41)
        paths = set()
        real_update = lp_module._bareiss_update

        def traced(row, prow, col, piv, det, support):
            paths.add((piv == det, row[col] == 0))
            return real_update(row, prow, col, piv, det, support)

        monkeypatch.setattr(lp_module, "_bareiss_update", traced)

        def rational():
            return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5, 6)))

        def unit():
            return F(rng.choice((-1, 0, 0, 0, 1)))

        kinds = set()
        for q, max_n, max_m in [(rational, 6, 4)] * 300 + [(unit, 12, 10)] * 200:
            n = rng.randint(1, max_n)
            m = rng.randint(0, max_m)
            rows = [([q() for _ in range(n)], q()) for _ in range(m)]
            nonneg = [j for j in range(n) if rng.random() < 0.7]
            zero = [j for j in range(n) if rng.random() < 0.1]
            norm = [q() for _ in range(n)] if rng.random() < 0.4 else None
            sys_ = _simple(n, rows, nonneg=nonneg, zero=zero, normalization=norm)
            res = _assert_verified(sys_)
            assert (res.witness, res.certificate) == _reference_feasible(sys_)
            kinds.add(res.feasible)
        assert kinds == {True, False}
        assert paths == {(True, True), (True, False), (False, True), (False, False)}

    def test_inert_rows_leave_the_tableau(self, monkeypatch):
        # x2 is pinned, so the rows reading only x2 with rhs 0 are inert:
        # the tableau keeps 2 live columns, 2 rows with their artificials
        # and the rhs, and each inert row's multiplier is 1
        widths = set()
        real_update = lp_module._bareiss_update

        def traced(row, prow, col, piv, det, support):
            widths.add(len(row))
            return real_update(row, prow, col, piv, det, support)

        monkeypatch.setattr(lp_module, "_bareiss_update", traced)
        inert = ([0, 0, 5], 0)
        solvable = _simple(
            3, [([1, 1, 0], 2), inert, ([1, -1, 0], 0), ([0, 0, -2], 0)], nonneg=[0, 1], zero=[2]
        )
        unsolvable = _simple(3, [([1, 1, 0], 2), inert, ([1, 1, 0], 3)], nonneg=[0, 1], zero=[2])
        for system in (solvable, unsolvable):
            res = _assert_verified(system)
            assert (res.witness, res.certificate) == _reference_feasible(system)
        assert feasible(solvable).witness == (1, 1, 0)
        assert feasible(unsolvable).certificate[1] == 1
        assert widths == {5}

    def test_same_answers_as_the_fraction_tableau_on_the_grid(self, grid5, monkeypatch):
        # every LP of one grid5 analysis: conservation laws, c0 faces,
        # sample faces and the affine_dim probes
        ones = [F(1)] * 25
        center = grid5.species.index["c33"]
        reduced, enlarged = list(ones), list(ones)
        reduced[center], enlarged[center] = F(1, 2), F(3, 2)
        solved = []
        real = lp_module.feasible

        def recorded(system):
            res = real(system)
            solved.append((system, res))
            return res

        for module in (lp_module, relevance_module):
            monkeypatch.setattr(module, "feasible", recorded)
        analyze(grid5, c0=ones, omega_samples=[reduced, enlarged])
        assert len(solved) == 132
        assert {res.feasible for _, res in solved} == {True, False}
        for system, res in solved:
            assert (res.witness, res.certificate) == _reference_feasible(system)


class TestAffineDim:
    def test_segment(self):
        assert affine_dim(_simple(2, [([1, 1], 1)], nonneg=[0, 1])) == 1

    def test_single_point_origin(self):
        assert affine_dim(_simple(1, [([1], 0)], nonneg=[0])) == 0

    def test_empty_set(self):
        sys_ = _simple(1, [([1], -1)], nonneg=[0])
        assert affine_dim(sys_) is None

    def test_unconstrained_space(self):
        assert affine_dim(_simple(4, [])) == 4

    def test_orthant(self):
        assert affine_dim(_simple(3, [], nonneg=[0, 1, 2])) == 3

    def test_implicit_equality_detected(self):
        # x + y = 0 with x, y >= 0 pins both to zero
        assert affine_dim(_simple(2, [([1, 1], 0)], nonneg=[0, 1])) == 0

    def test_normalization_row_counts(self):
        sys_ = _simple(2, [], nonneg=[0, 1], normalization=[1, 1])
        assert affine_dim(sys_) == 1

    def test_matches_vertex_structure_on_random_networks(self):
        # affine hull dimension of the whole invariant polytope equals the
        # stoichiometric dimension when the start is strictly positive
        from crnsiphon.geometry import InvariantPolytope, face_dimension
        from crnsiphon.linalg import conservation_basis

        rng = random.Random(23)
        for _ in range(25):
            net = random_network(rng, max_species=6)
            c0 = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(net.num_species)]
            p = InvariantPolytope.from_network(net, c0)
            expected = net.num_species - conservation_basis(net).dim
            assert face_dimension(p, ()) == expected

    def test_witness_union_matches_per_coordinate_probes(self):
        dims = set()
        for sys_ in _affine_corpus():
            expected = _affine_dim_oracle(sys_)
            assert affine_dim(sys_) == expected
            dims.add(expected)
        assert None in dims and len(dims) >= 4

    def test_rank_over_unpinned_columns_matches_unit_rows(self):
        # n - rank([A; e_P]) == (n - |P|) - rank(A[:, not P]) for every
        # pin set, not only the implicit pins of a feasible system
        rng = random.Random(31)
        pinned_somewhere = 0
        for sys_ in _affine_corpus():
            coeffs = [row[:-1] for row in _stated_rows(sys_)]
            n = sys_.num_vars
            pins = _pins_by_probes(sys_) if feasible(sys_).feasible else set()
            for pinned in (pins, set(sys_.zero), {j for j in range(n) if rng.random() < 0.4}):
                free = [j for j in range(n) if j not in pinned]
                sub = RationalMatrix.from_rows(
                    [[row[j] for j in free] for row in coeffs], cols=len(free)
                )
                assert len(free) - rank(sub) == _unit_row_dim(sys_, pinned)
                pinned_somewhere += bool(pinned)
            if feasible(sys_).feasible:
                assert affine_dim(sys_) == _unit_row_dim(sys_, pins)
        assert pinned_somewhere > 200

    def test_given_first_result_is_not_solved_again(self, monkeypatch):
        sys_ = _simple(3, [([1, 1, 1], 1), ([1, -1, 0], 0)], nonneg=[0, 1, 2])
        first = feasible(sys_).witness
        calls = []
        real = lp_module.feasible

        def counted(system):
            calls.append(system)
            return real(system)

        monkeypatch.setattr(lp_module, "feasible", counted)
        assert affine_dim(sys_, first=first) == affine_dim(sys_) == 1
        assert calls.count(sys_) == 1

    def test_given_first_point_must_be_feasible(self):
        sys_ = _simple(3, [([1, 1, 1], 1), ([1, -1, 0], 0)], nonneg=[0, 1, 2])
        with pytest.raises(ValueError, match="feasible point"):
            affine_dim(sys_, first=(F(1), F(1), F(-1)))


def _gate_corpus():
    """Rational systems whose rows have different denominators, with the
    answer `feasible` returns for each."""
    rng = random.Random(43)

    def q():
        return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5, 7, 12)))

    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        rows = [([q() for _ in range(n)], q()) for _ in range(m)]
        nonneg = [j for j in range(n) if rng.random() < 0.7]
        zero = [j for j in range(n) if rng.random() < 0.15]
        norm = [q() for _ in range(n)] if rng.random() < 0.4 else None
        sys_ = _simple(n, rows, nonneg=nonneg, zero=zero, normalization=norm)
        yield rng, sys_, feasible(sys_)


class TestIntegerGate:
    def test_accepts_what_the_fraction_gate_accepts(self):
        kinds = set()
        for rng, sys_, res in _gate_corpus():
            if res.feasible:
                assert verify_witness(sys_, res.witness)
                assert _reference_verify_witness(sys_, res.witness)
            else:
                assert verify_certificate(sys_, res.certificate)
                assert _reference_verify_certificate(sys_, res.certificate)
            kinds.add(res.feasible)
            # the same row times k > 0 with its scale times k states the
            # same system, so the answer must not change
            i = rng.randrange(len(sys_.rows))
            for k in (2, 7):
                ints, scale = sys_.rows[i]
                rows = list(sys_.rows)
                rows[i] = (tuple(k * x for x in ints), k * scale)
                rescaled = LinearSystem(sys_.num_vars, tuple(rows), sys_.nonneg, sys_.zero)
                assert feasible(rescaled) == res
        assert kinds == {True, False}

    def test_perturbed_answers_get_the_fraction_gate_verdict(self):
        rejected = {True: 0, False: 0}
        for rng, sys_, res in _gate_corpus():
            if res.feasible:
                for w in _perturbations(rng, res.witness, sorted(sys_.zero)):
                    verdict = _reference_verify_witness(sys_, w)
                    assert verify_witness(sys_, w) == verdict
                    rejected[True] += not verdict
            else:
                for y in _perturbations(rng, res.certificate, ()):
                    verdict = _reference_verify_certificate(sys_, y)
                    assert verify_certificate(sys_, y) == verdict
                    rejected[False] += not verdict
        assert rejected[True] > 500 and rejected[False] > 200

    def test_scaled_certificate_and_wrong_lengths(self):
        sys_ = _simple(2, [([F(1, 3), F(1, 2)], F(-1, 6))], nonneg=[0, 1])
        res = feasible(sys_)
        assert not res.feasible
        for k in (F(1, 7), F(5), F(10**15, 3)):
            assert verify_certificate(sys_, tuple(k * y for y in res.certificate))
        assert not verify_certificate(sys_, tuple(-y for y in res.certificate))
        assert not verify_certificate(sys_, res.certificate + (F(0),))
        assert not verify_witness(sys_, (F(0),))


class TestRowFormat:
    def test_row_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="row length"):
            LinearSystem(2, (((1, 1), 1),), frozenset(), frozenset())
        with pytest.raises(ValueError, match="row length"):
            LinearSystem.build(2, eq_rows=[([1, 1, 1], 1)])

    @pytest.mark.parametrize("scale", [0, -1])
    def test_scale_must_be_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            LinearSystem(1, (((1, 1), scale),), frozenset(), frozenset())

    @pytest.mark.parametrize("nonneg, zero", [({2}, ()), ((), {-1})])
    def test_index_out_of_range(self, nonneg, zero):
        with pytest.raises(ValueError, match="out of range"):
            LinearSystem(2, (((1, 1, 1), 1),), frozenset(nonneg), frozenset(zero))

    def test_scale_divides_the_row(self):
        # (2, 5) at scale 2 states x = 5/2
        sys_ = LinearSystem(1, (((2, 5), 2),), frozenset(), frozenset())
        assert feasible(sys_).witness == (F(5, 2),)
        assert not verify_witness(sys_, (F(5),))


class TestSharedIntegerRows:
    def test_face_systems_share_the_polytope_rows(self, receptor_ligand):
        from crnsiphon.geometry import InvariantPolytope
        from crnsiphon.linalg import integer_row

        p = InvariantPolytope.from_network(receptor_ligand, [F(1, 10), F(1, 10), 1, F(1, 3), 2])
        a, b = p.face_system((0, 1)), p.face_system((2,))
        assert a.rows is p.rows is b.rows
        assert [(list(ints), s) for ints, s in a.rows] == [
            integer_row(row + (r,)) for row, r in zip(p.matrix.entries, p.rhs)
        ]

    def test_gate_rejects_tampered_answers_on_shared_rows(self, receptor_ligand):
        from crnsiphon.geometry import InvariantPolytope
        from crnsiphon.siphons import minimal_siphons

        p = InvariantPolytope.from_network(receptor_ligand, [F(1, 10), F(1, 10), 1, F(1, 3), 2])
        kinds = set()
        for z in minimal_siphons(receptor_ligand):
            for zero in ((), z.members):
                sys_ = p.face_system(zero)
                res = feasible(sys_)
                kinds.add(res.feasible)
                if res.feasible:
                    w = res.witness
                    assert verify_witness(sys_, w)
                    for j in range(len(w)):
                        bumped = w[:j] + (w[j] + F(1, 7),) + w[j + 1:]
                        assert not verify_witness(sys_, bumped)
                else:
                    y = res.certificate
                    assert verify_certificate(sys_, y)
                    assert not verify_certificate(sys_, tuple(-v for v in y))
                    assert not verify_certificate(sys_, (F(0),) * len(y))
        assert kinds == {True, False}

    def test_replace_checks_the_new_rows(self):
        from dataclasses import replace

        sys_ = _simple(2, [([F(1, 2), F(1, 3)], F(1))], nonneg=[0, 1])
        assert sys_.rows == (((3, 2, 6), 6),)
        moved = replace(sys_, rows=(((3, 2, -6), 6),))
        assert not feasible(moved).feasible
        with pytest.raises(ValueError, match="scale"):
            replace(sys_, rows=(((3, 2, -6), 0),))
