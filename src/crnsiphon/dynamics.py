"""Mass-action vector fields and exact certificates for siphon faces.

The right-hand side of the mass-action ODE is assembled per species as a
list of (coefficient, exponent-vector) monomial terms with exact rational
coefficients.  Two face properties hold for every choice of positive
rates, and each is proved by a certificate read off the network:

* face invariance: Z is a siphon exactly when the face ``x_Z = 0`` of the
  orthant is forward invariant.  Every positive term of a Z-coordinate is
  the rate monomial ``x^y`` of a reaction ``y -> y'`` producing a member of
  Z, and a siphon's such reaction consumes a member of Z, so the monomial
  vanishes on the face;
* steady faces: in a strongly connected network, a siphon that meets one
  complex meets every complex, so every monomial of the field vanishes on
  its face and each face point is a steady state.

``structurally_annihilates_face`` checks the first property on an
assembled field; the tests check the certificates against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from crnsiphon.network import ReactionNetwork, connectivity
from crnsiphon.siphons import is_siphon, siphon_violation

__all__ = [
    "MassActionSystem",
    "PolynomialVectorField",
    "build_rhs",
    "eval_rhs",
    "check_face_invariance",
    "check_steady_face",
    "structurally_annihilates_face",
]

Vec = tuple[Fraction, ...]
Term = tuple[Fraction, tuple[int, ...]]


@dataclass(frozen=True)
class MassActionSystem:
    network: ReactionNetwork
    kappa: Vec  # one positive rate per reaction, in reaction order

    def __post_init__(self):
        if len(self.kappa) != len(self.network.reactions):
            raise ValueError("one rate per reaction is required")
        if any(k <= 0 for k in self.kappa):
            raise ValueError("rates must be positive")

    @classmethod
    def uniform(cls, net: ReactionNetwork, rate=1) -> "MassActionSystem":
        return cls(net, tuple(Fraction(rate) for _ in net.reactions))

    @classmethod
    def from_rates(cls, net: ReactionNetwork, rates: Sequence) -> "MassActionSystem":
        return cls(net, tuple(Fraction(r) for r in rates))


@dataclass(frozen=True)
class PolynomialVectorField:
    """Per-species monomial terms, combined and canonically sorted."""

    num_species: int
    components: tuple[tuple[Term, ...], ...]


def build_rhs(system: MassActionSystem) -> PolynomialVectorField:
    """Each reaction contributes rate * (target - source) * x^source."""
    net = system.network
    s = net.num_species
    acc: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(s)]
    for r, rate in zip(net.reactions, system.kappa):
        src = net.complexes[r.source].exponents
        tgt = net.complexes[r.target].exponents
        for i in range(s):
            delta = tgt[i] - src[i]
            if delta == 0:
                continue
            coeff = acc[i].get(src, Fraction(0)) + rate * delta
            if coeff == 0:
                acc[i].pop(src, None)
            else:
                acc[i][src] = coeff
    components = tuple(
        tuple((coeff, expo) for expo, coeff in sorted(comp.items())) for comp in acc
    )
    return PolynomialVectorField(s, components)


def eval_rhs(field: PolynomialVectorField, point: Sequence[Fraction]) -> Vec:
    if len(point) != field.num_species:
        raise ValueError("point dimension does not match the field")
    values = []
    for terms in field.components:
        total = Fraction(0)
        for coeff, expo in terms:
            mono = coeff
            for x, e in zip(point, expo):
                if e:
                    mono *= x**e
            total += mono
        values.append(total)
    return tuple(values)


def structurally_annihilates_face(field: PolynomialVectorField, members: Iterable[int]) -> bool:
    """True iff every positive term of every Z-coordinate contains a
    Z-variable; this makes the Z-face forward-invariant identically in x."""
    z = set(members)
    for i in z:
        for coeff, expo in field.components[i]:
            if coeff > 0 and not any(expo[j] > 0 for j in z):
                return False
    return True


def check_face_invariance(
    net: ReactionNetwork, members: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """The certificate that the face x_Z = 0 is forward invariant for every
    choice of positive rates: one (reaction index, species index) pair per
    reaction that produces a member of Z, in reaction order, naming the
    least member of Z that the reaction consumes.  Raises ``ValueError``
    naming a violating reaction when Z is not a siphon."""
    z = set(members)
    violation = siphon_violation(net, z)
    if violation is not None:
        raise ValueError(f"not a siphon, so its face need not be invariant: {violation.reason}")
    return tuple(
        (ri, min(net.reactant_support(ri) & z))
        for ri in range(len(net.reactions))
        if net.product_support(ri) & z
    )


def check_steady_face(net: ReactionNetwork, members: Iterable[int]) -> tuple[int, ...]:
    """The certificate that every point of the face x_Z = 0 of a strongly
    connected network is a steady state for every choice of positive rates:
    for each complex, in complex order, the least member of Z in its
    support.  Each monomial of the field is some complex's ``x^y``, so all
    of them vanish on the face."""
    if not connectivity(net).is_strongly_connected:
        raise ValueError("the steady-face property requires a strongly connected network")
    z = set(members)
    if not is_siphon(net, z):
        raise ValueError("expected a siphon")
    if all(z.isdisjoint(c.support) for c in net.complexes):
        # no complex vanishes on the face, so nothing forces steadiness
        raise ValueError("the siphon must contain a species occurring in some complex")
    # a reaction into a complex that meets Z starts at one that meets Z, and
    # strong connectivity carries that back to every complex
    witnesses = []
    for k, c in enumerate(net.complexes):
        hit = z & c.support
        if not hit:
            raise AssertionError(f"internal error: the siphon misses complex {k}")
        witnesses.append(min(hit))
    return tuple(witnesses)
