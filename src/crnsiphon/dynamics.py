"""Mass-action vector fields and exact checks on siphon faces.

The right-hand side of the mass-action ODE is assembled per species as a
list of (coefficient, exponent-vector) monomial terms with exact rational
coefficients.  Two randomized-but-exact checks are built on top of it:

* face invariance: on the face ``x_Z = 0`` of the orthant, every
  coordinate in a siphon Z has derivative exactly zero (plus the sharper
  structural fact that every positive term of such a coordinate contains
  a Z-variable);
* steady faces: for strongly connected networks, every point of a siphon
  face annihilates the whole right-hand side, not just the Z-coordinates.

All sampling uses exact rationals from a seeded generator; a "pass" means
the identities held exactly at every sampled point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from crnsiphon.network import ReactionNetwork, connectivity
from crnsiphon.siphons import is_siphon

__all__ = [
    "MassActionSystem",
    "PolynomialVectorField",
    "FaceCheckFailure",
    "build_rhs",
    "eval_rhs",
    "check_face_invariance",
    "check_steady_face",
    "random_rate_assignment",
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


@dataclass(frozen=True)
class FaceCheckFailure:
    kind: str
    species: int | None = None
    point: Vec | None = None
    kappa: Vec | None = None
    value: Fraction | None = None


def random_rate_assignment(net: ReactionNetwork, rng: random.Random) -> Vec:
    return tuple(
        Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in net.reactions
    )


def _random_face_point(s: int, members: set[int], rng: random.Random) -> Vec:
    point = []
    for i in range(s):
        if i in members or rng.random() < 0.1:
            point.append(Fraction(0))
        else:
            point.append(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return tuple(point)


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def check_face_invariance(
    net: ReactionNetwork, members: Iterable[int], trials: int = 20, seed: int = 0
) -> FaceCheckFailure | None:
    """For a siphon Z, verify the Z-coordinates of the field vanish on the
    face x_Z = 0: structurally, and exactly at random sampled points.
    ``trials`` must be at least 1."""
    _require_trials(trials)
    z = set(members)
    if not is_siphon(net, z):
        raise ValueError("face invariance is only guaranteed for siphons")
    master = random.Random(seed)
    for trial in range(trials):
        rng = random.Random(master.randrange(2**63))
        kappa = random_rate_assignment(net, rng)
        field = build_rhs(MassActionSystem(net, kappa))
        if not structurally_annihilates_face(field, z):
            return FaceCheckFailure("structural", kappa=kappa)
        point = _random_face_point(net.num_species, z, rng)
        values = eval_rhs(field, point)
        for i in sorted(z):
            if values[i] != 0:
                return FaceCheckFailure(
                    "derivative", species=i, point=point, kappa=kappa, value=values[i]
                )
    return None


def check_steady_face(
    net: ReactionNetwork, members: Iterable[int], trials: int = 20, seed: int = 0
) -> FaceCheckFailure | None:
    """For strongly connected networks every point of a siphon face is a
    steady state: the whole field vanishes there, exactly.  ``trials``
    must be at least 1."""
    _require_trials(trials)
    if not connectivity(net).is_strongly_connected:
        raise ValueError("the steady-face property requires a strongly connected network")
    z = set(members)
    if not is_siphon(net, z):
        raise ValueError("expected a siphon")
    if all(z.isdisjoint(c.support) for c in net.complexes):
        # no complex vanishes on the face, so nothing forces steadiness
        raise ValueError("the siphon must contain a species occurring in some complex")
    master = random.Random(seed)
    for trial in range(trials):
        rng = random.Random(master.randrange(2**63))
        kappa = random_rate_assignment(net, rng)
        field = build_rhs(MassActionSystem(net, kappa))
        point = _random_face_point(net.num_species, z, rng)
        values = eval_rhs(field, point)
        for i, v in enumerate(values):
            if v != 0:
                return FaceCheckFailure(
                    "nonzero_field", species=i, point=point, kappa=kappa, value=v
                )
    return None
