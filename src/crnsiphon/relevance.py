"""Relevance verdicts for siphons and whole-network boundary certificates.

A siphon Z is *relevant* when some invariant polytope has a non-empty face
``x_Z = 0``; a non-relevant siphon can never empty out along trajectories
that start positive.  Two independent decision routes are implemented:

* ``conservation_lp`` — Z is non-relevant exactly when some non-negative
  conservation law has its support inside Z.  This is one exact LP and is
  valid for every network; a feasible point is the witness, an infeasible
  one yields a Farkas certificate.
* ``facet`` — when the cone of conserved quantities is pointed, Z is
  non-relevant exactly when the complement of some cone facet is inside Z.

The two routes must agree; :func:`analyze` cross-checks them and treats a
disagreement as an internal error.  When no minimal siphon is relevant,
the report carries a network-level certificate: no invariant polytope has
a boundary steady state.

Relevance for one positive start c0 (is the face ``x_Z = 0`` of the
polytope of c0 non-empty?) has one rule, applied to the siphon's
conservation-LP verdict: a non-relevant siphon's law shows the face empty
at every positive start, and a relevant siphon's face is decided by the
face LP.  :func:`analyze` (``c0`` and ``omega_samples``),
:func:`is_c0_relevant` and :func:`omega_relevant` all use it, so they
return the same verdicts with the same witnesses.

A declared symmetry must consist of automorphisms of the network.  A start
fixed by some of them has the same answers on every siphon of an orbit
under those, so :func:`analyze` computes a face dimension and a sample
verdict once per orbit; a start that no map fixes leaves every orbit a
singleton, and the same loop decides each siphon on its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from crnsiphon.geometry import ConeQ, Facet, InvariantPolytope, cone_facets, conservation_cone
from crnsiphon.linalg import (
    SubspaceBasis,
    conservation_basis,
    normalize_integer_vector,
)
from crnsiphon.lp import LinearSystem, affine_dim, feasible
from crnsiphon.network import (
    Complex,
    ConnectivityInfo,
    ReactionNetwork,
    connectivity,
)
from crnsiphon.siphons import Budget, BudgetExceededError, Siphon, is_siphon, minimal_siphons

__all__ = [
    "RelevanceVerdict",
    "SiphonAnalysis",
    "AnalysisReport",
    "RouteDisagreementError",
    "supported_conservation_system",
    "is_relevant",
    "is_relevant_by_facets",
    "is_c0_relevant",
    "omega_relevant",
    "relevant_minimal_siphons",
    "analyze",
    "orbit_partition",
]

Vec = tuple[Fraction, ...]

class RouteDisagreementError(RuntimeError):
    """The two independent relevance routes disagreed; this indicates a bug,
    never an input problem."""


@dataclass(frozen=True)
class RelevanceVerdict:
    """A verdict and its proof; the proof field that is set tells the route."""

    siphon: Siphon
    relevant: bool
    conservation_law: tuple[int, ...] | None = None  # non-relevant, conservation LP
    certificate: Vec | None = None  # Farkas: relevant globally, or empty face at a start
    facet: Facet | None = None  # non-relevant, facet route
    face_point: Vec | None = None  # relevant at a start, face LP


def supported_conservation_system(net: ReactionNetwork, members: Iterable[int]) -> LinearSystem:
    """LP asking for a non-negative conservation law supported inside Z,
    normalized to total mass 1 on Z so the zero law does not qualify.

    The net changes are integer vectors, so every row has scale 1; the
    normalization row comes last."""
    z = frozenset(members)
    s = net.num_species
    normalization = tuple(1 if i in z else 0 for i in range(s)) + (1,)
    rows = tuple((v + (0,), 1) for v in net.integer_net_changes) + ((normalization, 1),)
    return LinearSystem(s, rows, nonneg=z, zero=frozenset(range(s)) - z)


def is_relevant(net: ReactionNetwork, siphon: Siphon) -> RelevanceVerdict:
    """Global relevance via the conservation-law LP (valid for any network)."""
    if not is_siphon(net, siphon.members):
        raise ValueError("relevance is defined for siphons only")
    return _lp_verdict(net, siphon)


def _lp_verdict(net: ReactionNetwork, siphon: Siphon) -> RelevanceVerdict:
    """:func:`is_relevant` for a set already known to be a siphon."""
    result = feasible(supported_conservation_system(net, siphon.members))
    if result.feasible:
        law = normalize_integer_vector(result.witness)
        return RelevanceVerdict(siphon, False, conservation_law=law)
    return RelevanceVerdict(siphon, True, certificate=result.certificate)


def is_relevant_by_facets(
    net: ReactionNetwork, siphon: Siphon, cone: ConeQ | None = None
) -> RelevanceVerdict:
    """Global relevance via cone facets: non-relevant exactly when some
    facet complement is contained in the siphon.  Pointed cones only."""
    if cone is None:
        cone = conservation_cone(net)
    members = set(siphon.members)
    for facet in cone_facets(cone):
        if set(facet.complement(cone.num_generators)) <= members:
            return RelevanceVerdict(siphon, False, facet=facet)
    return RelevanceVerdict(siphon, True)


def _start_verdict(verdict: RelevanceVerdict, polytope: InvariantPolytope) -> RelevanceVerdict:
    """Relevance of a siphon for one start, given its conservation-LP
    verdict: the one rule behind :func:`analyze`, :func:`is_c0_relevant`
    and :func:`omega_relevant`.

    A non-relevant siphon's law w >= 0 is conserved and supported inside
    Z, so ``w . x`` equals ``w . c0`` on the whole polytope and 0 on the
    face ``x_Z = 0``; the face is empty once ``w . c0 > 0``, which is
    checked in integers.  A relevant siphon's face is decided by the face
    LP: a face point, or a Farkas certificate that the face is empty.
    """
    z = verdict.siphon
    law = verdict.conservation_law
    if law is not None:
        c0 = polytope.integer_c0
        if sum(w * x for w, x in zip(law, c0) if w) <= 0:
            raise AssertionError("internal error: conservation law vanishes at the start")
        return RelevanceVerdict(z, False, conservation_law=law)
    result = feasible(polytope.face_system(z.members))
    if result.feasible:
        return RelevanceVerdict(z, True, face_point=result.witness)
    return RelevanceVerdict(z, False, certificate=result.certificate)


def is_c0_relevant(net: ReactionNetwork, c0: Sequence, siphon: Siphon) -> RelevanceVerdict:
    """Relevance for one initial condition: is the face x_Z = 0 of the
    invariant polytope of c0 non-empty?  Decided, with the same witness,
    as :func:`analyze` decides its ``c0_verdict``."""
    return _start_verdict(is_relevant(net, siphon), InvariantPolytope.from_network(net, c0))


def omega_relevant(
    net: ReactionNetwork, samples: Sequence[Sequence], siphon: Siphon
) -> tuple[bool, int | None]:
    """OR of per-sample relevance; returns the index of the first witnessing
    sample, or None.  The sampled starts stand in for a whole region.  As
    in :func:`analyze`, every sample must be a positive start, also those
    after the first witness."""
    if not samples:
        raise ValueError("at least one sample initial condition is required")
    verdict = is_relevant(net, siphon)
    matrix = conservation_basis(net).matrix
    polytopes = [InvariantPolytope(matrix, c0) for c0 in samples]
    hit = next((i for i, p in enumerate(polytopes) if _start_verdict(verdict, p).relevant), None)
    return hit is not None, hit


def relevant_minimal_siphons(
    net: ReactionNetwork, budget: Budget | None = None
) -> list[Siphon]:
    return [z for z in minimal_siphons(net, budget) if _lp_verdict(net, z).relevant]


# ---------------------------------------------------------------------------
# full analysis


@dataclass(frozen=True)
class SiphonAnalysis:
    verdict: RelevanceVerdict
    facet: Facet | None = None  # the facet route's witness of non-relevance
    c0_verdict: RelevanceVerdict | None = None
    face_dim: int | None = None
    omega_hits: tuple[int, ...] | None = None  # witnessing sample indices


@dataclass(frozen=True)
class AnalysisReport:
    network: ReactionNetwork
    connectivity_info: ConnectivityInfo
    conservation: SubspaceBasis
    cone: ConeQ
    siphons: tuple[SiphonAnalysis, ...]
    exhaustive: bool
    all_non_relevant: bool
    boundary_certificate: str | None
    notes: tuple[str, ...]
    c0: Vec | None = None
    omega_samples: tuple[Vec, ...] | None = None
    orbits: tuple[tuple[int, ...], ...] | None = None  # siphon indices per orbit
    timing_ms: dict[str, float] | None = None


def orbit_partition(
    siphons: Sequence[Siphon], permutations: Sequence[dict[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Group siphon indices into orbits of the given index permutations.

    A permutation that maps some listed siphon outside the list leaves it
    in a singleton orbit only if no other permutation connects it.
    """
    position = {z.members: i for i, z in enumerate(siphons)}
    parent = list(range(len(siphons)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in permutations:
        for i, z in enumerate(siphons):
            image = tuple(sorted(perm[m] for m in z.members))
            j = position.get(image)
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(len(siphons)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values()))


def _require_automorphisms(net: ReactionNetwork, symmetry: Sequence[dict[int, int]]) -> None:
    """Check that each declared permutation is an automorphism: a
    permutation of the species that maps the reactions, taken as pairs of
    (source, target) exponent vectors, onto themselves.  Raises ValueError
    naming the first permutation (counted from 1) that is not one."""
    s = net.num_species
    species = list(range(s))
    sparse = [frozenset((i, c.exponents[i]) for i in c.support) for c in net.complexes]
    edges = {(sparse[r.source], sparse[r.target]) for r in net.reactions}
    for k, perm in enumerate(symmetry, 1):
        if sorted(perm) != species or sorted(perm.values()) != species:
            raise ValueError(f"symmetry permutation {k} is not a permutation of the {s} species")
        image = [frozenset((perm[i], e) for i, e in c) for c in sparse]
        for r, reaction in enumerate(net.reactions):
            if (image[reaction.source], image[reaction.target]) not in edges:
                mapped = [
                    Complex(tuple(dict(image[c]).get(i, 0) for i in species)).text(net.species)
                    for c in (reaction.source, reaction.target)
                ]
                raise ValueError(
                    f"symmetry permutation {k} is not an automorphism of the network: "
                    f"it maps the reaction {net.reaction_text(r)} to {mapped[0]} -> "
                    f"{mapped[1]}, which is not a reaction"
                )


def analyze(
    net: ReactionNetwork,
    c0: Sequence | None = None,
    omega_samples: Sequence[Sequence] | None = None,
    budget: Budget | None = None,
    symmetry: Sequence[dict[int, int]] | None = None,
    collect_timing: bool = False,
) -> AnalysisReport:
    """Run the full pipeline and assemble a report.

    Every minimal siphon gets a conservation-LP verdict; when the cone is
    pointed the facet route runs as a cross-check and a disagreement raises
    :class:`RouteDisagreementError`.  With ``c0`` the per-start relevance
    and face dimensions are added; with ``omega_samples`` the per-sample
    pattern is added.  A globally non-relevant siphon is non-relevant at
    every positive start: its law decides that without a face LP.  A
    budget overrun degrades to a partial, non-exhaustive report instead of
    failing.

    ``symmetry`` lists species permutations (``perm[i]`` is the image of
    species i); each must be an automorphism of the network, or ValueError
    is raised before any work is done.  The report's ``orbits`` group the
    siphons under all of them.  For each start, the automorphisms that fix
    it (``c[perm[i]] == c[i]`` for every i) map its polytope onto itself
    and the face ``x_Z = 0`` onto the face ``x_perm(Z) = 0``, so the face
    dimension and the sample verdicts are computed once per orbit under
    those maps and copied to the other members.  The conservation LP, the
    facet check and the c0 face LP still run for every siphon, so every
    printed law, certificate and face point is the siphon's own, and the
    report equals the one computed without ``symmetry`` apart from
    ``orbits``.
    """
    automorphisms = list(symmetry or ())
    _require_automorphisms(net, automorphisms)
    timings: dict[str, float] = {}
    t0 = time.monotonic()

    conn = connectivity(net)
    basis = conservation_basis(net)

    cone = conservation_cone(net)
    timings["setup_ms"] = (time.monotonic() - t0) * 1000

    t1 = time.monotonic()
    exhaustive = True
    try:
        siphons = minimal_siphons(net, budget)
    except BudgetExceededError as exc:
        siphons = exc.partial
        exhaustive = False
    timings["siphons_ms"] = (time.monotonic() - t1) * 1000

    polytope = InvariantPolytope(basis.matrix, c0) if c0 is not None else None
    sample_polytopes = (
        [InvariantPolytope(basis.matrix, sm) for sm in omega_samples] if omega_samples else None
    )
    partitions: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def orbits_under(kept: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        if kept not in partitions:
            partitions[kept] = orbit_partition(siphons, [automorphisms[k] for k in kept])
        return partitions[kept]

    def per_orbit(start: InvariantPolytope, decide) -> list:
        """``decide(i)`` for the first siphon of each orbit under the
        automorphisms that fix the start, copied to the rest of the orbit."""
        c = start.integer_c0
        kept = tuple(
            k
            for k, perm in enumerate(automorphisms)
            if all(c[perm[i]] == x for i, x in enumerate(c))
        )
        answers: list = [None] * len(siphons)
        for orbit in orbits_under(kept):
            answer = decide(orbit[0])
            for i in orbit:
                answers[i] = answer
        return answers

    def examine(z: Siphon) -> tuple[RelevanceVerdict, Facet | None]:
        verdict = _lp_verdict(net, z)
        if not cone.pointed:
            return verdict, None
        by_facets = is_relevant_by_facets(net, z, cone)
        if by_facets.relevant != verdict.relevant:
            raise RouteDisagreementError(
                f"relevance routes disagree on {z.names(net)}: "
                f"conservation_lp={verdict.relevant}, facet={by_facets.relevant}"
            )
        return verdict, by_facets.facet

    t2 = time.monotonic()
    checked = [examine(z) for z in siphons]
    verdicts = [verdict for verdict, _ in checked]
    c0_verdicts = dims = hits = [None] * len(siphons)
    if polytope is not None:
        c0_verdicts = [_start_verdict(v, polytope) for v in verdicts]

        def face_dim(i: int) -> int | None:
            v = c0_verdicts[i]
            if not v.relevant:
                return None
            return affine_dim(polytope.face_system(v.siphon.members), first=v.face_point)

        dims = per_orbit(polytope, face_dim)
        for v, dim in zip(c0_verdicts, dims):
            if v.relevant != (dim is not None):
                raise AssertionError(
                    f"internal error: the start's face of {v.siphon.names(net)} "
                    "disagrees with its symmetry orbit"
                )
    if sample_polytopes is not None:
        by_sample = [
            per_orbit(p, lambda i, p=p: _start_verdict(verdicts[i], p).relevant)
            for p in sample_polytopes
        ]
        hits = [tuple(k for k, row in enumerate(by_sample) if row[i]) for i in range(len(siphons))]
    analyses = tuple(
        SiphonAnalysis(verdict, facet, c0_verdict, dim, hit)
        for (verdict, facet), c0_verdict, dim, hit in zip(checked, c0_verdicts, dims, hits)
    )
    timings["relevance_ms"] = (time.monotonic() - t2) * 1000

    all_non_relevant = all(not a.verdict.relevant for a in analyses)
    certificate = None
    notes = []
    if all_non_relevant and exhaustive:
        certificate = (
            "no relevant siphons: every minimal siphon carries a non-negative "
            "conservation law supported inside it, so no invariant polytope "
            "has a boundary steady state"
        )
    if conn.is_strongly_connected:
        notes.append(
            "network is strongly connected: every non-empty siphon face of an "
            "invariant polytope consists entirely of steady states"
        )
    notes.append(
        "complex-balancing rate conditions are not analyzed; verdicts here "
        "are structural and hold for every choice of positive rates"
    )
    if not cone.pointed:
        notes.append(
            "cone of conserved quantities is not pointed; facet route disabled"
        )
    if not exhaustive:
        notes.append("enumeration budget exceeded: siphon list is not exhaustive")

    orbits = None
    if symmetry is not None:
        orbits = orbits_under(tuple(range(len(automorphisms))))

    timings["total_ms"] = (time.monotonic() - t0) * 1000
    return AnalysisReport(
        network=net,
        connectivity_info=conn,
        conservation=basis,
        cone=cone,
        siphons=analyses,
        exhaustive=exhaustive,
        all_non_relevant=all_non_relevant,
        boundary_certificate=certificate,
        notes=tuple(notes),
        c0=polytope.c0 if polytope is not None else None,
        omega_samples=tuple(p.c0 for p in sample_polytopes) if sample_polytopes else None,
        orbits=orbits,
        timing_ms=timings if collect_timing else None,
    )
