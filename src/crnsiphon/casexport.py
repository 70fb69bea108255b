"""Macaulay2 script export for external cross-validation.

The siphon computations in this package are purely combinatorial and
LP-based; the exported script lets a computer algebra system reproduce
the same answers through ideal decompositions.  Three ideal flavors are
supported:

* ``directed-binomial`` (default) — one generator
  ``x^source * (x^target - x^source)`` per directed reaction, valid for
  every network;
* ``undirected-binomial`` — pure differences ``x^source - x^target``,
  valid when every linkage class is strongly connected;
* ``monomial`` — the complex monomials themselves, valid for strongly
  connected networks.

For the binomial flavors the product of all variables is adjoined before
decomposing, restricting to the coordinate hyperplanes where siphons
live.  When the cone of conserved quantities has facets, the script also
builds the facet-complement ideal and saturates by it, which filters the
decomposition down to the relevant siphons: a siphon's component lies in
the variety of a facet complement exactly when that complement is inside
the siphon, pointed cone or not.
"""

from __future__ import annotations

from typing import Sequence

from crnsiphon.geometry import conservation_cone
from crnsiphon.network import ReactionNetwork, connectivity

__all__ = ["export_cas_script", "monomial", "FLAVORS"]

FLAVORS = ("directed-binomial", "undirected-binomial", "monomial")


def monomial(exponents: Sequence[int], names: Sequence[str]) -> str:
    """``x^e`` written as ``A*B^2``, or ``1`` for the empty monomial; the
    ``ode`` output shares it."""
    factors = []
    for i, e in enumerate(exponents):
        if e == 1:
            factors.append(names[i])
        elif e > 1:
            factors.append(f"{names[i]}^{e}")
    return "*".join(factors) if factors else "1"


def _directed_generators(net: ReactionNetwork) -> list[str]:
    names = net.species.names
    gens = []
    for r in net.reactions:
        src = monomial(net.complexes[r.source].exponents, names)
        tgt = monomial(net.complexes[r.target].exponents, names)
        gens.append(f"{src}*({tgt}-{src})")
    return gens


def _undirected_generators(net: ReactionNetwork) -> list[str]:
    names = net.species.names
    seen: set[frozenset[int]] = set()
    gens = []
    for r in net.reactions:
        pair = frozenset((r.source, r.target))
        if pair in seen:
            continue
        seen.add(pair)
        src = monomial(net.complexes[r.source].exponents, names)
        tgt = monomial(net.complexes[r.target].exponents, names)
        gens.append(f"{src}-{tgt}")
    return gens


def export_cas_script(
    net: ReactionNetwork, flavor: str = "directed-binomial", include_boundary: bool = True
) -> str:
    """Emit a Macaulay2 script whose decompositions encode the (relevant)
    minimal siphons of the network."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    conn = connectivity(net)
    if flavor == "monomial" and not conn.is_strongly_connected:
        raise ValueError("the monomial flavor requires a strongly connected network")
    if flavor == "undirected-binomial" and not conn.components_strongly_connected:
        raise ValueError(
            "the undirected-binomial flavor requires every linkage class to be "
            "strongly connected"
        )

    names = net.species.names
    lines = [
        "-- generated by crnsiphon: minimal siphons via ideal decomposition",
        f"theRing = QQ[{','.join(names)}];",
    ]
    if flavor == "monomial":
        gens = [monomial(c.exponents, names) for c in net.complexes]
        lines.append(f"complexIdeal = monomialIdeal({', '.join(gens)});")
        lines.append("-- variables of each minimal prime = one minimal siphon")
        lines.append("decompose complexIdeal")
        lines.append("-- generator degrees of the dual = minimal siphon sizes")
        lines.append("betti gens dual complexIdeal")
        target = "complexIdeal"
    else:
        gens = (
            _directed_generators(net)
            if flavor == "directed-binomial"
            else _undirected_generators(net)
        )
        lines.append(f"reactionIdeal = ideal({', '.join(gens)});")
        lines.append("-- variables of each minimal prime = one siphon;")
        lines.append("-- the minimal siphons are the inclusion-minimal variable sets")
        lines.append("decompose (reactionIdeal + ideal product gens theRing)")
        target = "reactionIdeal + ideal product gens theRing"

    if include_boundary:
        cone = conservation_cone(net)
        if cone.facets:
            pieces = []
            for facet in cone.facets:
                comp = facet.complement(cone.num_generators)
                pieces.append(f"ideal({', '.join(names[i] for i in comp)})")
            lines.append("-- facet-complement ideal of the cone of conserved quantities")
            if len(pieces) == 1:
                lines.append(f"boundaryIdeal = {pieces[0]};")
            else:
                lines.append(f"boundaryIdeal = intersect({', '.join(pieces)});")
            lines.append("-- saturating filters the decomposition to relevant siphons")
            lines.append(f"decompose saturate({target}, boundaryIdeal)")
    return "\n".join(lines) + "\n"
