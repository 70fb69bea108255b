"""Cone of conserved quantities, its facets, and invariant polytopes.

For a network with conservation basis A (rows spanning the conservation
space), the attainable conserved quantities form the cone generated by
the columns of A.  Everything downstream is combinatorial data about that
cone and about the polytopes ``{x >= 0 : A x = A c0}``:

* facets of the cone, each carrying an exact inner normal, for every
  cone whether or not it is pointed;
* vertex supports of an invariant polytope (its combinatorial type: two
  positive starts lie in the same chamber exactly when their polytopes
  have the same vertex supports);
* emptiness / dimension of faces ``{x in polytope : x_Z = 0}``.

Facets and vertices come from one exact double-description routine,
:func:`_extreme_rays`, which lists the extreme rays of a cone
``{z >= 0 : E z = 0}`` as primitive integer vectors.  The conservation
basis, the rays, the facet normals and the polytope rows are all Python
ints; Fractions appear only in a rational start ``c0``, in the right-hand
side it gives and in the LP's face points.  The facets are the
extreme non-negative conservation laws (the dual cone's extreme rays, the
law's zero set naming the generators on the facet); the vertices are the
extreme rays with ``t > 0`` of ``{(x, t) >= 0 : A x = t A c0}``.
Whether a start lets a face be non-empty, and its dimension, has one
door per question: :func:`crnsiphon.relevance.analyze` for the minimal
siphons (by the siphon's conservation law when it has one, else by the
face LP), and :func:`face_dimension` for any zero set (``None`` when the
face is empty); neither enumerates vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from crnsiphon.linalg import (
    RationalMatrix,
    SubspaceBasis,
    conservation_basis,
    integer_row,
    kernel_vectors,
    normalize_integer_vector,
    nullspace_basis,
    row_reduce,
)
from crnsiphon.lp import LinearSystem, affine_dim
from crnsiphon.network import ReactionNetwork

__all__ = [
    "Facet",
    "ConeQ",
    "InvariantPolytope",
    "build_cone",
    "conservation_cone",
    "vertex_supports",
    "face_dimension",
]

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class Facet:
    """A facet as its generator incidence set plus an exact inner normal."""

    members: tuple[int, ...]  # generator indices lying on the facet
    normal: tuple[int, ...]  # primitive v with <v, a_i> = 0 on members, > 0 off

    def complement(self, num_generators: int) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(i for i in range(num_generators) if i not in inside)


@dataclass(frozen=True)
class ConeQ:
    matrix: RationalMatrix  # rows: conservation basis; columns: generators a_i
    facets: tuple[Facet, ...]

    @property
    def pointed(self) -> bool:
        """Every generator lies off some facet, so some functional is
        positive on the cone minus 0; a zero-dimensional cone is pointed."""
        on_all = set(range(self.num_generators)).intersection(*(f.members for f in self.facets))
        return self.dim == 0 or not on_all

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def num_generators(self) -> int:
        return self.matrix.cols


def _zero_mask(ray: Sequence[int]) -> int:
    return sum(1 << i for i, x in enumerate(ray) if not x)


def _adjacent(common: int, pair: int, rays_zero_at: dict[int, int], every: int) -> bool:
    # the rays vanishing wherever both rays of `pair` vanish, narrowed one
    # common zero coordinate at a time; adjacent when only the pair is left
    left = every
    while common:
        low = common & -common
        left &= rays_zero_at[low.bit_length() - 1]
        if left == pair:
            return True
        common ^= low
    return left == pair


def _extreme_rays(e: RationalMatrix) -> list[tuple[int, ...]]:
    """Primitive integer extreme rays of the cone ``{z >= 0 : e z = 0}``.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996).  The
    kernel of ``e`` is parametrized by the free columns of its RREF, so the
    cone cut out by ``z_free >= 0`` is generated by one kernel vector per
    free column and has no lineality space.  The pivot coordinates' bounds
    ``z_p >= 0`` are then added one at a time, in column order (ordering
    them by the number of positive-negative pairs measured no faster): rays
    with ``z_p >= 0`` stay, and each adjacent positive-negative pair is
    combined into a ray with ``z_p = 0``.  Two rays are adjacent when at
    least k - 2 of the bounds added so far vanish on both (k the kernel
    dimension) and no third ray vanishes on all of those; zero sets are int
    bitmasks over the coordinates.
    """
    red = row_reduce(e)
    rays = kernel_vectors(red, fix_sign=False)
    k = len(rays)
    zeros = [_zero_mask(r) for r in rays]
    added = sum(1 << c for c in range(e.cols) if c not in red.pivot_cols)
    for p in red.pivot_cols:
        pos = [i for i, r in enumerate(rays) if r[p] > 0]
        neg = [i for i, r in enumerate(rays) if r[p] < 0]
        kept = [i for i, r in enumerate(rays) if r[p] >= 0]
        new_rays = [rays[i] for i in kept]
        new_zeros = [zeros[i] for i in kept]
        if pos and neg:
            rays_zero_at = {}
            for c in range(e.cols):
                if added >> c & 1:
                    rays_zero_at[c] = sum(1 << i for i, z in enumerate(zeros) if z >> c & 1)
            every = (1 << len(rays)) - 1
            for i in pos:
                ri, zi = rays[i], zeros[i] & added
                for j in neg:
                    common = zi & zeros[j]
                    if common.bit_count() < k - 2:
                        continue
                    if not _adjacent(common, (1 << i) | (1 << j), rays_zero_at, every):
                        continue
                    rj = rays[j]
                    a, b = ri[p], -rj[p]
                    ray = [b * x + a * y for x, y in zip(ri, rj)]
                    g = gcd(*ray)
                    ray = tuple(x // g for x in ray)
                    new_rays.append(ray)
                    new_zeros.append(_zero_mask(ray))
        rays, zeros = new_rays, new_zeros
        added |= 1 << p
    return rays


def build_cone(basis: SubspaceBasis) -> ConeQ:
    """Cone generated by the columns of the basis matrix, with its facets.
    A zero-dimensional cone (no conservation laws) is pointed and facet-free.

    The facets are read off the extreme non-negative conservation laws z:
    the generators on a facet are the zero set of z, and its normal v
    solves ``A^T v = z``.  ``A`` has full row rank, so the cone is
    full-dimensional and these are its facets whether or not it is
    pointed; it is pointed exactly when the supports of those laws cover
    every species, and it is all of R^d when there are none.
    """
    a = basis.matrix
    d, s = a.rows, a.cols
    if d == 0:
        return ConeQ(a, facets=())
    laws = _extreme_rays(nullspace_basis(a))
    # A^T has full column rank, so the first d rows of the RREF of
    # [A^T | laws] hold the normals, one column per law
    red = row_reduce(
        RationalMatrix(
            tuple(a.column(i) + tuple(z[i] for z in laws) for i in range(s)), d + len(laws)
        )
    )
    facets = []
    for j, z in enumerate(laws):
        normal, _ = red.scaled_column(d + j)
        members = tuple(i for i, x in enumerate(z) if not x)
        facets.append(Facet(members, normalize_integer_vector(normal, fix_sign=False)))
    return ConeQ(a, facets=tuple(sorted(facets, key=lambda f: f.members)))


def conservation_cone(net: ReactionNetwork) -> ConeQ:
    """:func:`build_cone` of the network's conservation basis, computed
    once per network."""
    return net._conservation_cone


@dataclass(frozen=True)
class InvariantPolytope:
    """The polytope ``{x >= 0 : A x = A c0}`` for a positive start c0.

    ``c0`` may be given as any sequence of rationals; it is stored as a
    tuple of Fractions.  Everything derived from it is read off
    :attr:`integer_c0`, so an integer ``A`` gives integer rows."""

    matrix: RationalMatrix
    c0: Vec

    def __post_init__(self):
        c0 = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in self.c0)
        object.__setattr__(self, "c0", c0)
        if len(c0) != self.matrix.cols:
            raise ValueError("c0 length does not match matrix columns")
        if any(x <= 0 for x in c0):
            raise ValueError("c0 must be strictly positive")

    @classmethod
    def from_network(cls, net: ReactionNetwork, c0: Sequence) -> "InvariantPolytope":
        return cls(conservation_basis(net).matrix, c0)

    @property
    def num_species(self) -> int:
        return self.matrix.cols

    @cached_property
    def scaled_rhs(self) -> tuple:
        """``A c0`` times the common denominator of ``c0``."""
        return self.matrix.matvec(self.integer_c0)

    @cached_property
    def rhs(self) -> tuple:
        d = lcm(*(x.denominator for x in self.c0))
        return self.scaled_rhs if d == 1 else tuple(Fraction(b, d) for b in self.scaled_rhs)

    @cached_property
    def vertex_supports(self) -> tuple[tuple[int, ...], ...]:
        return vertex_supports(self)

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each row ``[a_i | (A c0)_i]`` scaled to integers, once per
        polytope; every face system shares them."""
        scaled = (integer_row(row + (b,)) for row, b in zip(self.matrix.entries, self.rhs))
        return tuple((tuple(ints), scale) for ints, scale in scaled)

    @cached_property
    def integer_c0(self) -> tuple[int, ...]:
        """``c0`` times the least positive integer clearing its
        denominators, once per polytope."""
        return tuple(integer_row(self.c0)[0])

    def face_system(self, zero_set: Iterable[int]) -> LinearSystem:
        s = self.num_species
        return LinearSystem(s, self.rows, frozenset(range(s)), frozenset(zero_set))


def vertex_supports(p: InvariantPolytope) -> tuple[tuple[int, ...], ...]:
    """Supports of all vertices, each exactly once, sorted by (size, members).

    The vertices are the extreme rays (x, t) with t > 0 of the cone
    ``{(x, t) >= 0 : A x - t A c0 = 0}``; the rays with t = 0 are the
    directions in which the polytope is unbounded.
    """
    a, s = p.matrix, p.num_species
    # t scaled by the common denominator of c0: the same rays, up to the
    # size of their last entry
    homogenized = RationalMatrix(
        tuple(row + (-b,) for row, b in zip(a.entries, p.scaled_rhs)), s + 1
    )
    supports = {
        tuple(i for i in range(s) if ray[i]) for ray in _extreme_rays(homogenized) if ray[s]
    }
    return tuple(sorted(supports, key=lambda sup: (len(sup), sup)))


def face_dimension(p: InvariantPolytope, zero_set: Iterable[int]) -> int | None:
    """Affine dimension of the face, or None when it is empty."""
    return affine_dim(p.face_system(zero_set))

