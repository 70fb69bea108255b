"""Reaction network data model, text-format parser, and graph queries.

A network is a directed graph on *complexes* (formal non-negative integer
combinations of species such as ``2A + C``); each directed edge is one
reaction.  The text format is line based::

    # comment
    species A, B, C, D, E      # optional: pins the coordinate order
    2A + C <-> A + D           # reversible, expands to two reactions
    A + D -> E ; k=k23         # optional rate label
    0 -> A                     # '0' denotes the empty complex

Species not covered by a ``species`` line are indexed in order of first
appearance.  Reversible arrows are expanded immediately; only directed
reactions survive parsing.  A rate label on a reversible line is suffixed
``_fwd`` / ``_rev`` for the two directions.

Parsing reads each line once.  After the ``#`` comment is cut off, one
ASCII-only pattern (arrows, digit runs, identifiers, ``+ ; = ,``) lists the
line's tokens in a single ``findall``; the tokens plus the spaces and tabs
must make up the whole line, so any other character (a non-ASCII letter or
digit included) is an error.  The grammar then walks the token list by
index.  Columns are not tracked: an error's column is found only when it
is raised, by scanning that one line again.  Each distinct complex is keyed
by its ``(species, coefficient)`` items while parsing, and its exponent
vector over all species is built once, when the species are known.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING

from crnsiphon.linalg import RationalMatrix, SubspaceBasis, nullspace_basis

if TYPE_CHECKING:
    from crnsiphon.geometry import ConeQ

__all__ = [
    "ParseError",
    "SpeciesTable",
    "Complex",
    "Reaction",
    "ReactionNetwork",
    "ConnectivityInfo",
    "parse_network",
    "canonical_text",
    "connectivity",
    "stoichiometric_generators",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# ASCII only: \w and \d would let non-ASCII letters and digits through
_TOKEN_RE = re.compile(r"<->|->|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[+;=,]")
_ARROWS = ("->", "<->")
_COMPLEX_ENDS = ("->", "<->", ";")
_MAX_COEFF = 2**31 - 1
_MAX_COEFF_DIGITS = len(str(_MAX_COEFF))


class ParseError(ValueError):
    """Syntax or validation error in a network description."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True)
class SpeciesTable:
    """Ordered list of species names; order defines all vector coordinates."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate species names")
        for name in self.names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid species name {name!r}")

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)


@dataclass(frozen=True)
class Complex:
    """A complex, stored as its exponent vector over the species table."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if min(self.exponents, default=0) < 0:
            raise ValueError("complex exponents must be non-negative")

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(compress(range(len(self.exponents)), self.exponents))

    @property
    def is_zero(self) -> bool:
        return not any(self.exponents)

    def text(self, species: SpeciesTable) -> str:
        """Render as ``2A + C`` (or ``0`` for the empty complex)."""
        terms = []
        for i, e in enumerate(self.exponents):
            if e == 0:
                continue
            terms.append(species.names[i] if e == 1 else f"{e}{species.names[i]}")
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class Reaction:
    """Directed edge between two complex indices."""

    source: int
    target: int
    rate_label: str | None = None

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("reaction source and target complexes must differ")


@dataclass(frozen=True)
class ReactionNetwork:
    species: SpeciesTable
    complexes: tuple[Complex, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        s = len(self.species)
        if not self.reactions:
            raise ValueError("network has no reactions")
        seen: dict[tuple[int, ...], int] = {}
        for idx, cp in enumerate(self.complexes):
            if len(cp.exponents) != s:
                raise ValueError("complex exponent vector length does not match species count")
            if cp.exponents in seen:
                raise ValueError(f"duplicate complex at indices {seen[cp.exponents]} and {idx}")
            seen[cp.exponents] = idx
        used: set[int] = set()
        edges: set[tuple[int, int]] = set()
        for r in self.reactions:
            if not (0 <= r.source < len(self.complexes) and 0 <= r.target < len(self.complexes)):
                raise ValueError("reaction refers to an unknown complex index")
            if (r.source, r.target) in edges:
                raise ValueError(f"duplicate reaction {r.source} -> {r.target}")
            edges.add((r.source, r.target))
            used.update((r.source, r.target))
        if used != set(range(len(self.complexes))):
            isolated = sorted(set(range(len(self.complexes))) - used)
            raise ValueError(f"complexes {isolated} appear in no reaction")

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def num_complexes(self) -> int:
        return len(self.complexes)

    def reactant_support(self, reaction_index: int) -> frozenset[int]:
        return self.complexes[self.reactions[reaction_index].source].support

    def product_support(self, reaction_index: int) -> frozenset[int]:
        return self.complexes[self.reactions[reaction_index].target].support

    @cached_property
    def _connectivity(self) -> ConnectivityInfo:
        return _complex_graph_connectivity(self)

    @cached_property
    def _conservation_basis(self) -> SubspaceBasis:
        return SubspaceBasis(
            nullspace_basis(RationalMatrix(self.integer_net_changes, self.num_species))
        )

    @cached_property
    def _conservation_cone(self) -> ConeQ:
        from crnsiphon.geometry import build_cone  # geometry imports this module

        return build_cone(self._conservation_basis)

    @cached_property
    def integer_net_changes(self) -> tuple[tuple[int, ...], ...]:
        """Distinct net change vectors in order of first reaction (the
        equality rows of every conservation-law LP)."""
        return tuple(dict.fromkeys(stoichiometric_generators(self)))

    def reaction_text(self, reaction_index: int) -> str:
        r = self.reactions[reaction_index]
        return (
            f"{self.complexes[r.source].text(self.species)} -> "
            f"{self.complexes[r.target].text(self.species)}"
        )


@dataclass(frozen=True)
class ConnectivityInfo:
    """Strong components and linkage classes of the complex graph."""

    strong_components: tuple[tuple[int, ...], ...]
    linkage_classes: tuple[tuple[int, ...], ...]

    @property
    def is_strongly_connected(self) -> bool:
        return len(self.strong_components) == 1

    @property
    def components_strongly_connected(self) -> bool:
        # each linkage class is one strong component; strong components split them
        return len(self.strong_components) == len(self.linkage_classes)


# ---------------------------------------------------------------------------
# parsing


def _token_columns(line: str, line_no: int) -> list[int]:
    """1-based column of every token of ``line``, scanned one position at a
    time; raises on the first character no token covers.  Only an error
    pays for this scan."""
    columns = []
    pos = 0
    while pos < len(line):
        if line[pos] in " \t":
            pos += 1
            continue
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(f"unexpected character {line[pos]!r}", line_no, pos + 1)
        columns.append(pos + 1)
        pos = m.end()
    return columns


class _Syntax(Exception):
    """A grammar error at token ``index`` of the current line (``None``:
    at the line as a whole); :func:`parse_network` turns it into a
    :class:`ParseError` with the line number and column."""

    def __init__(self, message: str, index: int | None = None):
        self.message = message
        self.index = index


def _expected(what: str, toks: list[str], i: int) -> _Syntax:
    if i >= len(toks):
        return _Syntax(f"expected {what} at end of line")
    return _Syntax(f"expected {what}, found {toks[i]!r}", i)


def _coefficient(toks: list[str], i: int) -> int:
    # count the digits first: int() refuses strings past CPython's digit limit
    digits = toks[i].lstrip("0")
    if not digits:
        raise _Syntax("stoichiometric coefficient must be >= 1", i)
    if len(digits) > _MAX_COEFF_DIGITS or int(digits) > _MAX_COEFF:
        raise _Syntax("stoichiometric coefficient too large", i)
    return int(digits)


def _complex(toks: list[str], i: int, species: dict[str, int]) -> tuple[frozenset, int]:
    """The complex that starts at token ``i``, keyed by its ``(name,
    coefficient)`` items, and the index after it; notes new species."""
    n = len(toks)
    if i >= n:
        raise _Syntax("expected a complex at end of line")
    if toks[i] == "0" and (i + 1 == n or toks[i + 1] in _COMPLEX_ENDS):
        return frozenset(), i + 1
    coeffs: dict[str, int] = {}
    while True:
        if i >= n:
            raise _Syntax("expected a species term at end of line")
        tok = toks[i]
        coeff = 1
        if tok.isdigit():
            coeff = _coefficient(toks, i)
            i += 1
            if i >= n or not toks[i].isidentifier():
                raise _expected("species name", toks, i)
            tok = toks[i]
        elif not tok.isidentifier():
            raise _Syntax(f"expected a species term, found {tok!r}", i)
        if tok not in species:
            species[tok] = len(species)
        coeffs[tok] = coeffs.get(tok, 0) + coeff
        i += 1
        if i < n and toks[i] == "+":
            i += 1
            continue
        return frozenset(coeffs.items()), i


def _declare_species(toks: list[str], species: dict[str, int]):
    i = 1
    while True:
        if i >= len(toks) or not toks[i].isidentifier():
            raise _expected("species name", toks, i)
        if toks[i] in species:
            raise _Syntax(f"species {toks[i]!r} declared twice", i)
        species[toks[i]] = len(species)
        i += 1
        if i == len(toks):
            return
        if toks[i] != ",":
            raise _expected("','", toks, i)
        i += 1


def _reactions(toks: list[str], species: dict[str, int]) -> tuple:
    """``(source key, target key, rate label, reversible)`` of the line."""
    n = len(toks)
    lhs, i = _complex(toks, 0, species)
    if i >= n or toks[i] not in _ARROWS:
        raise _expected("'->' or '<->'", toks, i)
    arrow = toks[i]
    rhs, i = _complex(toks, i + 1, species)
    label: str | None = None
    if i < n:
        if toks[i] != ";":
            raise _Syntax(f"unexpected trailing {toks[i]!r}", i)
        i += 1
        if i >= n or not toks[i].isidentifier():
            raise _expected("'k'", toks, i)
        if toks[i] != "k":
            raise _Syntax("rate label must be written '; k=<name>'", i)
        i += 1
        if i >= n or toks[i] != "=":
            raise _expected("'='", toks, i)
        i += 1
        if i >= n or not toks[i].isidentifier():
            raise _expected("rate label", toks, i)
        label = toks[i]
        i += 1
        if i < n:
            raise _Syntax(f"unexpected trailing {toks[i]!r}", i)
    return lhs, rhs, label, arrow == "<->"


def parse_network(text: str) -> ReactionNetwork:
    """Parse a network description; raises :class:`ParseError` on bad input."""
    species: dict[str, int] = {}  # name -> coordinate, in order of appearance
    raw: list[tuple[frozenset, frozenset, str | None, int]] = []
    for line_no, full in enumerate(text.splitlines(), start=1):
        # rstrip leaves a line that is empty or ends in a non-blank
        line = full.split("#", 1)[0].rstrip()
        if not line:
            continue
        toks = _TOKEN_RE.findall(line)
        # the tokens and the blanks must account for every character
        if len("".join(toks)) + line.count(" ") + line.count("\t") != len(line):
            _token_columns(line, line_no)
        try:
            if toks[0] == "species":
                _declare_species(toks, species)
                continue
            lhs, rhs, label, reversible = _reactions(toks, species)
        except _Syntax as exc:
            column = None if exc.index is None else _token_columns(line, line_no)[exc.index]
            raise ParseError(exc.message, line_no, column) from None
        if reversible:
            raw.append((lhs, rhs, f"{label}_fwd" if label else None, line_no))
            raw.append((rhs, lhs, f"{label}_rev" if label else None, line_no))
        else:
            raw.append((lhs, rhs, label, line_no))

    if not raw:
        raise ParseError("network has no reactions")

    s = len(species)
    complex_index: dict[frozenset, int] = {}
    complexes: list[Complex] = []

    def index_of(key: frozenset) -> int:
        k = complex_index.get(key)
        if k is None:
            vec = [0] * s
            for name, c in key:
                vec[species[name]] = c
            k = complex_index[key] = len(complexes)
            complexes.append(Complex(tuple(vec)))
        return k

    reactions: list[Reaction] = []
    edge_seen: set[tuple[int, int]] = set()
    for lhs, rhs, label, line_no in raw:
        src = index_of(lhs)
        tgt = index_of(rhs)
        if src == tgt:
            raise ParseError("reaction has identical source and target complexes", line_no)
        if (src, tgt) in edge_seen:
            raise ParseError("duplicate reaction", line_no)
        edge_seen.add((src, tgt))
        reactions.append(Reaction(src, tgt, label))

    return ReactionNetwork(SpeciesTable(tuple(species)), tuple(complexes), tuple(reactions))


def canonical_text(net: ReactionNetwork) -> str:
    """Serialize so that reparsing reproduces the network exactly."""
    lines = ["species " + ", ".join(net.species.names)]
    for i, r in enumerate(net.reactions):
        line = net.reaction_text(i)
        if r.rate_label:
            line += f" ; k={r.rate_label}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph structure


def connectivity(net: ReactionNetwork) -> ConnectivityInfo:
    """Strong components and linkage classes, computed once per network."""
    return net._connectivity


def _complex_graph_connectivity(net: ReactionNetwork) -> ConnectivityInfo:
    """Strong components (iterative Tarjan) and linkage classes."""
    n = net.num_complexes
    succ: list[list[int]] = [[] for _ in range(n)]
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for r in net.reactions:
        succ[r.source].append(r.target)
        neighbors[r.source].add(r.target)
        neighbors[r.target].add(r.source)

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(succ[v]):
                w = succ[v][ei]
                ei += 1
                if index[w] == -1:
                    work.append((v, ei))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    visited = [False] * n
    linkage: list[list[int]] = []
    for root in range(n):
        if visited[root]:
            continue
        queue = [root]
        visited[root] = True
        block = []
        while queue:
            v = queue.pop()
            block.append(v)
            for w in neighbors[v]:
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
        linkage.append(sorted(block))

    return ConnectivityInfo(
        strong_components=tuple(tuple(c) for c in sorted(components, key=lambda c: c[0])),
        linkage_classes=tuple(tuple(c) for c in sorted(linkage, key=lambda c: c[0])),
    )


def stoichiometric_generators(net: ReactionNetwork) -> list[tuple[int, ...]]:
    """Net change vectors ``target - source``, one per reaction, in order."""
    out = []
    for r in net.reactions:
        src = net.complexes[r.source].exponents
        tgt = net.complexes[r.target].exponents
        out.append(tuple(t - s for s, t in zip(src, tgt)))
    return out
