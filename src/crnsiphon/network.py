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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from crnsiphon.linalg import RationalMatrix, SubspaceBasis, nullspace_basis

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
_INT_RE = re.compile(r"[0-9]+")
_MAX_COEFF = 2**31 - 1


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
        if any(e < 0 for e in self.exponents):
            raise ValueError("complex exponents must be non-negative")

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e > 0)

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
        m = RationalMatrix.from_rows(self.integer_net_changes, cols=self.num_species)
        return SubspaceBasis(nullspace_basis(m))

    @cached_property
    def integer_net_changes(self) -> tuple[tuple[int, ...], ...]:
        """Distinct net change vectors in order of first reaction."""
        return tuple(dict.fromkeys(stoichiometric_generators(self)))

    @cached_property
    def distinct_net_changes(self) -> tuple[tuple[Fraction, ...], ...]:
        """:attr:`integer_net_changes` as exact rationals (the equality rows
        of every conservation-law LP)."""
        return tuple(tuple(Fraction(x) for x in v) for v in self.integer_net_changes)

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
    is_strongly_connected: bool
    components_strongly_connected: bool


# ---------------------------------------------------------------------------
# parsing


class _LineTokens:
    """Tokenizer for a single statement line, tracking columns for errors."""

    def __init__(self, text: str, line_no: int):
        self.line_no = line_no
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, column)
        pos = 0
        n = len(text)
        while pos < n:
            ch = text[pos]
            if ch in " \t":
                pos += 1
                continue
            col = pos + 1
            if text.startswith("<->", pos):
                self.tokens.append(("ARROW", "<->", col))
                pos += 3
            elif text.startswith("->", pos):
                self.tokens.append(("ARROW", "->", col))
                pos += 2
            elif "0" <= ch <= "9":
                m = _INT_RE.match(text, pos)
                self.tokens.append(("INT", m.group(0), col))
                pos = m.end()
            elif m := _IDENT_RE.match(text, pos):
                self.tokens.append(("IDENT", m.group(0), col))
                pos = m.end()
            elif ch in "+;=,":
                self.tokens.append((ch, ch, col))
                pos += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", line_no, col)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int] | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok is None:
            raise ParseError(f"expected {what} at end of line", self.line_no)
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", self.line_no, tok[2])
        return tok


class _Builder:
    def __init__(self):
        self.species_order: list[str] = []
        self.species_seen: set[str] = set()
        self.raw_reactions: list[tuple[dict[str, int], dict[str, int], str | None, int]] = []

    def declare(self, name: str, line_no: int, col: int):
        if name in self.species_seen:
            raise ParseError(f"species {name!r} declared twice", line_no, col)
        self.species_seen.add(name)
        self.species_order.append(name)

    def note_species(self, name: str):
        if name not in self.species_seen:
            self.species_seen.add(name)
            self.species_order.append(name)


def _parse_complex(toks: _LineTokens, builder: _Builder) -> dict[str, int]:
    tok = toks.peek()
    if tok is None:
        raise ParseError("expected a complex at end of line", toks.line_no)
    if tok[0] == "INT" and tok[1] == "0":
        nxt = toks.tokens[toks.pos + 1] if toks.pos + 1 < len(toks.tokens) else None
        if nxt is None or nxt[0] in ("ARROW", ";"):
            toks.next()
            return {}
    coeffs: dict[str, int] = {}
    while True:
        tok = toks.next()
        if tok is None:
            raise ParseError("expected a species term at end of line", toks.line_no)
        kind, value, col = tok
        coeff = 1
        if kind == "INT":
            coeff = int(value)
            if coeff < 1:
                raise ParseError("stoichiometric coefficient must be >= 1", toks.line_no, col)
            if coeff > _MAX_COEFF:
                raise ParseError("stoichiometric coefficient too large", toks.line_no, col)
            kind, value, col = toks.expect("IDENT", "species name")
        if kind != "IDENT":
            raise ParseError(f"expected a species term, found {value!r}", toks.line_no, col)
        builder.note_species(value)
        coeffs[value] = coeffs.get(value, 0) + coeff
        nxt = toks.peek()
        if nxt is not None and nxt[0] == "+":
            toks.next()
            continue
        return coeffs


def _parse_reaction_line(toks: _LineTokens, builder: _Builder):
    lhs = _parse_complex(toks, builder)
    arrow = toks.expect("ARROW", "'->' or '<->'")
    rhs = _parse_complex(toks, builder)
    label: str | None = None
    tok = toks.peek()
    if tok is not None:
        if tok[0] != ";":
            raise ParseError(f"unexpected trailing {tok[1]!r}", toks.line_no, tok[2])
        toks.next()
        key = toks.expect("IDENT", "'k'")
        if key[1] != "k":
            raise ParseError("rate label must be written '; k=<name>'", toks.line_no, key[2])
        toks.expect("=", "'='")
        label = toks.expect("IDENT", "rate label")[1]
        tok = toks.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok[1]!r}", toks.line_no, tok[2])
    if arrow[1] == "<->":
        fwd = f"{label}_fwd" if label else None
        rev = f"{label}_rev" if label else None
        builder.raw_reactions.append((lhs, rhs, fwd, toks.line_no))
        builder.raw_reactions.append((rhs, lhs, rev, toks.line_no))
    else:
        builder.raw_reactions.append((lhs, rhs, label, toks.line_no))


def parse_network(text: str) -> ReactionNetwork:
    """Parse a network description; raises :class:`ParseError` on bad input."""
    builder = _Builder()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _LineTokens(line, line_no)
        first = toks.peek()
        if first is not None and first[0] == "IDENT" and first[1] == "species":
            toks.next()
            name = toks.expect("IDENT", "species name")
            builder.declare(name[1], line_no, name[2])
            while toks.peek() is not None:
                toks.expect(",", "','")
                name = toks.expect("IDENT", "species name")
                builder.declare(name[1], line_no, name[2])
            continue
        _parse_reaction_line(toks, builder)

    if not builder.raw_reactions:
        raise ParseError("network has no reactions")

    species = SpeciesTable(tuple(builder.species_order))
    s = len(species)

    def exponents(coeffs: dict[str, int]) -> tuple[int, ...]:
        vec = [0] * s
        for name, c in coeffs.items():
            vec[species.index[name]] = c
        return tuple(vec)

    complex_index: dict[tuple[int, ...], int] = {}
    complexes: list[Complex] = []
    reactions: list[Reaction] = []
    edge_seen: set[tuple[int, int]] = set()
    for lhs, rhs, label, line_no in builder.raw_reactions:
        pair = []
        for coeffs in (lhs, rhs):
            exp = exponents(coeffs)
            if exp not in complex_index:
                complex_index[exp] = len(complexes)
                complexes.append(Complex(exp))
            pair.append(complex_index[exp])
        src, tgt = pair
        if src == tgt:
            raise ParseError("reaction has identical source and target complexes", line_no)
        if (src, tgt) in edge_seen:
            raise ParseError("duplicate reaction", line_no)
        edge_seen.add((src, tgt))
        reactions.append(Reaction(src, tgt, label))

    return ReactionNetwork(species, tuple(complexes), tuple(reactions))


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

    comp_of = {}
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci

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

    strong = tuple(tuple(c) for c in sorted(components, key=lambda c: c[0]))
    link = tuple(tuple(c) for c in sorted(linkage, key=lambda c: c[0]))
    components_strong = all(
        len({comp_of[v] for v in block}) == 1 for block in link
    )
    return ConnectivityInfo(
        strong_components=strong,
        linkage_classes=link,
        is_strongly_connected=len(strong) == 1,
        components_strongly_connected=components_strong,
    )


def stoichiometric_generators(net: ReactionNetwork) -> list[tuple[int, ...]]:
    """Net change vectors ``target - source``, one per reaction, in order."""
    out = []
    for r in net.reactions:
        src = net.complexes[r.source].exponents
        tgt = net.complexes[r.target].exponents
        out.append(tuple(t - s for s, t in zip(src, tgt)))
    return out
