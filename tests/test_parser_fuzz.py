"""The parser against its predecessor, and the CLI against arbitrary files.

``reference_parse_network`` is the character-by-character tokenizer and
``peek``/``next``/``expect`` grammar that ``parse_network`` replaced, kept
here as an oracle.  On every text both must return equal networks or raise
:class:`ParseError` with the same message, line and column.  The one
intended difference: a coefficient past CPython's integer-string digit
limit makes the reference raise ``int()``'s own ``ValueError``, while
``parse_network`` counts the digits first and reports the coefficient as
too large.
"""

from __future__ import annotations

import io
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import RECEPTOR_LIGAND, chain_network, grid_minors_network, random_network
from crnsiphon.cli import EXIT_OK, EXIT_PARSE, EXIT_USAGE, run
from crnsiphon.network import (
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    SpeciesTable,
    canonical_text,
    parse_network,
)

# ---------------------------------------------------------------------------
# the reference parser

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_MAX_COEFF = 2**31 - 1


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


def reference_parse_network(text: str) -> ReactionNetwork:
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


# ---------------------------------------------------------------------------
# texts drawn from the grammar's alphabet

_OVER_LONG = "1" + "0" * 4300  # one digit past CPython's default limit
_CHARS = (
    "ABCXYZabckxyz_0123456789 \t+;=,#<->\n"
    # Å, é, superscript two, Arabic-Indic three, no-break space,
    # ideographic space, form feed, line separator
    "\u00c5\u00e9\u00b2\u0663\u00a0\u3000\x0c\u2028"
)
_PIECES = (
    "A", "B", "C", "x1", "_y", "k", "k1", "species", "0", "1", "2", "00", "07",
    "2147483647", "2147483648", "->", "<->", "+", ";", "=", ",", " ", "\t", "\n",
    " # note", "<", "-", ">", "\u00c5", "\u00b2", "\u0663", "\u00a0", _OVER_LONG,
)
_NAMES = st.sampled_from(["A", "B", "C", "D", "x_1", "k", "species", "_"])


@st.composite
def _complexes(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return "0"
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from(["", "", "", "2", "3 ", "10", "0"]))
        terms.append(coeff + draw(_NAMES))
    return draw(st.sampled_from([" + ", "+", "  +\t"])).join(terms)


@st.composite
def _statements(draw) -> str:
    kind = draw(st.integers(0, 5))
    if kind == 0:
        names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=draw(st.booleans())))
        return "species " + ", ".join(names)
    line = draw(_complexes()) + draw(st.sampled_from([" -> ", " <-> ", "->"])) + draw(_complexes())
    if kind == 1:
        line += draw(st.sampled_from([" ; k=r1", ";k=r2", " ; k = r", " ; q=r", " ; kk=r", " ; k=", " ; k=r x"]))
    return line


@st.composite
def _grammar_texts(draw) -> str:
    lines = draw(st.lists(_statements(), min_size=1, max_size=5))
    if draw(st.booleans()):  # one edit anywhere: a dropped, doubled or foreign character
        text = "\n".join(lines)
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["", "drop", *_CHARS]))
        if edit == "drop":
            return text[:at] + text[at + 1 :]
        return text[:at] + edit + text[at:]
    return "\n".join(lines)


TEXTS = st.one_of(
    st.text(alphabet=_CHARS, max_size=60),
    st.lists(st.sampled_from(_PIECES), max_size=25).map("".join),
    _grammar_texts(),
)


def _outcome(parse, text: str):
    try:
        return ("network", parse(text))
    except ParseError as exc:
        return ("parse error", str(exc), exc.line, exc.column)


def assert_same_outcome(text: str):
    mine = _outcome(parse_network, text)
    try:
        expected = _outcome(reference_parse_network, text)
    except ValueError as exc:
        # the intended difference: int() refused the coefficient's digits
        assert "integer string conversion" in str(exc)
        assert mine[0] == "parse error"
        assert mine[1].startswith("stoichiometric coefficient too large (line ")
        return
    assert mine == expected


class TestAgainstTheReference:
    @settings(
        max_examples=1000,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(TEXTS)
    def test_same_network_or_same_error(self, text):
        assert_same_outcome(text)

    @pytest.mark.parametrize(
        "text",
        [
            "A -> B\nC + " + _OVER_LONG + "A -> B",
            _OVER_LONG + " A -> B",
            "A -> " + _OVER_LONG + "0B",
        ],
    )
    def test_over_long_coefficient_is_the_one_difference(self, text):
        with pytest.raises(ValueError) as ref:
            reference_parse_network(text)
        assert not isinstance(ref.value, ParseError)
        assert_same_outcome(text)

    def test_paper_and_random_networks(self, enzyme_inhibitor, futile_cycle):
        rng = random.Random(13)
        texts = [RECEPTOR_LIGAND, canonical_text(enzyme_inhibitor), canonical_text(futile_cycle)]
        texts += [canonical_text(chain_network(s)) for s in (3, 10, 44)]
        texts += [canonical_text(grid_minors_network(n)) for n in (3, 5)]
        texts += [canonical_text(random_network(rng)) for _ in range(100)]
        for text in texts:
            net = parse_network(text)
            assert net == reference_parse_network(text)


# ---------------------------------------------------------------------------
# the CLI on arbitrary files


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestParseCommand:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(TEXTS)
    def test_exit_code_matches_the_parser(self, fuzz_dir, text):
        path = fuzz_dir / "net.crn"
        path.write_text(text, encoding="utf-8", newline="")
        out, err = io.StringIO(), io.StringIO()
        code = run(["parse", str(path)], out=out, err=err)
        mine = _outcome(parse_network, text)
        if mine[0] == "network":
            assert (code, out.getvalue(), err.getvalue()) == (EXIT_OK, canonical_text(mine[1]), "")
        else:
            assert code == EXIT_PARSE
            assert err.getvalue() == f"parse error: {mine[1]}\n"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.binary(max_size=60))
    def test_any_bytes_exit_without_a_traceback(self, fuzz_dir, data):
        path = fuzz_dir / "bytes.crn"
        path.write_bytes(data)
        err = io.StringIO()
        code = run(["parse", str(path)], out=io.StringIO(), err=err)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE)
        assert code == EXIT_OK or err.getvalue().startswith(("error: ", "parse error: "))
