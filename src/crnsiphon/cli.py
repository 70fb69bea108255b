"""Command line front end.

Subcommands::

    parse             echo the canonical form of a network file
    siphons           minimal siphons (list, count, histogram)
    facets            facets of the cone of conserved quantities
    vertices          vertex supports of the invariant polytope of --c0
    face-dim          dimension of the face x_Z = 0 for --c0 and --siphon
    analyze           full report with every verdict (JSON, or text)
    ode               mass-action right-hand side for rates from --kappa
    invariance-check  certificate that the face of --siphon is forward invariant
    export-cas        Macaulay2 script for external cross-validation

Exit codes: 0 success, 1 usage, 2 parse error, 3 budget exceeded
(``siphons``; ``analyze`` reports a cut-short search as
``exhaustive: false``), 4 internal invariant violation (the two relevance
routes disagree, or an exact re-check inside a kernel fails).

Exact values only: rationals are written like ``3``, ``-2`` or ``1/10``
(ASCII digits, an optional sign, at most 4300 digits above and below the
bar), and integers (``--budget-ms``, ``--max-results``, rate-file reaction
indices) like ``0`` or ``-2``; decimal points, exponents, ``_``, a ``+`` on
an integer and every other spelling are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Iterator, Sequence

from crnsiphon import __version__
from crnsiphon.casexport import FLAVORS, export_cas_script, monomial
from crnsiphon.dynamics import MassActionSystem, build_rhs, check_face_invariance
from crnsiphon.geometry import InvariantPolytope, conservation_cone, face_dimension
from crnsiphon.network import ParseError, ReactionNetwork, canonical_text, parse_network
from crnsiphon.relevance import AnalysisReport, RouteDisagreementError, analyze
from crnsiphon.siphons import Budget, BudgetExceededError, minimal_siphon_counts, minimal_siphons

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"-?([0-9]+)")
_MAX_DIGITS = 4300  # CPython's default limit on int() of a string


def _parse_fraction(text: str) -> Fraction:
    """``[+-]digits[/digits]`` between blanks, with the value ``Fraction``
    gives it; anything else is a usage error.  The digits are counted
    before ``int()`` sees them."""
    text = text.strip()
    if "." in text:
        raise UsageError(f"decimal values are not accepted, write a fraction: {text!r}")
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise UsageError(f"bad rational {text!r}: Invalid literal for Fraction: {text!r}")
    sign, num, den = m.groups()
    if len(num) > _MAX_DIGITS or len(den or "") > _MAX_DIGITS:
        raise UsageError(f"bad rational {text!r}: more than {_MAX_DIGITS} digits")
    try:
        return Fraction(int(sign + num), int(den or 1))
    except ZeroDivisionError as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def _parse_int(text: str, what: str) -> int:
    """``[-]digits`` in ASCII between blanks; anything else is a usage
    error that reads ``{what} {text!r}``.  The digits are counted before
    ``int()`` sees them."""
    m = _INTEGER.fullmatch(text.strip())
    if m is None or len(m[1]) > _MAX_DIGITS:
        raise UsageError(f"{what} {text!r}")
    return int(m[0])


def _split_entries(text: str, where: str) -> list[str]:
    """The comma-separated entries of ``text``; an empty one, a leading or
    trailing comma included, is a usage error that names its position."""
    parts = text.split(",")
    for k, part in enumerate(parts, start=1):
        if not part.strip():
            raise UsageError(f"{where}: entry {k} of {len(parts)} is empty")
    return parts


def _parse_c0(net: ReactionNetwork, text: str) -> tuple[Fraction, ...]:
    parts = _split_entries(text, "--c0")
    if len(parts) != net.num_species:
        raise UsageError(
            f"--c0 needs {net.num_species} values in species order "
            f"({', '.join(net.species.names)}), got {len(parts)}"
        )
    return tuple(_parse_fraction(p) for p in parts)


def _read_text(path: str) -> str:
    """The whole of an input file; any ``OSError`` (a missing file, a
    directory, no permission) is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(str(exc)) from None


def _data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a data file that is not blank
    once its ``#`` comment is stripped."""
    for line_no, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _read_samples(path: str, net: ReactionNetwork) -> list[tuple[Fraction, ...]]:
    samples = []
    for line_no, line in _data_lines(path):
        parts = _split_entries(line, f"{path}:{line_no}")
        if len(parts) != net.num_species:
            raise UsageError(
                f"{path}:{line_no}: expected {net.num_species} values, got {len(parts)}"
            )
        samples.append(tuple(_parse_fraction(p) for p in parts))
    if not samples:
        raise UsageError(f"{path}: no sample initial conditions found")
    return samples


def _read_kappa(path: str, net: ReactionNetwork) -> tuple[Fraction, ...]:
    rates: dict[int, Fraction] = {}
    for line_no, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise UsageError(f"{path}:{line_no}: expected 'reaction_index rate'")
        idx = _parse_int(parts[0], f"{path}:{line_no}: bad reaction index")
        if not 0 <= idx < len(net.reactions):
            raise UsageError(f"{path}:{line_no}: reaction index {idx} out of range")
        if idx in rates:
            raise UsageError(f"{path}:{line_no}: reaction {idx} assigned twice")
        rates[idx] = _parse_fraction(parts[1])
    missing = [i for i in range(len(net.reactions)) if i not in rates]
    if missing:
        raise UsageError(f"{path}: missing rates for reactions {missing}")
    return tuple(rates[i] for i in range(len(net.reactions)))


def _read_permutations(path: str, net: ReactionNetwork) -> list[dict[int, int]]:
    perms = []
    idx = net.species.index
    for line_no, line in _data_lines(path):
        names = line.replace(",", " ").split()
        if sorted(names) != sorted(net.species.names):
            raise UsageError(
                f"{path}:{line_no}: a permutation must list every species exactly once"
            )
        perms.append({i: idx[names[i]] for i in range(net.num_species)})
    if not perms:
        raise UsageError(f"{path}: no permutations found")
    return perms


def _parse_siphon(net: ReactionNetwork, text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    members = []
    for name in text.split(","):
        name = name.strip()
        if name not in net.species.index:
            raise UsageError(f"unknown species {name!r}")
        members.append(net.species.index[name])
    return tuple(sorted(set(members)))


def _budget_from(args) -> Budget | None:
    limits = []
    for name in ("--budget-ms", "--max-results"):
        text = getattr(args, name[2:].replace("-", "_"), None)
        value = None if text is None else _parse_int(text, f"bad {name} value")
        if value is not None and value < 0:
            raise UsageError(f"{name} must not be negative, got {value}")
        limits.append(value)
    max_ms, max_results = limits
    if max_ms is None and max_results is None:
        return None
    return Budget(max_results=max_results, max_ms=max_ms)


def _report_to_dict(report: AnalysisReport) -> dict:
    net = report.network
    conn = report.connectivity_info
    cone_dict = {
        "dim": report.cone.dim,
        "pointed": report.cone.pointed,
        "facets": [
            {
                "members": [net.species.names[i] for i in f.members],
                "complement": [
                    net.species.names[i] for i in f.complement(net.num_species)
                ],
                "normal": [str(x) for x in f.normal],
            }
            for f in report.cone.facets
        ],
    }
    siphons = []
    for a in report.siphons:
        entry: dict = {
            "members": list(a.verdict.siphon.names(net)),
            "relevant": a.verdict.relevant,
            "route": "conservation_lp",
            "cross_checked": True,
            "witnesses": {},
        }
        if a.verdict.conservation_law is not None:
            entry["witnesses"]["conservation_law"] = [str(x) for x in a.verdict.conservation_law]
        if a.verdict.certificate is not None:
            entry["witnesses"]["infeasibility_certificate"] = [
                str(x) for x in a.verdict.certificate
            ]
        if a.facet is not None:
            entry["witnesses"]["facet_complement"] = [
                net.species.names[i] for i in a.facet.complement(net.num_species)
            ]
        if a.c0_verdict is not None:
            entry["c0_relevant"] = a.c0_verdict.relevant
            if a.c0_verdict.face_point is not None:
                entry["witnesses"]["face_point"] = [str(x) for x in a.c0_verdict.face_point]
            entry["face_dim"] = a.face_dim
        if a.omega_hits is not None:
            entry["omega_relevant"] = bool(a.omega_hits)
            entry["omega_witness_samples"] = list(a.omega_hits)
        siphons.append(entry)
    result = {
        "schema_version": 1,
        "network": {
            "species": list(net.species.names),
            "complexes": [
                {"exponents": list(c.exponents), "text": c.text(net.species)}
                for c in net.complexes
            ],
            "reactions": [
                {"source": r.source, "target": r.target, "rate_label": r.rate_label}
                for r in net.reactions
            ],
        },
        "connectivity": {
            "strong_components": [list(c) for c in conn.strong_components],
            "linkage_classes": [list(c) for c in conn.linkage_classes],
            "is_strongly_connected": conn.is_strongly_connected,
            "components_strongly_connected": conn.components_strongly_connected,
        },
        "conservation_basis": [
            [str(x) for x in row] for row in report.conservation.matrix.entries
        ],
        "cone": cone_dict,
        "minimal_siphons": siphons,
        "exhaustive": report.exhaustive,
        "verdicts": {
            "all_non_relevant": report.all_non_relevant,
            "boundary_steady_state_certificate": report.boundary_certificate,
        },
        "notes": list(report.notes),
        "provenance": {
            "tool": "crnsiphon",
            "version": __version__,
        },
        "timing": report.timing_ms,
    }
    if report.c0 is not None:
        result["c0"] = [str(x) for x in report.c0]
    if report.omega_samples is not None:
        result["omega_samples"] = [[str(x) for x in sm] for sm in report.omega_samples]
    if report.orbits is not None:
        result["orbits"] = [list(o) for o in report.orbits]
    return result


def _report_to_text(report: AnalysisReport) -> str:
    net = report.network
    conn = report.connectivity_info
    lines = [
        f"species ({net.num_species}): {' '.join(net.species.names)}",
        f"complexes: {net.num_complexes}, reactions: {len(net.reactions)}",
        f"strongly connected: {conn.is_strongly_connected} "
        f"(components strongly connected: {conn.components_strongly_connected})",
        f"conservation laws: {report.conservation.dim}",
        f"cone: dim {report.cone.dim}, pointed {report.cone.pointed}",
    ]
    for f in report.cone.facets:
        comp = " ".join(net.species.names[i] for i in f.complement(net.num_species))
        lines.append(f"  facet complement: {comp}")
    label = "minimal siphons" if report.exhaustive else "minimal siphons (partial)"
    lines.append(f"{label}: {len(report.siphons)}")
    for a in report.siphons:
        v = a.verdict
        line = f"  {{{' '.join(v.siphon.names(net))}}}: " + (
            "relevant" if v.relevant else "not relevant"
        )
        if v.conservation_law is not None:
            line += f" [conservation law: {' '.join(map(str, v.conservation_law))}]"
        if a.c0_verdict is not None:
            line += f" [c0-relevant: {a.c0_verdict.relevant}"
            if a.face_dim is not None:
                line += f", face dim {a.face_dim}"
            line += "]"
        if a.omega_hits is not None:
            line += f" [sample hits: {list(a.omega_hits)}]"
        lines.append(line)
    lines.append(f"all non-relevant: {report.all_non_relevant}")
    if report.boundary_certificate:
        lines.append(f"certificate: {report.boundary_certificate}")
    if report.orbits is not None:
        sizes = sorted(len(o) for o in report.orbits)
        lines.append(f"orbits under declared symmetry: {len(report.orbits)} (sizes {sizes})")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _render_polynomial(terms, names) -> str:
    if not terms:
        return "0"
    pieces = []
    for coeff, expo in terms:
        mono = monomial(expo, names)
        if coeff < 0:
            sign, mag = " - ", -coeff
        else:
            sign, mag = " + ", coeff
        body = mono if mag == 1 and any(expo) else f"{mag}*{mono}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == " - " else "") + first_body
    for sign, body in pieces[1:]:
        text += sign + body
    return text


@functools.cache
def build_arg_parser() -> _Parser:
    """The ``crnsiphon`` parser, built at the first call and then shared.

    Sharing is safe because parsing keeps no state in the parser: every
    ``parse_args`` fills a fresh namespace, and a usage error raises
    ``UsageError``.
    """
    parser = _Parser(prog="crnsiphon", description="exact siphon analysis of reaction networks")
    parser.add_argument("--version", action="version", version=f"crnsiphon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="network file (.crn)")
        return p

    add("parse", "echo the canonical network")

    p = add("siphons", "minimal siphons")
    p.add_argument("--count-only", action="store_true", help="print the total only")
    p.add_argument("--histogram", action="store_true", help="print total plus per-size counts")
    p.add_argument("--budget-ms")
    p.add_argument("--max-results")

    add("facets", "facets of the cone of conserved quantities")

    c0_help = "comma-separated rationals in species order"
    p = add("vertices", "vertex supports of the invariant polytope")
    p.add_argument("--c0", required=True, help=c0_help)

    p = add("face-dim", "dimension of a face of the invariant polytope")
    p.add_argument("--c0", required=True, help=c0_help)
    p.add_argument("--siphon", help="comma-separated species names (may be empty)")

    p = add("analyze", "full analysis report")
    p.add_argument("--c0", help=c0_help)
    p.add_argument("--omega", help="file of sample initial conditions")
    p.add_argument("--symmetry", help="file of species permutations, one per line")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--budget-ms")
    p.add_argument("--timing", action="store_true", help="include wall-clock timings")

    p = add("ode", "mass-action right-hand side")
    p.add_argument("--kappa", required=True, help="file of 'reaction_index rate' lines")

    p = add("invariance-check", "certificate that a siphon's face is forward invariant")
    p.add_argument("--siphon", required=True, help="comma-separated species names")

    p = add("export-cas", "Macaulay2 script for cross-validation")
    p.add_argument("--flavor", choices=FLAVORS, default="directed-binomial")
    p.add_argument("--no-boundary", action="store_true", help="skip the saturation block")
    return parser


def _cmd_siphons(net: ReactionNetwork, args, out) -> int:
    budget = _budget_from(args)
    if args.count_only or args.histogram:
        tally = minimal_siphon_counts(net, budget)
        print(f"total {tally.total}", file=out)
        if args.histogram:
            for size in sorted(tally.by_size):
                print(f"{size} {tally.by_size[size]}", file=out)
        return EXIT_OK
    for z in minimal_siphons(net, budget):
        print(" ".join(z.names(net)), file=out)
    return EXIT_OK


def run(argv: Sequence[str], out=None, err=None) -> int:
    """Parse arguments, execute one subcommand, and return the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        net = parse_network(_read_text(args.input))

        if args.command == "parse":
            out.write(canonical_text(net))
            return EXIT_OK

        if args.command == "siphons":
            return _cmd_siphons(net, args, out)

        if args.command == "facets":
            for f in conservation_cone(net).facets:
                members = " ".join(net.species.names[i] for i in f.members)
                comp = " ".join(net.species.names[i] for i in f.complement(net.num_species))
                normal = " ".join(map(str, f.normal))
                print(f"facet: {members} ; complement: {comp} ; normal: {normal}", file=out)
            return EXIT_OK

        if args.command == "vertices":
            c0 = _parse_c0(net, args.c0)
            polytope = InvariantPolytope.from_network(net, c0)
            for support in polytope.vertex_supports:
                print(" ".join(net.species.names[i] for i in support), file=out)
            return EXIT_OK

        if args.command == "face-dim":
            c0 = _parse_c0(net, args.c0)
            members = _parse_siphon(net, args.siphon)
            polytope = InvariantPolytope.from_network(net, c0)
            dim = face_dimension(polytope, members)
            print("empty" if dim is None else str(dim), file=out)
            return EXIT_OK

        if args.command == "analyze":
            c0 = None if args.c0 is None else _parse_c0(net, args.c0)
            samples = None if args.omega is None else _read_samples(args.omega, net)
            symmetry = None if args.symmetry is None else _read_permutations(args.symmetry, net)
            report = analyze(
                net,
                c0=c0,
                omega_samples=samples,
                budget=_budget_from(args),
                symmetry=symmetry,
                collect_timing=args.timing,
            )
            if args.format == "json":
                out.write(json.dumps(_report_to_dict(report), indent=2) + "\n")
            else:
                out.write(_report_to_text(report))
            return EXIT_OK

        if args.command == "ode":
            kappa = _read_kappa(args.kappa, net)
            field = build_rhs(MassActionSystem(net, kappa))
            for i, name in enumerate(net.species.names):
                poly = _render_polynomial(field.components[i], net.species.names)
                print(f"d{name}/dt = {poly}", file=out)
            return EXIT_OK

        if args.command == "invariance-check":
            members = _parse_siphon(net, args.siphon)
            names = net.species.names
            for ri, species in check_face_invariance(net, members):
                print(f"{net.reaction_text(ri)}: consumes {names[species]}", file=out)
            z = " ".join(names[i] for i in members)
            print(
                f"pass: every reaction producing a member of {{{z}}} consumes one, so the "
                "face x_Z = 0 is forward invariant for every choice of positive rates",
                file=out,
            )
            return EXIT_OK

        if args.command == "export-cas":
            out.write(
                export_cas_script(net, flavor=args.flavor, include_boundary=not args.no_boundary)
            )
            return EXIT_OK

        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except ValueError as exc:
        if isinstance(exc, ParseError):
            print(f"parse error: {exc}", file=err)
            return EXIT_PARSE
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=err)
        return EXIT_BUDGET
    except (RouteDisagreementError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=err)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
