"""Command-line interface: outputs, exit codes, file formats."""

from __future__ import annotations

import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DEEP_CHAIN,
    DEEP_DRAINED_CYCLE,
    ENZYME_INHIBITOR,
    FUTILE_CYCLE,
    RECEPTOR_LIGAND,
    TWO_SPECIES,
)
from crnsiphon import __version__
from crnsiphon.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    build_arg_parser,
    run,
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def receptor_file(tmp_path):
    path = tmp_path / "receptor_ligand.crn"
    path.write_text(RECEPTOR_LIGAND)
    return str(path)


@pytest.fixture()
def futile_file(tmp_path):
    path = tmp_path / "futile.crn"
    path.write_text(FUTILE_CYCLE)
    return str(path)


@pytest.fixture()
def unpointed_file(tmp_path):
    # A + B is conserved and C is on no law: a cone that is not pointed
    # but has one facet
    path = tmp_path / "unpointed.crn"
    path.write_text("A <-> B\nC -> 0\n")
    return str(path)


class TestSiphonsCommand:
    def test_listing(self, receptor_file):
        code, out, _ = invoke(["siphons", receptor_file])
        assert code == EXIT_OK
        assert out.splitlines() == ["A B E", "A C E", "C D E"]

    def test_count_only_histogram(self, receptor_file):
        code, out, _ = invoke(["siphons", "--count-only", "--histogram", receptor_file])
        assert code == EXIT_OK
        assert out.splitlines() == ["total 3", "3 3"]

    @pytest.mark.parametrize(
        "text", [DEEP_CHAIN, DEEP_DRAINED_CYCLE], ids=["chain", "drained-cycle"]
    )
    def test_deeper_than_the_recursion_limit(self, tmp_path, text):
        path = tmp_path / "deep.crn"
        path.write_text(text)
        code, out, err = invoke(["siphons", str(path)])
        assert code == EXIT_OK and err == ""
        assert out.splitlines() == [" ".join(f"A{i}" for i in range(1201))]

    def test_brute_force_option_is_gone(self, receptor_file):
        # the subset oracle is a library function the tests compare against
        code, out, err = invoke(["siphons", "--brute-force", receptor_file])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--brute-force" in err

    def test_budget_exit_code(self, tmp_path):
        # a 2,000-species chain: the count runs for well over 20 ms, and
        # past several of the clock's checks, on any host
        lines = [f"c{i} + c{i+1} <-> c{i+1} + c{i+2}" for i in range(1, 1999)]
        path = tmp_path / "chain.crn"
        path.write_text("\n".join(lines))
        code, _, err = invoke(["siphons", "--count-only", "--budget-ms", "20", str(path)])
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_method_option_is_gone(self, receptor_file):
        code, out, err = invoke(["siphons", "--method", "search", receptor_file])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--method" in err

    def test_count_result_limit_exit_code(self, tmp_path):
        lines = [f"c{i} + c{i+1} <-> c{i+1} + c{i+2}" for i in range(1, 34)]
        path = tmp_path / "chain.crn"
        path.write_text("\n".join(lines))
        code, out, err = invoke(["siphons", "--count-only", "--max-results", "5", str(path)])
        assert code == EXIT_BUDGET
        assert out == ""
        assert "budget" in err


class TestErrors:
    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.crn"
        path.write_text("A + -> B\n")
        code, _, err = invoke(["parse", str(path)])
        assert code == EXIT_PARSE
        assert "line 1" in err

    @pytest.mark.parametrize("text", ["\u00c5 -> B\n", "A\u00b2 -> B\n"])
    def test_non_ascii_input_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "bad.crn"
        path.write_text(text, encoding="utf-8")
        code, out, err = invoke(["parse", str(path)])
        assert code == EXIT_PARSE
        assert out == ""
        assert "line 1, column" in err

    def test_missing_file(self):
        code, _, _ = invoke(["parse", "/nonexistent/net.crn"])
        assert code == EXIT_USAGE

    def test_directory_as_network(self, tmp_path):
        code, out, err = invoke(["parse", str(tmp_path)])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("option", ["--omega", "--symmetry"])
    def test_directory_as_data_file(self, receptor_file, tmp_path, option):
        code, out, err = invoke(["analyze", option, str(tmp_path), receptor_file])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_directory_as_kappa(self, receptor_file, tmp_path):
        code, _, err = invoke(["ode", "--kappa", str(tmp_path), receptor_file])
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    def test_over_long_coefficient_is_a_parse_error(self, tmp_path):
        path = tmp_path / "big.crn"
        path.write_text("A -> B\n1" + "0" * 4300 + "A -> B\n")
        code, out, err = invoke(["parse", str(path)])
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "parse error: stoichiometric coefficient too large (line 2, column 1)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["siphons", "--budget-ms", "-5"],
            ["siphons", "--count-only", "--max-results", "-1"],
            ["analyze", "--budget-ms", "-1"],
        ],
        ids=["budget-ms", "max-results", "analyze-budget-ms"],
    )
    def test_negative_budget_is_a_usage_error(self, receptor_file, argv):
        code, out, err = invoke(argv + [receptor_file])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "must not be negative" in err

    def test_zero_budget_is_allowed(self, receptor_file):
        code, out, _ = invoke(["siphons", "--budget-ms", "0", "--max-results", "3", receptor_file])
        assert code == EXIT_OK
        assert out.splitlines() == ["A B E", "A C E", "C D E"]

    def test_bad_usage(self, receptor_file):
        code, _, err = invoke(["vertices", receptor_file])
        assert code == EXIT_USAGE
        assert "--c0" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--c0", ""], "--c0: entry 1 of 1 is empty"),
            (["vertices", "--c0", ""], "--c0: entry 1 of 1 is empty"),
            (["face-dim", "--c0", ""], "--c0: entry 1 of 1 is empty"),
            (["analyze", "--omega", ""], "No such file or directory: ''"),
            (["analyze", "--symmetry", ""], "No such file or directory: ''"),
        ],
        ids=["analyze-c0", "vertices-c0", "face-dim-c0", "omega", "symmetry"],
    )
    def test_empty_value_is_a_usage_error(self, receptor_file, argv, message):
        # an empty value is given, not absent: it must not fall back to no start or file
        code, out, err = invoke(argv + [receptor_file])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and message in err

    def test_decimal_rejected(self, receptor_file):
        code, _, err = invoke(["vertices", "--c0", "0.1,1,1,1,1", receptor_file])
        assert code == EXIT_USAGE
        assert "decimal" in err

    @pytest.mark.parametrize("value", ["1e3", "1e-1", "1E5000", "1_000", "1" * 4301])
    def test_exponent_and_over_long_starts_rejected(self, receptor_file, value):
        code, out, err = invoke(["vertices", "--c0", f"{value},1,1,1,1", receptor_file])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: bad rational {value!r}")

    def test_wrong_c0_length(self, receptor_file):
        code, _, err = invoke(["vertices", "--c0", "1,1", receptor_file])
        assert code == EXIT_USAGE
        assert "5 values" in err

    def test_unknown_subcommand(self, receptor_file):
        # `relevance` is gone: `analyze --format text` is the one view of the verdicts
        for command in ("frobnicate", "relevance"):
            code, out, err = invoke([command, receptor_file])
            assert (code, out) == (EXIT_USAGE, "")
            assert f"invalid choice: {command!r}" in err


_GRAMMAR = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _grammar_value(text: str) -> Fraction | None:
    """The value of ``[+-]digits[/digits]`` between blanks (at most 4300
    digits above and below the bar), as ``Fraction`` reads it; None for
    any other text and for a zero denominator."""
    m = _GRAMMAR.fullmatch(text.strip())
    if m is None or len(m[2]) > 4300 or len(m[3] or "") > 4300 or m[3] and not int(m[3]):
        return None
    return Fraction(text.strip())


# no ',', '=', '#' or line break: each reader splits its input on one of them
_SPELLINGS = st.one_of(
    st.from_regex(r"[ \t]*[+-]?[0-9]{1,8}(/[0-9]{1,4})?[ \t]*", fullmatch=True),
    st.text(alphabet="0123456789+-/ eE._\t\u0661\u00a0", max_size=10),
    st.builds(lambda d: d * 4301, st.sampled_from("19")),
)


@pytest.fixture(scope="module")
def readers_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readers")
    (path / "net.crn").write_text(TWO_SPECIES)
    return path


class TestRationalReaders:
    """``--c0``, ``--omega`` and ``--kappa`` read exactly
    ``[+-]digits[/digits]``: every other text, exponents and over-long
    digit strings included, is a usage error, and no text raises."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_SPELLINGS)
    @example("1e3")
    @example("1e-1")
    @example(" 1E9999999 ")
    @example("-0/0")
    @example(" +12/8\t")
    def test_each_reader_accepts_the_grammar_only(self, readers_dir, text):
        net = str(readers_dir / "net.crn")
        value = _grammar_value(text)
        accepted = value is not None and value > 0
        omega, kappa = readers_dir / "samples.txt", readers_dir / "rates.txt"
        omega.write_text(f"{text},1\n", encoding="utf-8")
        kappa.write_text(f"0 {text}\n1 1\n", encoding="utf-8")
        for argv, read in (
            (["analyze", f"--c0={text},1", net], lambda report: report["c0"][0]),
            (["analyze", "--omega", str(omega), net], lambda r: r["omega_samples"][0][0]),
            (["ode", "--kappa", str(kappa), net], None),
        ):
            code, out, err = invoke(argv)
            assert code == (EXIT_OK if accepted else EXIT_USAGE), (argv, err)
            if not accepted:
                assert err.startswith("error: ") and out == ""
            elif read is not None:
                assert read(json.loads(out)) == str(value)
            else:
                kappa.write_text(f"0 {value}\n1 1\n")
                assert invoke(argv) == (EXIT_OK, out, "")

    @pytest.mark.parametrize(
        "text, as_int", [("٠", 0), ("1_0", 10), ("+1", 1), ("1e1", 10)]
    )
    def test_integers_are_ascii_digits_only(self, tmp_path, receptor_file, text, as_int):
        # the rates are complete if the first index reads as int(text) (float for 1e1),
        # so only the integer grammar can reject the file
        net = tmp_path / "chain.crn"
        net.write_text("".join(f"X{i} -> X{i + 1}\n" for i in range(11)))
        kappa = tmp_path / "rates.txt"
        rest = "".join(f"{i} 1\n" for i in range(11) if i != as_int)
        kappa.write_text(f"{text} 2\n{rest}", encoding="utf-8")
        code, out, err = invoke(["ode", "--kappa", str(kappa), str(net)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {kappa}:1: bad reaction index {text!r}\n"
        for option in ("--budget-ms", "--max-results"):
            code, out, err = invoke(["siphons", option, text, receptor_file])
            assert (code, out, err) == (EXIT_USAGE, "", f"error: bad {option} value {text!r}\n")


class TestEmptyEntries:
    """An empty comma-separated entry of ``--c0`` or of an ``--omega`` line
    is a usage error naming its position; it is never dropped."""

    @pytest.mark.parametrize(
        "text, position, count",
        [(",1", 1, 2), ("1,", 2, 2), ("1,,1", 2, 3), ("1, \t,1", 2, 3), (",,", 1, 3)],
    )
    def test_c0_and_omega(self, readers_dir, text, position, count):
        net = str(readers_dir / "net.crn")
        omega = readers_dir / "empty_entry.txt"
        omega.write_text(f"1,1\n{text}\n", encoding="utf-8")
        for argv, where in (
            (["analyze", f"--c0={text}", net], "--c0"),
            (["analyze", "--omega", str(omega), net], f"{omega}:2"),
        ):
            code, out, err = invoke(argv)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"error: {where}: entry {position} of {count} is empty\n"

    def test_gap_in_a_receptor_ligand_start(self, receptor_file):
        code, out, err = invoke(["vertices", "--c0", "1,,1,1,1,1", receptor_file])
        assert (code, out, err) == (EXIT_USAGE, "", "error: --c0: entry 2 of 6 is empty\n")


# pieces of a --symmetry file: receptor-ligand's names and others, whole
# permutation lines, separators, comments, line breaks and bytes that are
# not UTF-8
_SYMMETRY_PIECES = st.sampled_from(
    [b"A", b"B", b"C", b"D", b"E", b"Q", b"a", b",", b" ", b"\t", b"\n", b"\r\n", b"#",
     b"A B C D E\n", b"A,B,C,D,E\n", b"E D C B A\n", b"B A C D E\n", b"# A B C D E\n",
     b"\xff", b"\xc3", b"\xc3\xa9", b"\x00"]
)


class TestSymmetryReader:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(_SYMMETRY_PIECES, max_size=12).map(b"".join))
    @example(b"A B C D E\n")
    @example(b"A,B,C,D,E\nA B C D E # identity twice\n\n")
    @example(b"A B C D E A\n")
    @example(b"A B C D \xff\n")
    def test_exit_code_and_message(self, readers_dir, data):
        net = readers_dir / "receptor_ligand.crn"
        net.write_text(RECEPTOR_LIGAND)
        sym = readers_dir / "sym.txt"
        sym.write_bytes(data)
        code, out, err = invoke(["analyze", "--symmetry", str(sym), str(net)])
        if code == EXIT_OK:
            assert err == "" and json.loads(out)["orbits"]
        else:
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: ") and "Traceback" not in err


class TestSharedParser:
    """``run`` builds its parser once per process; no call may see another's
    arguments or errors."""

    def test_calls_share_no_state(self, receptor_file):
        assert build_arg_parser() is build_arg_parser()
        code, first, _ = invoke(["vertices", "--c0", "1/10,1/10,1,1/10,1/10", receptor_file])
        assert code == EXIT_OK and first
        code, out, err = invoke(["vertices", receptor_file])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: the following arguments are required: --c0\n"
        code, again, _ = invoke(["vertices", "--c0", "1/10,1/10,1,1/10,1/10", receptor_file])
        assert code == EXIT_OK and again == first
        code, _, err = invoke(["vertices", "--c0", "1,1,1,1,1", "--frobnicate", receptor_file])
        assert code == EXIT_USAGE and "--frobnicate" in err
        code, _, err = invoke(["vertices", "--c0", "1/10,1/10,1,1/10,1/10", receptor_file])
        assert code == EXIT_OK and err == ""

    def test_docs_list_the_parser_subcommands(self):
        import crnsiphon.cli as cli_module

        (choices,) = [
            set(a.choices) for a in build_arg_parser()._actions if a.dest == "command"
        ]
        doc = cli_module.__doc__.split("Subcommands::", 1)[1].split("Exit codes:", 1)[0]
        in_doc = {line.split()[0] for line in doc.splitlines() if line.strip()}
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        in_readme = {m[1] for m in re.finditer(r"^crnsiphon ([a-z-]+)", block, re.M)}
        assert in_doc == choices
        assert in_readme == choices

    def test_version_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"crnsiphon {__version__}\n"


class TestGeometryCommands:
    def test_facets(self, receptor_file):
        code, out, _ = invoke(["facets", receptor_file])
        assert code == EXIT_OK
        assert "complement: C D E" in out
        assert "complement: A B D E" in out

    def test_facets_of_a_cone_that_is_not_pointed(self, unpointed_file, tmp_path):
        code, out, err = invoke(["facets", unpointed_file])
        assert (code, out, err) == (EXIT_OK, "facet: C ; complement: A B ; normal: 1\n", "")
        line = tmp_path / "line.crn"
        line.write_text("A + B <-> 0\n")
        assert invoke(["facets", str(line)]) == (EXIT_OK, "", "")

    def test_vertices_chamber_one(self, receptor_file):
        code, out, _ = invoke(
            ["vertices", "--c0", "1/10,1/10,1,1/10,1/10", receptor_file]
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["A C", "B C", "C D", "C E"]

    def test_face_dim(self, receptor_file):
        code, out, _ = invoke(
            ["face-dim", "--c0", "1,1,1,1,1", "--siphon", "A,C,E", receptor_file]
        )
        assert code == EXIT_OK and out.strip() == "0"
        code, out, _ = invoke(
            ["face-dim", "--c0", "1,1,1,1,1", "--siphon", "A,B,E", receptor_file]
        )
        assert code == EXIT_OK and out.strip() == "empty"
        code, out, _ = invoke(["face-dim", "--c0", "1,1,1,1,1", receptor_file])
        assert code == EXIT_OK and out.strip() == "3"


class TestAnalyzeCommand:
    def test_json_schema_and_round_trip(self, receptor_file):
        code, out, _ = invoke(["analyze", "--c0", "1,1,1,1,1", receptor_file])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["network"]["species"] == ["A", "B", "C", "D", "E"]
        assert doc["connectivity"]["is_strongly_connected"] is True
        assert doc["cone"]["pointed"] is True
        siphons = {tuple(e["members"]): e for e in doc["minimal_siphons"]}
        assert siphons[("A", "C", "E")]["relevant"] is True
        assert siphons[("A", "C", "E")]["c0_relevant"] is True
        assert siphons[("A", "C", "E")]["face_dim"] == 0
        assert siphons[("A", "B", "E")]["c0_relevant"] is False
        assert siphons[("C", "D", "E")]["witnesses"]["conservation_law"] == [
            "0", "0", "1", "1", "1",
        ]
        assert doc["verdicts"]["all_non_relevant"] is False
        # round trip through the serializer is lossless
        assert json.loads(json.dumps(doc)) == doc

    def test_certificate_for_futile_cycle(self, futile_file):
        code, out, _ = invoke(["analyze", futile_file])
        doc = json.loads(out)
        assert doc["verdicts"]["all_non_relevant"] is True
        assert "no invariant polytope has a boundary steady state" in doc["verdicts"][
            "boundary_steady_state_certificate"
        ]
        for entry in doc["minimal_siphons"]:
            assert entry["relevant"] is False
            assert "conservation_law" in entry["witnesses"]

    def test_cross_check_on_a_cone_that_is_not_pointed(self, unpointed_file):
        code, out, _ = invoke(["analyze", unpointed_file])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["cone"]["pointed"] is False
        assert [f["complement"] for f in doc["cone"]["facets"]] == [["A", "B"]]
        siphons = {tuple(e["members"]): e for e in doc["minimal_siphons"]}
        assert set(siphons) == {("C",), ("A", "B")}
        assert all(e["cross_checked"] is True for e in siphons.values())
        assert siphons[("C",)]["relevant"] is True
        assert "facet_complement" not in siphons[("C",)]["witnesses"]
        assert siphons[("A", "B")]["relevant"] is False
        assert siphons[("A", "B")]["witnesses"]["facet_complement"] == ["A", "B"]
        assert not any("facet route" in note for note in doc["notes"])

    def test_text_format(self, futile_file):
        code, out, _ = invoke(["analyze", "--format", "text", futile_file])
        assert code == EXIT_OK
        assert "all non-relevant: True" in out

    def test_text_global_verdicts(self, receptor_file):
        code, out, _ = invoke(["analyze", "--format", "text", receptor_file])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "  {A B E}: relevant" in lines
        assert "  {C D E}: not relevant [conservation law: 0 0 1 1 1]" in lines
        assert "all non-relevant: False" in lines

    def test_text_omega_file(self, receptor_file, tmp_path):
        omega = tmp_path / "omega.txt"
        omega.write_text("# one start per line\n1/10,1/10,1,1/10,1/10\n1,1,1,1,1\n")
        code, out, _ = invoke(["analyze", "--format", "text", "--omega", str(omega), receptor_file])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "  {A B E}: relevant [sample hits: [0]]" in lines
        assert "  {A C E}: relevant [sample hits: [1]]" in lines
        assert "  {C D E}: not relevant [conservation law: 0 0 1 1 1] [sample hits: []]" in lines

    def test_enumerated_siphons_are_not_rechecked(self, tmp_path, monkeypatch):
        import crnsiphon.relevance as relevance_module
        from conftest import grid_minors_network
        from crnsiphon.network import canonical_text

        calls = []
        bases = []
        real_is_siphon = relevance_module.is_siphon
        real_basis = relevance_module.conservation_basis

        def counted(net, members):
            calls.append(tuple(members))
            return real_is_siphon(net, members)

        def counted_basis(net):
            bases.append(net)
            return real_basis(net)

        monkeypatch.setattr(relevance_module, "is_siphon", counted)
        monkeypatch.setattr(relevance_module, "conservation_basis", counted_basis)
        path = tmp_path / "grid5.crn"
        path.write_text(canonical_text(grid_minors_network(5)))
        ones = ",".join(["1"] * 25)
        omega = tmp_path / "omega.txt"
        omega.write_text(",".join(["1"] * 12 + ["1/2"] + ["1"] * 12) + "\n" + ones + "\n")
        code, out, _ = invoke(
            ["analyze", "--format", "text", "--c0", ones, "--omega", str(omega), str(path)]
        )
        assert code == EXIT_OK
        assert "minimal siphons: 28" in out.splitlines()
        assert len([l for l in out.splitlines() if l.startswith("  {")]) == 28
        assert out.count("[c0-relevant: True") == 18
        assert calls == [] and len(bases) == 1

    def test_non_positive_sample_is_rejected(self, tmp_path):
        # no siphon needs the second sample, which is checked all the same
        net = tmp_path / "ab.crn"
        net.write_text("A -> B\n")
        omega = tmp_path / "omega.txt"
        omega.write_text("1,1\n0,1\n")
        code, out, err = invoke(["analyze", "--format", "text", "--omega", str(omega), str(net)])
        assert code == EXIT_USAGE
        assert out == ""
        assert "strictly positive" in err

    def test_non_positive_start_is_rejected_without_siphons(self, tmp_path):
        net = tmp_path / "inflow.crn"
        net.write_text("0 <-> A\n")
        assert invoke(["siphons", str(net)])[:2] == (EXIT_OK, "")
        code, out, err = invoke(["analyze", "--format", "text", "--c0", "0", str(net)])
        assert code == EXIT_USAGE
        assert out == ""
        assert "strictly positive" in err

    def test_deterministic_output(self, receptor_file):
        runs = {invoke(["analyze", "--c0", "1,1,1,1,1", receptor_file])[1] for _ in range(3)}
        assert len(runs) == 1

    def test_timing_flag(self, receptor_file):
        _, without, _ = invoke(["analyze", receptor_file])
        assert json.loads(without)["timing"] is None
        _, with_timing, _ = invoke(["analyze", "--timing", receptor_file])
        assert json.loads(with_timing)["timing"] is not None

    def test_facet_route_disagreement_exit_code(self, receptor_file, monkeypatch):
        # the real cross-check inside analyze raises, not a stand-in for analyze
        import crnsiphon.relevance as relevance_module

        real = relevance_module.is_relevant_by_facets

        def inverted(*args, **kwargs):
            verdict = real(*args, **kwargs)
            return relevance_module.RelevanceVerdict(verdict.siphon, not verdict.relevant)

        monkeypatch.setattr(relevance_module, "is_relevant_by_facets", inverted)
        code, out, err = invoke(["analyze", "--format", "text", receptor_file])
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "internal invariant violation" in err

    def test_route_disagreement_exit_code(self, receptor_file, monkeypatch):
        import crnsiphon.cli as cli_module
        from crnsiphon.relevance import RouteDisagreementError

        def explode(*args, **kwargs):
            raise RouteDisagreementError("forced for the exit-code contract")

        monkeypatch.setattr(cli_module, "analyze", explode)
        code, _, err = invoke(["analyze", receptor_file])
        assert code == EXIT_INTERNAL
        assert "internal invariant violation" in err

    @pytest.mark.parametrize(
        "argv", [["analyze"], ["face-dim", "--c0", "1,1,1,1,1", "--siphon", "A,C,E"]]
    )
    def test_failed_exact_recheck_exit_code(self, receptor_file, monkeypatch, argv):
        # a kernel's own re-verification gate fails: exit 4, not a traceback
        import crnsiphon.lp as lp_module

        monkeypatch.setattr(lp_module, "verify_witness", lambda system, witness: False)
        code, out, err = invoke([*argv, receptor_file])
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("internal invariant violation: internal error: witness failed")

    def test_symmetry_orbits(self, tmp_path):
        from conftest import grid_minors_network
        from crnsiphon.network import canonical_text

        net = grid_minors_network(3)
        path = tmp_path / "grid3.crn"
        path.write_text(canonical_text(net))
        perm = tmp_path / "sym.txt"
        # transpose and 180-degree rotation of the grid
        names = [f"c{j}{i}" for i in range(1, 4) for j in range(1, 4)]
        rot = [f"c{4-i}{4-j}" for i in range(1, 4) for j in range(1, 4)]
        perm.write_text(" ".join(names) + "\n" + " ".join(rot) + "\n")
        code, out, _ = invoke(["analyze", "--symmetry", str(perm), str(path)])
        doc = json.loads(out)
        assert code == EXIT_OK
        assert sorted(len(o) for o in doc["orbits"]) == [2, 4]

    def test_symmetry_must_be_an_automorphism(self, tmp_path):
        net = tmp_path / "chain.crn"
        net.write_text("X -> Y\nY -> Z\n")
        perm = tmp_path / "sym.txt"
        perm.write_text("X Y Z\nZ Y X\n")
        code, out, err = invoke(["analyze", "--symmetry", str(perm), str(net)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: symmetry permutation 2 is not an automorphism of the network: "
            "it maps the reaction X -> Y to Z -> Y, which is not a reaction\n"
        )


class TestOdeAndInvariance:
    def test_ode_requires_all_rates(self, receptor_file, tmp_path):
        kappa = tmp_path / "kappa.txt"
        kappa.write_text("0 1\n")
        code, _, err = invoke(["ode", "--kappa", str(kappa), receptor_file])
        assert code == EXIT_USAGE
        assert "missing rates" in err

    def test_ode_output(self, tmp_path):
        net = tmp_path / "xy.crn"
        net.write_text("X -> Y\n")
        kappa = tmp_path / "kappa.txt"
        kappa.write_text("0 2\n")
        code, out, _ = invoke(["ode", "--kappa", str(kappa), str(net)])
        assert code == EXIT_OK
        assert out.splitlines() == ["dX/dt = -2*X", "dY/dt = 2*X"]

    def test_invariance_check_pass(self, futile_file):
        code, out, err = invoke(["invariance-check", "--siphon", "E,X", futile_file])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            "S0 + E -> X: consumes E",
            "X -> S0 + E: consumes X",
            "X -> E + P: consumes X",
            "pass: every reaction producing a member of {E X} consumes one, so the face "
            "x_Z = 0 is forward invariant for every choice of positive rates",
        ]

    def test_invariance_check_non_siphon(self, receptor_file):
        code, out, err = invoke(["invariance-check", "--siphon", "E", receptor_file])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: not a siphon, so its face need not be invariant: "
            "reaction A + D -> E produces a member but consumes none\n"
        )

    # the certificate draws nothing, so --trials and --seed are usage errors
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_invariance_check_needs_a_trial(self, receptor_file, trials):
        code, out, err = invoke(
            ["invariance-check", "--siphon", "A,B,E", "--trials", trials, receptor_file]
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: unrecognized arguments")
        assert "--trials" in err

    def test_invariance_check_has_no_sampling_options(self, receptor_file):
        code, out, err = invoke(
            ["invariance-check", "--siphon", "A,B,E", "--seed", "5", receptor_file]
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: unrecognized arguments")


class TestExportCas:
    def test_monomial_flavor(self, receptor_file):
        code, out, _ = invoke(["export-cas", "--flavor", "monomial", receptor_file])
        assert code == EXIT_OK
        assert "monomialIdeal(A^2*C, A*D, E, B*C);" in out
        assert "decompose" in out

    def test_undirected_flavor_matches_reference_generators(self, tmp_path):
        path = tmp_path / "enzyme.crn"
        path.write_text(ENZYME_INHIBITOR)
        code, out, _ = invoke(
            ["export-cas", "--flavor", "undirected-binomial", "--no-boundary", str(path)]
        )
        assert code == EXIT_OK
        assert "ideal(S*E-Q, Q-E*P, Q*I-R);" in out

    def test_directed_default(self, receptor_file):
        code, out, _ = invoke(["export-cas", receptor_file])
        assert code == EXIT_OK
        assert "A^2*C*(A*D-A^2*C)" in out
        assert "ideal product gens theRing" in out

    def test_monomial_needs_strong_connectivity(self, futile_file):
        code, _, err = invoke(["export-cas", "--flavor", "monomial", futile_file])
        assert code == EXIT_USAGE
        assert "strongly connected" in err

    def test_boundary_saturation_block(self, receptor_file):
        _, out, _ = invoke(["export-cas", receptor_file])
        assert "boundaryIdeal = intersect(ideal(C, D, E), ideal(A, B, D, E));" in out
        assert "saturate" in out

    def test_boundary_block_on_a_cone_that_is_not_pointed(self, unpointed_file):
        code, out, _ = invoke(["export-cas", unpointed_file])
        assert code == EXIT_OK
        assert "boundaryIdeal = ideal(A, B);" in out
        target = "reactionIdeal + ideal product gens theRing"
        assert f"decompose saturate({target}, boundaryIdeal)" in out


class TestParseCommand:
    def test_canonical_is_fixed_point(self, receptor_file, tmp_path):
        _, first, _ = invoke(["parse", receptor_file])
        again = tmp_path / "canon.crn"
        again.write_text(first)
        _, second, _ = invoke(["parse", str(again)])
        assert first == second
