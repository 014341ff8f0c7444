import csv
import hashlib
import io
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vermalab import adelman, cli, enright, exactla, fixtures, hecke, heisenberg, sl2mod
from vermalab.cli import main
from vermalab.exactla import Laurent


def run_to_file(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "-o", str(out)])
    return code, out


class TestExitCodes:
    def test_decompose_passes(self, tmp_path):
        code, _ = run_to_file(tmp_path, "d.json", "decompose", "--n", "4", "--depth", "12")
        assert code == 0

    def test_negative_n_usage_error(self, capsys):
        assert main(["decompose", "--n", "-1"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_s(self, capsys):
        # a required option is enforced by argparse, like an unknown command
        with pytest.raises(SystemExit) as exc:
            main(["hwv", "--n", "4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--s" in captured.err

    @pytest.mark.parametrize("failure", ["non_divisible_bridge"])
    def test_arithmetic_error_is_a_verification_failure(self, monkeypatch, capsys,
                                                        failure):
        # X_2 + 1: 1 - q no longer divides 1 - X_2, so xbar raises an
        # InexactDivisionError, which is an AssertionError and an ArithmeticError
        real = hecke.evaluation_X
        monkeypatch.setattr(hecke, "evaluation_X",
                            lambda n: [x + 1 if k == 1 else x
                                       for k, x in enumerate(real(n))])
        assert main(["verify-hecke", "--n-max", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failure: InexactDivisionError: 1 - q does not divide ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("error", [RecursionError, NotImplementedError, ZeroDivisionError,
                                       RuntimeError, ValueError])
    def test_fault_classes_are_internal_errors(self, monkeypatch, capsys, error):
        # no check raises these: only an AssertionError is a verification
        # failure, and only a UsageError a usage error
        def broken(n):
            raise error("simulated")

        monkeypatch.setattr(hecke, "verify_degenerate", broken)
        assert main(["verify-hecke", "--n-max", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {error.__name__}: simulated\n"

    @pytest.mark.parametrize("error", [sl2mod.ConstructionError, sl2mod.TruncationError])
    def test_failed_Tr_build_is_a_verification_failure(self, monkeypatch, capsys, error):
        def broken(gen, depth):
            raise error(f"T_{gen.s} cannot be built")

        monkeypatch.setattr(sl2mod, "build_Tr", broken)
        assert main(["verify-pseudoadjoint", "--n", "2"]) == 1
        err = capsys.readouterr().err
        assert err == f"verification failure: {error.__name__}: T_0 cannot be built\n"

    @pytest.mark.parametrize("target,error,argv", [
        ((enright, "casimir_weight_matrix"), ValueError, "decompose --n 4"),
        # a case's failed check is its error record, an internal fault is not
        ((enright, "alpha_recursion_check"), ValueError, "report --n-max 1"),
        ((enright, "apply_rows"), RuntimeError, "hwv --n 4 --s 0"),
        ((sl2mod, "build_Tr"), RuntimeError, "verify-pseudoadjoint --n 2"),
    ], ids=["decompose-ValueError", "report-ValueError", "hwv-RuntimeError",
            "pseudoadjoint-RuntimeError"])
    def test_an_internal_fault_is_an_internal_error(self, target, error, argv, monkeypatch,
                                                    capsys):
        def broken(*args):
            raise error("internal: simulated")

        monkeypatch.setattr(*target, broken)
        assert main(argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {error.__name__}: internal: simulated\n"

    @pytest.mark.parametrize("content", [None, '{"kernel": "extended-middle"}'],
                             ids=["missing", "malformed"])
    def test_bad_adelman_fixture_is_a_fixture_error(self, tmp_path, monkeypatch,
                                                    capsys, content):
        path = tmp_path / "adelman_interpretation.json"
        if content is not None:
            path.write_text(content)
        monkeypatch.setattr(fixtures, "ADELMAN_FIXTURE", path)
        adelman.frozen_interpretation.cache_clear()
        assert main(["verify-adelman", "--trials", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fixture or file error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [None, "not json", '{"maxN": 6}', '{"table": [{"n": 1}]}'],
                             ids=["missing", "not-json", "no-table", "row-without-m"])
    def test_bad_tilde_fixture_is_a_fixture_error(self, tmp_path, monkeypatch, capsys,
                                                  content):
        path = tmp_path / "tilde_residuals.json"
        if content is not None:
            path.write_text(content)
        monkeypatch.setattr(fixtures, "TILDE_FIXTURE", path)
        assert main(["verify-heisenberg", "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fixture or file error:") and str(path) in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("error,line", [
        (KeyError("slice"), "KeyError: 'slice'"),
        (TypeError("two\nlines"), "TypeError: two lines"),
    ], ids=["KeyError", "multi-line"])
    def test_unmapped_exception_is_an_internal_error(self, monkeypatch, capsys, error, line):
        def broken(*args):
            raise error

        monkeypatch.setattr(enright, "casimir_blocks", broken)
        assert main(["decompose", "--n", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {line}\n"
        assert "Traceback" not in captured.err

    def test_a_report_the_writer_refuses_is_an_internal_error(self, tmp_path, monkeypatch,
                                                              capsys):
        # a float has no exact rendering: nothing is written, to stdout or to a file
        verb = cli.VERBS["hwv"]
        monkeypatch.setitem(cli.VERBS, "hwv", verb._replace(
            handler=lambda args: ({"n": args.n, "ratio": 0.5}, True)))
        out = tmp_path / "h.json"
        for to_file in ([], ["-o", str(out)]):
            assert main(["hwv", "--n", "4", "--s", "0", *to_file]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("internal error: TypeError: "
                                    "a float has no place in an exact report\n")
        assert not out.exists()

    def test_unwritable_output_is_a_file_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "d.json"
        assert main(["decompose", "--n", "2", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fixture or file error:")
        assert "Traceback" not in err


# the options each verb reads besides --output/-o and --format, and the
# smallest valid command line of the verb
VERB_OPTIONS = {
    "decompose": ({"--n", "--depth"}, ["--n", "2"]),
    # so the "hwv --depth" case runs hwv --n 4 --s 0 --depth 12
    "hwv": ({"--n", "--s"}, ["--n", "4", "--s", "0"]),
    "projgen": ({"--n", "--s"}, ["--n", "2", "--s", "0"]),
    "verify-hecke": ({"--q-mode", "--n-max"}, []),
    "verify-heisenberg": ({"--trials", "--seed", "--refreeze"}, []),
    "verify-adelman": ({"--trials", "--seed", "--refreeze"}, []),
    "verify-pseudoadjoint": ({"--n", "--depth", "--margin"}, ["--n", "2"]),
    "report": ({"--n-max", "--depth"}, ["--n-max", "1"]),
}
# a valid setting of each option, so that only its verb can reject it,
# and one that differs from its default and from the command lines above;
# --lambda is an option of no verb: decompose audits Ln (x) Verma(0) alone
OPTION_ARGV = {
    "--n": ["--n", "5"], "--lambda": ["--lambda", "3"], "--s": ["--s", "2"],
    "--depth": ["--depth", "12"], "--margin": ["--margin", "0"],
    "--q-mode": ["--q-mode", "unit"], "--trials": ["--trials", "7"],
    "--seed": ["--seed", "7"], "--n-max": ["--n-max", "3"], "--refreeze": ["--refreeze"],
}


def _verb_option_cases(own):
    return [pytest.param(verb, opt, id=f"{verb} {opt}")
            for verb, (options, _) in VERB_OPTIONS.items()
            for opt in sorted(options if own else set(OPTION_ARGV) - options)]


class TestVerbTable:
    @pytest.mark.parametrize("verb,option", _verb_option_cases(own=False))
    def test_foreign_option_is_a_usage_error(self, verb, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, *VERB_OPTIONS[verb][1], *OPTION_ARGV[option]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err
        # the usage shown is the verb's own, listing the options it does read
        assert captured.err.startswith(f"usage: vermalab {verb} ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("verb,option", _verb_option_cases(own=True))
    def test_own_option_is_parsed(self, verb, option):
        parse = cli.build_parser().parse_args
        plain = vars(parse([verb, *VERB_OPTIONS[verb][1]]))
        changed = vars(parse([verb, *VERB_OPTIONS[verb][1], *OPTION_ARGV[option]]))
        assert [k for k in plain if plain[k] != changed[k]] == \
            [option.lstrip("-").replace("-", "_")]

    @pytest.mark.parametrize("argv", [
        "--help", "-h", "", "bogus", "--n 3 report", "report -h", "report --bogus",
        "report --n 3", "decompose", "decompose --n 2 extra", "decompose --n 2 --format xml",
        "verify-adelman --trials x", "verify-hecke --q-mode bogus", "projgen --n 2",
        "hwv --n 4 --s 0"])
    def test_one_verb_parser_answers_as_the_full_one(self, argv, monkeypatch, capsys):
        # main builds the parser of the verb that argv names alone, and every
        # verb's parser otherwise: with every verb's parser built each time, the
        # exit code, stdout and stderr are the same
        def outcome():
            try:
                code = main(argv.split())
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or real(only))
        ours = outcome()
        monkeypatch.setattr(cli, "build_parser", lambda only=None: real())
        assert outcome() == ours
        first = argv.split()[:1]
        assert built == [first[0] if first and first[0] in cli.VERBS else None]

    def test_fixed_defaults(self):
        parse = cli.build_parser().parse_args
        assert parse(["verify-heisenberg"]).trials == 1000
        assert parse(["verify-adelman"]).trials == 100
        assert parse(["verify-adelman"]).seed == cli.DEFAULT_SEED
        assert parse(["verify-hecke"]).n_max == 5
        assert parse(["verify-pseudoadjoint", "--n", "2"]).margin == 8


class TestDecompose:
    def test_index_sets_and_audit(self, tmp_path):
        code, out = run_to_file(tmp_path, "d.json", "decompose", "--n", "4", "--depth", "12")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["indexSets"]["Iprime"] == [0, 2]
        assert doc["indexSets"]["Itripleprime"] == [4]
        assert all(row["lhs"] == row["rhs"] for row in doc["audit"])
        assert all(blk["ok"] for blk in doc["casimirBlocks"])

    def test_lambda_is_no_option(self, capsys):
        # decompose audits Ln (x) Verma(0) alone; its JSON keeps "lambda": 0
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--n", "3", "--lambda", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --lambda 2" in captured.err


class TestHwv:
    def test_n4_s0(self, tmp_path):
        code, out = run_to_file(tmp_path, "h.json", "hwv", "--n", "4", "--s", "0")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["case"]["p"] == ["16", "8"]
        assert doc["case"]["coefficients"] == [[0, 2, "2"], [1, 1, "1"]]

    def test_a_weight_with_no_highest_weight_vector_is_a_usage_error(self, capsys):
        assert main(["hwv", "--n", "4", "--s", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: no highest weight vector expected at weight 3 for n=4\n"

    def test_casimir_failure_carries_witness(self, tmp_path, monkeypatch):
        # C - s(s+2) - 1 sends the Verma vector u to -u, and the witness is
        # that image as [i, k, value] rows
        real = enright.casimir_weight_matrix
        monkeypatch.setattr(enright, "casimir_weight_matrix",
                            lambda n, mu, c=0: real(n, mu, c + 1))
        code, out = run_to_file(tmp_path, "h.json", "hwv", "--n", "5", "--s", "-1")
        case = json.loads(out.read_text())["case"]
        assert code == 1
        assert case["kind"] == "verma" and case["checks"]["casimirNilpotent"] is False
        assert case["coefficients"] == [[0, 3, "5"], [1, 2, "6"], [2, 1, "3"]]
        assert case["checks"]["casimirResidual"] == [[0, 3, "-5"], [1, 2, "-6"], [2, 1, "-3"]]


class TestProjgen:
    def test_an_index_that_is_not_projective_is_a_usage_error(self, capsys):
        assert main(["projgen", "--n", "4", "--s", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: s=1 is not a projective index for n=4\n"

    def test_n2_s0_fixture(self, tmp_path):
        code, out = run_to_file(tmp_path, "p.json", "projgen", "--n", "2", "--s", "0")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["q"] == ["2", "1"]
        assert doc["m"] == 0
        assert doc["final"] == ["2", "1"]
        cols = {(i, j): v for i, j, v in doc["omegaMinusC"]}
        assert [cols.get((i, 0)) for i in range(3)] == ["-8", "-8", None]
        assert [cols.get((i, 1)) for i in range(3)] == ["8", "8", None]
        assert [cols.get((i, 2)) for i in range(3)] == [None, "4", "8"]


class TestVerifiers:
    def test_hecke(self, tmp_path):
        code, out = run_to_file(tmp_path, "hk.json", "verify-hecke", "--n-max", "3")
        doc = json.loads(out.read_text())
        assert code == 0 and doc["allPassed"]

    def test_hecke_caps_are_stated_and_kept(self, tmp_path, monkeypatch, capsys):
        # the generic-q relations stop at the caps that --help states, and
        # a larger --n-max extends only the degenerate relations
        with pytest.raises(SystemExit):
            main(["verify-hecke", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert (f"the nondegenerate relations stop at n = {cli.NONDEGENERATE_N_MAX} and the "
                f"degeneration check at n = {cli.DEGENERATION_N_MAX}") in text
        seen = Counter()
        for name in ("verify_degenerate", "verify_nondegenerate", "degeneration_check"):
            monkeypatch.setattr(hecke, name, lambda n, name=name: seen.update([(name, n)]) or [])
        run_to_file(tmp_path, "hk.json", "verify-hecke", "--n-max", "6")
        assert sorted(seen) == sorted(
            [("verify_degenerate", n) for n in range(2, 7)]
            + [("verify_nondegenerate", n) for n in range(2, cli.NONDEGENERATE_N_MAX + 1)]
            + [("degeneration_check", n) for n in range(2, cli.DEGENERATION_N_MAX + 1)])

    def test_hecke_failure_carries_witness(self, tmp_path, monkeypatch):
        real = hecke.evaluation_X
        monkeypatch.setattr(hecke, "evaluation_X",
                            lambda n: [x.scale(Laurent.q()) if k == 1 else x
                                       for k, x in enumerate(real(n))])
        code, out = run_to_file(tmp_path, "hk.json", "verify-hecke", "--n-max", "2",
                                "--q-mode", "generic")
        doc = json.loads(out.read_text())
        assert code == 1 and doc["allPassed"] is False
        witnesses = {(r["relation"], r["model"]): r["witnessOrPass"]
                     for r in doc["relations"]}
        assert witnesses["quadratic", "nondegenerate"] is True
        crossing = witnesses["crossing", "nondegenerate"]
        assert isinstance(crossing, str) and crossing != "0" and "q" in crossing

    def test_heisenberg(self, tmp_path):
        code, out = run_to_file(tmp_path, "hz.json", "verify-heisenberg", "--trials", "100")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["tildeMatchesFixture"]
        assert doc["fuzz"] == {"trials": 100, "failures": 0}

    def test_heisenberg_fuzz_failure_names_the_words(self, tmp_path, monkeypatch, request):
        real = heisenberg._reduce

        def broken(word, strategy):
            if strategy == "rightmost" and len(word) >= 3:
                return heisenberg.HElem()
            return real(word, strategy)

        # the memo calls the patched engine too: leave no broken form in it
        request.addfinalizer(heisenberg._nf_cached.cache_clear)
        monkeypatch.setattr(heisenberg, "_reduce", broken)
        code, out = run_to_file(tmp_path, "hz.json", "verify-heisenberg", "--trials", "20")
        fuzz = json.loads(out.read_text())["fuzz"]
        assert code == 1 and fuzz["failures"] > 0
        assert fuzz["negativeCoefficientWords"] == []
        assert len(fuzz["mismatches"]) == fuzz["failures"]
        for word in fuzz["mismatches"]:
            letters = word.split(".")
            assert len(letters) >= 3
            assert all(x[0] in "ab" and x[1:].isdigit() for x in letters)

    def test_heisenberg_fixture_mismatch_names_the_rows(self, tmp_path, monkeypatch):
        # the frozen table with (1, 2) changed and (3, 1) gone: both rows
        # are named with the computed and the frozen normal form
        table = [dict(row) for row in fixtures.load_json(fixtures.TILDE_FIXTURE)["table"]
                 if (row["n"], row["m"]) != (3, 1)]
        [changed] = [row for row in table if (row["n"], row["m"]) == (1, 2)]
        computed, changed["residualNormalForm"] = changed["residualNormalForm"], "2*b1"
        path = tmp_path / "tilde_residuals.json"
        fixtures.save_json(path, {"maxN": 6, "maxM": 6, "table": table})
        monkeypatch.setattr(fixtures, "TILDE_FIXTURE", path)
        code, out = run_to_file(tmp_path, "hz.json", "verify-heisenberg", "--trials", "10")
        doc = json.loads(out.read_text())
        [missing] = [row["residualNormalForm"] for row in doc["tildeResiduals"]
                     if (row["n"], row["m"]) == (3, 1)]
        assert code == 1 and doc["tildeMatchesFixture"] is False
        assert doc["tildeMismatches"] == [
            {"n": 1, "m": 2, "computed": computed, "frozen": "2*b1"},
            {"n": 3, "m": 1, "computed": missing, "frozen": None}]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_adelman_fixture_mismatch_prints_the_fixture_pair(self, tmp_path, monkeypatch,
                                                              request, fmt):
        # a fixture naming the literal kernel reading: the chosen pair is
        # printed beside the fixture's own, and the CSV cell carries both
        path = tmp_path / "adelman_interpretation.json"
        fixtures.save_json(path, {"kernel": "literal-middle", "cokernel": "extended-middle"})
        monkeypatch.setattr(fixtures, "ADELMAN_FIXTURE", path)
        adelman.frozen_interpretation.cache_clear()
        request.addfinalizer(adelman.frozen_interpretation.cache_clear)
        code, out = run_to_file(tmp_path, f"ad.{fmt}", "verify-adelman", "--trials", "4",
                                "--format", fmt)
        if fmt == "json":
            chosen = json.loads(out.read_text())["interpretationChosen"]
        else:
            rows = list(csv.reader(io.StringIO(out.read_text())))
            [chosen] = [json.loads(value) for key, value in rows if key == "interpretationChosen"]
        assert code == 1 and chosen["matchesFixture"] is False
        assert (chosen["kernel"], chosen["cokernel"]) == ("extended-middle", "extended-middle")
        assert chosen["fixture"] == {"kernel": "literal-middle", "cokernel": "extended-middle"}

    def test_adelman(self, tmp_path):
        code, out = run_to_file(tmp_path, "ad.json", "verify-adelman", "--trials", "20")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["interpretationChosen"]["matchesFixture"]
        assert doc["universalPropertyTrials"]["failed"] == 0
        assert "failures" not in doc["universalPropertyTrials"]

    def test_adelman_failure_names_its_trial(self, tmp_path, monkeypatch):
        # the literal kernel reading, injected into the trials only
        monkeypatch.setattr(adelman, "kernel", adelman._kernel_middle_a)
        code, out = run_to_file(tmp_path, "ad.json", "verify-adelman", "--trials", "20")
        trials = json.loads(out.read_text())["universalPropertyTrials"]
        assert code == 1
        assert trials["failed"] == 1 and trials["passed"] == 39
        assert trials["failures"] == [{
            "trial": 15, "side": "kernel", "stage": "test morphism does not factor",
            "dims": {"X": [0, 4, 2], "Y": [4, 2, 0], "W": [1, 2, 0]}}]

    def test_congruence_failure_names_its_trial(self, tmp_path, monkeypatch):
        # drop the (f, g) witness of the first congruence trial only, so
        # symmetry and transitivity fail there
        real = adelman._homotopies
        dropped = []

        def dropping(pairs):
            witnesses = real(pairs)
            if len(pairs) == 5 and pairs[0][0] is pairs[0][1] and not dropped:
                dropped.append(witnesses[1])
                witnesses[1] = None
            return witnesses

        monkeypatch.setattr(adelman, "_homotopies", dropping)
        code, out = run_to_file(tmp_path, "ad.json", "verify-adelman", "--trials", "20")
        doc = json.loads(out.read_text())
        assert code == 1 and len(dropped) == 1 and dropped[0] is not None
        assert doc["universalPropertyTrials"]["failed"] == 0
        dims = {"X": [0, 3, 4], "Y": [4, 2, 4]}
        assert doc["congruenceChecks"] == {
            "trials": 10, "reflexive": 10, "symmetric": 9, "transitive": 9, "composition": 10,
            "failures": [{"trial": 1, "relation": "symmetric", "dims": dims},
                         {"trial": 1, "relation": "transitive", "dims": dims}]}

    def test_pseudoadjoint(self, tmp_path):
        code, out = run_to_file(tmp_path, "pa.json", "verify-pseudoadjoint", "--n", "3",
                                "--margin", "8")
        doc = json.loads(out.read_text())
        assert code == 0
        assert all(m["identityZero"] and m["casimirMatch"] for m in doc["modules"])
        assert not any("failures" in m for m in doc["modules"])

    def test_pseudoadjoint_failure_carries_witness_labels(self, tmp_path, monkeypatch):
        real = enright.pseudoadjoint_check
        monkeypatch.setattr(enright, "pseudoadjoint_check",
                            lambda mod, c, margin=8: real(mod, c + 1, margin))
        code, out = run_to_file(tmp_path, "pa.json", "verify-pseudoadjoint", "--n", "1",
                                "--margin", "8", "--depth", "9")
        doc = json.loads(out.read_text())
        assert code == 1
        verma0, ln = doc["modules"][:2]
        assert (verma0["module"], ln["module"]) == ("Verma", "Ln")
        assert verma0["identityZero"] is False and verma0["casimirMatch"] is True
        assert verma0["failures"] == [["identity", "w0"], ["identity", "w1"]]
        assert ln["failures"] == [["identity", "v0"], ["identity", "v1"]]

    def test_pseudoadjoint_csv_failure_carries_witness_labels(self, tmp_path, monkeypatch):
        real = enright.pseudoadjoint_check
        monkeypatch.setattr(enright, "pseudoadjoint_check",
                            lambda mod, c, margin=8: real(mod, c + 1, margin))
        code, out = run_to_file(tmp_path, "pa.csv", "verify-pseudoadjoint", "--n", "1",
                                "--margin", "8", "--depth", "9", "--format", "csv")
        lines = out.read_bytes().decode().split("\r\n")
        assert code == 1
        assert lines[0] == "module,index,c,labelsChecked,identityZero,casimirMatch"
        assert lines[1].endswith(",False,True,identity:w0,identity:w1")
        assert lines[2].startswith("Ln,") and lines[2].endswith(",identity:v0,identity:v1")

    def test_pseudoadjoint_depth_below_margin_is_a_usage_error(self, capsys):
        # the slice is too shallow for the margin, so the depth is what is too small
        assert main(["verify-pseudoadjoint", "--n", "2", "--margin", "9", "--depth", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: depth 3 too small for margin 9\n"

    @pytest.mark.parametrize("n_max", ["1", "0", "-3"])
    def test_hecke_rejects_n_max_below_two(self, n_max, capsys):
        # below 2 there is no relation to check, so a pass would be vacuous
        assert main(["verify-hecke", "--n-max", n_max]) == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err and captured.out == ""


class TestReport:
    def test_small_sweep(self, tmp_path):
        code, out = run_to_file(tmp_path, "r.json", "report", "--n-max", "2")
        doc = json.loads(out.read_text())
        assert code == 0
        assert len(doc["records"]) == 3
        assert doc["summary"]["failures"] == 0

    def test_byte_determinism(self, tmp_path):
        _, a = run_to_file(tmp_path, "a.json", "report", "--n-max", "3")
        _, b = run_to_file(tmp_path, "b.json", "report", "--n-max", "3")
        assert a.read_bytes() == b.read_bytes()


class TestFormats:
    def test_csv_audit(self, tmp_path):
        code, out = run_to_file(tmp_path, "d.csv", "decompose", "--n", "2", "--depth", "8",
                                "--format", "csv")
        assert code == 0
        lines = out.read_bytes().decode().split("\r\n")
        assert lines[0] == "n,mu,lhs,rhs"
        assert lines[1] == "2,2,1,1"

    def test_csv_hecke(self, tmp_path):
        code, out = run_to_file(tmp_path, "h.csv", "verify-hecke", "--n-max", "2",
                                "--format", "csv")
        assert code == 0
        assert out.read_bytes().decode().startswith(
            "model,relation,n,indices,witnessOrPass\r\n")

    # what a report may hold; the texts reach past ASCII and into quotes,
    # backslashes and control characters, the integers past 64 bits
    _SCALARS = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.integers(min_value=2**64), st.integers(max_value=-2**64),
        st.text(), st.text(alphabet='"\\/\x00\x08\x1f\x7f\xe9\u2028\U0001d11e ab'))
    _DOCS = st.recursive(_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)), max_leaves=16)

    @settings(max_examples=100, deadline=None)
    @given(_DOCS)
    @example({"": [], "b": {}, "a": [(), {"x": [None, True, False, -1, 2**64]}]})
    def test_json_matches_json_dumps(self, doc):
        assert cli.render_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        0.5, {"x": [1, 2.0]}, {1: "a"}, {"x": {"y": [{None: 0}]}}, {1, 2}, {"x": [frozenset()]},
        Fraction(1, 2),
    ], ids=["float", "nested-float", "int-key", "nested-None-key", "set", "nested-frozenset",
            "Fraction"])
    def test_json_refuses_what_no_exact_report_holds(self, doc):
        with pytest.raises(TypeError):
            cli.render_json(doc)

    def test_scalar_rendering(self):
        # every exact scalar is an int; anything else, even an integral
        # Fraction, is a fault of the program
        assert cli._slice_rows({0: 5, 1: -2**70}, 3) == [[0, 3, "5"], [1, 2, str(-2**70)]]
        for x in (Fraction(-3, 4), Fraction(8, 2), 0.5):
            with pytest.raises(TypeError):
                cli._slice_rows({0: x}, 3)

    @pytest.mark.parametrize("cell", [0.5, Fraction(1, 2), b"1", [0.5], {"x": 0.5}],
                             ids=["float", "Fraction", "bytes", "list", "dict"])
    def test_csv_refuses_what_no_exact_report_holds(self, cell):
        # a dict cell is its one-line JSON, held to the same types
        assert cli.render_csv([["a", 1, True, None, {"y": [1], "x": "b"}]]) == (
            'a,1,True,,"{""x"": ""b"", ""y"": [1]}"\r\n')
        with pytest.raises(TypeError):
            cli.render_csv([["a", 1], ["b", cell]])

    @pytest.mark.parametrize("value", [0.5, Fraction(1, 2)], ids=["float", "Fraction"])
    def test_adelman_csv_cells_are_held_as_json(self, value):
        # each cell is compact JSON, which json.dumps would write for a float
        doc = {"interpretationChosen": {}, "congruenceChecks": {"trials": 1},
               "universalPropertyTrials": {"passed": [value]}}
        with pytest.raises(TypeError):
            cli.render_csv(cli._adelman_rows(doc))

    def test_a_csv_the_writer_refuses_is_an_internal_error(self, monkeypatch, capsys):
        # the JSON form of the same report exits 3 in TestExitCodes
        verb = cli.VERBS["hwv"]
        monkeypatch.setitem(cli.VERBS, "hwv", verb._replace(
            handler=lambda args: ({"case": {"coefficients": [[0, 2, 0.5]]}}, True)))
        assert main(["hwv", "--n", "4", "--s", "0", "--format", "csv"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal error: TypeError: "
                                "a float has no place in an exact report\n")


@pytest.mark.parametrize("argv", [
    ["report", "--n-max", "6"], ["decompose", "--n", "4"], ["verify-pseudoadjoint", "--n", "4"],
], ids=["report", "decompose", "verify-pseudoadjoint"])
def test_sl2_eliminations_see_no_fraction(monkeypatch, capsys, argv):
    """Integral values stay int all the way into the elimination engine
    and into the slice solve, which takes every generator's Casimir slice
    map and its kernel line."""
    seen = []
    real = exactla._integer_rows
    real_slice = enright._slice_solve

    def recording(m, rhss=()):
        seen.extend(m.entries.values())
        for rhs in rhss:
            seen.extend(rhs.values())
        return real(m, rhss)

    def recording_slice(rows, b, n, mu):
        seen.extend(x for row in rows for x in row.values())
        seen.extend(b.values())
        return real_slice(rows, b, n, mu)

    monkeypatch.setattr(exactla, "_integer_rows", recording)
    monkeypatch.setattr(enright, "_slice_solve", recording_slice)
    assert main(argv) == 0
    capsys.readouterr()
    assert seen and not [x for x in seen if isinstance(x, Fraction)]


def test_sl2_verbs_form_no_product_and_run_no_elimination(monkeypatch, capsys):
    """Every weight slice map of the sl2 verbs is certified or solved by
    substitution into its rows: no matrix product is formed and the
    elimination engine is never called."""
    calls = Counter()
    real_matmul = exactla.SparseMat.__matmul__

    def counted_matmul(self, other):
        calls["__matmul__"] += 1
        return real_matmul(self, other)

    monkeypatch.setattr(exactla.SparseMat, "__matmul__", counted_matmul)
    modules = [m for name, m in sys.modules.items() if name.startswith("vermalab")]
    for name in ("nullspace", "generalized_kernel"):
        real = getattr(exactla, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    for argv in (["report", "--n-max", "8"], ["decompose", "--n", "6"],
                 ["verify-pseudoadjoint", "--n", "4"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert calls == Counter()


# sha256 of the checked-in fixtures, and of the stdout of the refreezes that
# rewrite them byte for byte at the default seed
FIXTURE_DIGESTS = {
    "ADELMAN_FIXTURE": "f37cc681b86c5c0cc062f5670833d9f4bac5f6dc8394c21fb1e58a8c7bee7a31",
    "TILDE_FIXTURE": "6b1ea52a03208c6a4f7cc9c67e981b8267745d7a44b2042319e5f3fffdffadc7",
}
REFREEZE_DIGESTS = {
    "verify-adelman --trials 4 --refreeze":
        "bef135b3aebbf269ee1d7029dbf8fadfeeacac951850ba37922aea480cfdc91f",
    "verify-heisenberg --trials 10 --refreeze":
        "f9c1b59da9d86f681c249d4046c732305af2bdc46fc76170da9c939eba21af84",
}


class TestRefreeze:
    def test_tilde_refreeze_roundtrip(self, tmp_path, monkeypatch):
        target = tmp_path / "tilde.json"
        monkeypatch.setattr(fixtures, "TILDE_FIXTURE", target)
        code, _ = run_to_file(tmp_path, "hz.json", "verify-heisenberg", "--trials", "10", "--refreeze")
        assert code == 0
        frozen = json.loads(target.read_text())
        assert frozen["maxN"] == 6
        assert any(row["n"] == 2 and row["m"] == 3
                   and row["residualNormalForm"] == "1*b1"
                   for row in frozen["table"])

    def test_adelman_refreeze_writes_a_missing_fixture(self, tmp_path, monkeypatch):
        target = tmp_path / "adelman_interpretation.json"
        monkeypatch.setattr(fixtures, "ADELMAN_FIXTURE", target)
        adelman.frozen_interpretation.cache_clear()
        code, out = run_to_file(tmp_path, "ad.json", "verify-adelman", "--trials", "4", "--refreeze")
        assert code == 0
        assert json.loads(out.read_text())["interpretationChosen"]["matchesFixture"]
        frozen = json.loads(target.read_text())
        assert (frozen["kernel"], frozen["cokernel"]) == ("extended-middle", "extended-middle")

    def test_refreeze_resolves_three_seeds_and_rewrites_the_fixtures(self, tmp_path,
                                                                     monkeypatch, capsys):
        seeds = []
        real = adelman.resolve_interpretation

        def counted(seed):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(adelman, "resolve_interpretation", counted)
        checked_in = {name: getattr(fixtures, name) for name in FIXTURE_DIGESTS}
        for name, path in checked_in.items():
            monkeypatch.setattr(fixtures, name, tmp_path / path.name)
        for argv, digest in REFREEZE_DIGESTS.items():
            assert main(argv.split()) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        # seed, seed + 1 and seed + 2, and the report of the first is the one printed
        assert seeds == [1729, 1730, 1731]
        for name, digest in FIXTURE_DIGESTS.items():
            written = getattr(fixtures, name).read_bytes()
            assert written == checked_in[name].read_bytes()
            assert hashlib.sha256(written).hexdigest() == digest
        seeds.clear()
        assert main(["verify-adelman", "--trials", "4"]) == 0
        capsys.readouterr()
        assert seeds == [1729]


# sha256 of the stdout of each sl2 verb, pinned so that a refactor of the
# sl2 layer that changes a single report byte fails here
SL2_DIGESTS = {
    "report --n-max 8": "8594f50ec9914bb6e82ed39285ca8ef71b419c46083190d242766814833278bf",
    "decompose --n 6": "f54a2c5e549161d9fc0bc9c7d3530c14e62a9b88ad323ba04d7785386dca1331",
    "decompose --n 16": "8319965d3c115ae855cff930462a042e8ab650a52b5e588fa6038fda329bf4ad",
    "decompose --n 24": "086a7a2df301d22aaed77dce07328f4c58bd8b82559c303caa8cff6e468ec7ef",
    "decompose --n 12 --depth 3":
        "cdae9a87d5c94d7c20a75397cf9af33202b9c62995096ddf5d5c607fefad0c55",
    "decompose --n 6 --format csv":
        "7d3e2d7cc91840adbc2c5f19ef0f2350b3184feafa91010116f357692bfd1bfc",
    "decompose --n 40": "855fc928f90edf77a4c91cad91b048a37e647c9bfa67ad8786cd7a146441c77f",
    "report --n-max 24": "77ea18d69791c14b12c00c04efd96fa044bb834c37292b90357c5eb7da2ca08a",
    "report --n-max 40": "e5da3cc3d175d13fc13e7e7f2f01677cf25319e01a911f70a806051d84a2d360",
    "projgen --n 8 --s 2": "ab551124a82502c803f14f0117df4bcdd51de51820728c87962b2d2d924100cf",
    "projgen --n 22 --s 6": "7e951a9519e370e2088f6e367b023ffb6678f95543777d8bf2603652fbfee855",
    # the smallest projgen, and the deepest n = 40 and n = 41 slices
    "projgen --n 2 --s 0": "b3f32724c970a31360e52facfe537abf44d6b8b0342eb6dbdb5120381d2013bb",
    "projgen --n 40 --s 0": "5267dd64614503b4afda734565a10faa747fe840891b996a81e38463fa8a5a06",
    "projgen --n 41 --s 39": "890875115828e99277c7f5bcc847d2f503266f446d483bd71ee7a29446f02f1d",
    "hwv --n 8 --s 2": "b13ff48e4a05d62de58d8e03ff44c99e59718206b52b2fb90b2c61a9b7c29d78",
    "hwv --n 40 --s 40": "826b7bb83f2933bab796622d7c8acb36628a13b46a186ae0337ea3294770edd4",
    "hwv --n 41 --s -1": "a73015aab2e24d31e7f30e4f9b42694e56f2acfdd10ab7acb784dbcac648da78",
    # the CSV rows of hwv (a projective and a Verma case), projgen and report
    "hwv --n 8 --s 2 --format csv":
        "4e7d6387766489eb9c6efc38d5706f6414a296c6838640150db1e87522b50818",
    "hwv --n 41 --s -1 --format csv":
        "4733cb425d6e9c57de8181ee8c86a889ff0851cb141aa449ddae124233983a21",
    "projgen --n 8 --s 2 --format csv":
        "c1268d17b1c7651a19829ba4fd5d80d8afca67882c4501e3900f16d8c30f4bd4",
    "report --n-max 8 --format csv":
        "f78c3f882f120128daa428ffadc3b399fc21ed7257d0a171903190a17f5e73cb",
    "verify-pseudoadjoint --n 4":
        "062e4e4b5091a034fb8ce6472ec1eb9c59569e6aa4eaf8557ba5562beec4a9a4",
    "verify-pseudoadjoint --n 12":
        "e028d342d6b47dc0d5a1001fa41e5f9695b5c911ec19d01357ac14c757c7bda0",
    "verify-pseudoadjoint --n 16 --margin 2":
        "6a4863128051e49ae6fe13334d07698119e040bc0504dde3c40205a696b725aa",
    # odd r and a slice twelve steps deeper than the identity's words
    "verify-pseudoadjoint --n 7 --margin 12":
        "ee38241422a3e31362bf032898f3fc45e03ed53bb91c5c76cae28781e4b6a095",
    # the T_r rows in CSV, and Verma slices at a small margin and depth
    "verify-pseudoadjoint --n 9 --format csv":
        "214b9a2de806c08c571ba109a8e2d752e4fdf47e210e35e8fa72d88235018e0a",
    "verify-pseudoadjoint --n 6 --margin 3 --depth 9":
        "02c28133f0f615410d9179cc52f537a689df3dfecd83f48da7f1ee8c82d14177",
}


# the same for the verbs of the other three suites, at the default seed
ALGEBRA_DIGESTS = {
    "verify-hecke": "30841748cb1586b4728e0050946ee85ab5f2076e8217c3932111ae36deb1ab38",
    "verify-heisenberg --trials 100":
        "f5fd4b20d40d8842316d2f3ba102583eac8e6bda26d42018882fbf1c603dfa2e",
    "verify-heisenberg --trials 1000":
        "3ced0e5d6ca3edca966e47e7cd135f41065cd451982515929aa232abc5425890",
    # enough distinct words to overflow the 4096-entry whole-word memo
    "verify-heisenberg --trials 2500 --seed 7":
        "decca28ef754b81bdd0377542e0287c1690f7298678cb25c7a63992ac614d503",
    "verify-adelman --trials 20":
        "e9baee3fd4836597a4328d4323ba9a9e63706bd6462ccc8a9843b153609abadb",
    "verify-heisenberg --trials 100 --format csv":
        "4068759477d54eddf858150a03b63ba926b85e3fe1b1c51fc3967c97b22eb660",
    "verify-adelman --trials 20 --format csv":
        "46f43cbab6f94dc7c040969df73a4c66b756e71deac965bae4eb341dfa2130b6",
    # a second seed at full size, where a seed-dependent slip in the
    # certified trials would show
    "verify-adelman --trials 200 --seed 4242":
        "701c23e43153f2de289393573b44b430835169fb55d7e6193730d34953bae274",
    "verify-adelman --trials 200 --seed 4242 --format csv":
        "1d1cd79dabc8c097750bcec5512a0b9172e1e9d8e215351f285332105e8986f3",
}


@pytest.mark.parametrize("argv", list(SL2_DIGESTS))
def test_sl2_outputs_are_pinned(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SL2_DIGESTS[argv]


@pytest.mark.parametrize("argv", list(ALGEBRA_DIGESTS))
def test_algebra_outputs_are_pinned(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ALGEBRA_DIGESTS[argv]


def test_report_solves_each_highest_weight_vector_once(tmp_path, monkeypatch):
    # a projective case reads the record its generator was built from
    calls = Counter()
    real = enright.highest_weight_vector

    def counted(n, s):
        calls[n, s] += 1
        return real(n, s)

    monkeypatch.setattr(enright, "highest_weight_vector", counted)
    code, out = run_to_file(tmp_path, "r.json", "report", "--n-max", "6")
    assert code == 0
    cases = {(rec["n"], case["s"])
             for rec in json.loads(out.read_text())["records"] for case in rec["cases"]}
    assert len(cases) > 7 and set(calls) == cases and set(calls.values()) == {1}
