import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from vermalab import adelman, cli, enright, exactla, fixtures, hecke, heisenberg, sl2mod
from vermalab.cli import main, scalar_str
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

    @pytest.mark.parametrize("failure", ["non_divisible_bridge", "zero_division"])
    def test_arithmetic_error_is_a_verification_failure(self, monkeypatch, capsys,
                                                        failure):
        if failure == "non_divisible_bridge":
            # X_2 + 1: 1 - q no longer divides 1 - X_2, so xbar raises
            real = hecke.evaluation_X
            monkeypatch.setattr(hecke, "evaluation_X",
                                lambda n: [x + 1 if k == 1 else x
                                           for k, x in enumerate(real(n))])
        else:
            def divide_by_zero(n):
                return 1 // 0
            monkeypatch.setattr(hecke, "verify_degenerate", divide_by_zero)
        assert main(["verify-hecke", "--n-max", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failure:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("error", [sl2mod.ConstructionError, sl2mod.TruncationError,
                                       RuntimeError])
    def test_failed_Tr_build_is_a_verification_failure(self, monkeypatch, capsys, error):
        def broken(r, n, depth):
            raise error(f"T_{r} cannot be built")

        monkeypatch.setattr(sl2mod, "build_Tr", broken)
        assert main(["verify-pseudoadjoint", "--n", "2"]) == 1
        err = capsys.readouterr().err
        assert err == f"verification failure: {error.__name__}: T_0 cannot be built\n"

    @pytest.mark.parametrize("content", [None, '{"kernel": "extended-middle"}'],
                             ids=["missing", "malformed"])
    def test_bad_adelman_fixture_is_a_fixture_error(self, tmp_path, monkeypatch,
                                                    capsys, content):
        path = tmp_path / "adelman_interpretation.json"
        if content is not None:
            path.write_text(content)
        monkeypatch.setattr(fixtures, "ADELMAN_FIXTURE", path)
        monkeypatch.setattr(adelman, "_frozen_choice", None)
        assert main(["verify-adelman", "--trials", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fixture or file error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_output_is_a_file_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "d.json"
        assert main(["decompose", "--n", "2", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fixture or file error:")
        assert "Traceback" not in err


# the options each verb reads besides --output/-o and --format, and the
# smallest valid command line of the verb
VERB_OPTIONS = {
    "decompose": ({"--n", "--lambda", "--depth"}, ["--n", "2"]),
    # so the "hwv --lambda" case runs hwv --n 4 --s 0 --lambda 3
    "hwv": ({"--n", "--s"}, ["--n", "4", "--s", "0"]),
    "projgen": ({"--n", "--s"}, ["--n", "2", "--s", "0"]),
    "verify-hecke": ({"--q-mode", "--n-max"}, []),
    "verify-heisenberg": ({"--trials", "--seed", "--refreeze"}, []),
    "verify-adelman": ({"--trials", "--seed", "--refreeze"}, []),
    "verify-pseudoadjoint": ({"--n", "--depth", "--margin"}, ["--n", "2"]),
    "report": ({"--n-max", "--depth"}, ["--n-max", "1"]),
}
# a valid setting of each option, so that only its verb can reject it,
# and one that differs from its default and from the command lines above
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
            [option.lstrip("-").replace("-", "_").replace("lambda", "lam")]

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

    def test_nonzero_lambda_index_sets_only(self, tmp_path):
        code, out = run_to_file(tmp_path, "d.json", "decompose", "--n", "3", "--lambda", "2")
        doc = json.loads(out.read_text())
        assert code == 0
        assert "audit" not in doc


class TestHwv:
    def test_n4_s0(self, tmp_path):
        code, out = run_to_file(tmp_path, "h.json", "hwv", "--n", "4", "--s", "0")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["case"]["p"] == ["16", "8"]
        assert doc["case"]["coefficients"] == [[0, 2, "2"], [1, 1, "1"]]


class TestProjgen:
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

    def test_heisenberg_fuzz_failure_names_the_words(self, tmp_path, monkeypatch):
        real = heisenberg._nf_cached

        def broken(word, strategy):
            if strategy == "rightmost" and len(word) >= 3:
                return heisenberg.HElem()
            return real(word, strategy)

        monkeypatch.setattr(heisenberg, "_nf_cached", broken)
        code, out = run_to_file(tmp_path, "hz.json", "verify-heisenberg", "--trials", "20")
        fuzz = json.loads(out.read_text())["fuzz"]
        assert code == 1 and fuzz["failures"] > 0
        assert fuzz["negativeCoefficientWords"] == []
        assert len(fuzz["mismatches"]) == fuzz["failures"]
        for word in fuzz["mismatches"]:
            letters = word.split(".")
            assert len(letters) >= 3
            assert all(x[0] in "ab" and x[1:].isdigit() for x in letters)

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

    def test_scalar_rendering(self):
        assert scalar_str(5) == "5"
        assert scalar_str(Fraction(-3, 4)) == "-3/4"
        assert scalar_str(Fraction(8, 2)) == "4"


@pytest.mark.parametrize("argv", [
    ["report", "--n-max", "6"], ["decompose", "--n", "4"], ["verify-pseudoadjoint", "--n", "4"],
], ids=["report", "decompose", "verify-pseudoadjoint"])
def test_sl2_eliminations_see_no_fraction(monkeypatch, capsys, argv):
    """Integral values stay int all the way into the elimination engine
    and into the band solve, which takes every weight slice map."""
    seen = []
    real = exactla._integer_rows
    real_band = enright._band_solve

    def recording(m, rhss=()):
        seen.extend(m.entries.values())
        for rhs in rhss:
            seen.extend(rhs.values())
        return real(m, rhss)

    def recording_band(m, b, n, mu):
        seen.extend(m.entries.values())
        seen.extend(b.values())
        return real_band(m, b, n, mu)

    monkeypatch.setattr(exactla, "_integer_rows", recording)
    monkeypatch.setattr(enright, "_band_solve", recording_band)
    assert main(argv) == 0
    capsys.readouterr()
    assert seen and not [x for x in seen if isinstance(x, Fraction)]


def test_sl2_verbs_form_no_product_and_run_no_elimination(monkeypatch, capsys):
    """Every weight slice map of the sl2 verbs is solved on its band: no
    matrix product is formed and the elimination engine is never called."""
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


class TestRefreeze:
    def test_tilde_refreeze_roundtrip(self, tmp_path, monkeypatch):
        import vermalab.fixtures as fx
        target = tmp_path / "tilde.json"
        monkeypatch.setattr(fx, "TILDE_FIXTURE", target)
        monkeypatch.setattr(cli, "TILDE_FIXTURE", target)
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
        monkeypatch.setattr(cli, "ADELMAN_FIXTURE", target)
        monkeypatch.setattr(adelman, "_frozen_choice", None)
        code, out = run_to_file(tmp_path, "ad.json", "verify-adelman", "--trials", "4", "--refreeze")
        assert code == 0
        assert json.loads(out.read_text())["interpretationChosen"]["matchesFixture"]
        frozen = json.loads(target.read_text())
        assert (frozen["kernel"], frozen["cokernel"]) == ("extended-middle", "extended-middle")


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
    "projgen --n 8 --s 2": "ab551124a82502c803f14f0117df4bcdd51de51820728c87962b2d2d924100cf",
    "projgen --n 22 --s 6": "7e951a9519e370e2088f6e367b023ffb6678f95543777d8bf2603652fbfee855",
    "hwv --n 8 --s 2": "b13ff48e4a05d62de58d8e03ff44c99e59718206b52b2fb90b2c61a9b7c29d78",
    "verify-pseudoadjoint --n 4":
        "062e4e4b5091a034fb8ce6472ec1eb9c59569e6aa4eaf8557ba5562beec4a9a4",
    "verify-pseudoadjoint --n 12":
        "e028d342d6b47dc0d5a1001fa41e5f9695b5c911ec19d01357ac14c757c7bda0",
    "verify-pseudoadjoint --n 16 --margin 2":
        "6a4863128051e49ae6fe13334d07698119e040bc0504dde3c40205a696b725aa",
    # odd r and a slice twelve steps deeper than the identity's words
    "verify-pseudoadjoint --n 7 --margin 12":
        "ee38241422a3e31362bf032898f3fc45e03ed53bb91c5c76cae28781e4b6a095",
}


# the same for the verbs of the other three suites, at the default seed
ALGEBRA_DIGESTS = {
    "verify-hecke": "30841748cb1586b4728e0050946ee85ab5f2076e8217c3932111ae36deb1ab38",
    "verify-heisenberg --trials 100":
        "f5fd4b20d40d8842316d2f3ba102583eac8e6bda26d42018882fbf1c603dfa2e",
    "verify-adelman --trials 20":
        "e9baee3fd4836597a4328d4323ba9a9e63706bd6462ccc8a9843b153609abadb",
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
    # a projective case reads the record its generator was checked against
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
