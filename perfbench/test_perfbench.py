"""Self-checks of the benchmark: check counts, statistics, the digest
gate, and a tiny workload run end to end, untraced and traced, in a few
seconds."""

import json
import statistics
from pathlib import Path

import run
import workloads
from spans import TARGETS
from workloads import Call, Workload, cli

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# a tiny seeded call: 36 relation rows + 16 fixture rows + 3 fuzz trials
TINY = Workload("tiny", "a few seconds of real calls",
                (cli("tiny-heisenberg", "verify-heisenberg", "--trials", "3",
                     check=workloads.check_heisenberg, seeded=True),),
                subseeds=2)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert run.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert run.quartiles(values)[1] == run.median(values) == 3.5
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_subseeds_start_at_the_run_seed_and_repeat():
    assert workloads.subseed(42, 0) == 42
    derived = [workloads.subseed(42, k) for k in range(1, 4)]
    assert derived == [workloads.subseed(42, k) for k in range(1, 4)]
    assert len(set(derived)) == 3 and 42 not in derived


def _case(**checks):
    base = {"positivity": True, "casimirNilpotent": True,
            "alphaResiduals": ["0"], "betaResiduals": None}
    return {"s": 0, "checks": {**base, **checks}}


def _record(*cases):
    return {"cases": list(cases), "audit": [{"mu": 0, "lhs": 1, "rhs": 1}] * 2}


def test_report_and_decompose_counts():
    doc = {"records": [_record(_case()), _record(_case(), _case())],
           "summary": {"casesRun": 3, "failures": 0}}
    assert workloads.check_report(doc) == (True, 3 + 4)
    bad = _record(_case(alphaResiduals=["1/2"]))
    assert workloads.check_report({"records": [bad], "summary": {"casesRun": 1, "failures": 0}})[0] is False
    dec = {**_record(_case()), "casimirBlocks": [
        {"mu": 2, "ok": True, "blocks": [{"t": 0}, {"t": 2}]},
        {"mu": 0, "ok": True, "blocks": [{"t": 0}]}]}
    assert workloads.check_decompose(dec) == (True, 1 + 2 + 3)
    dec["casimirBlocks"][1]["ok"] = False
    assert workloads.check_decompose(dec)[0] is False


def test_verb_counts():
    adel = {"interpretationChosen": {"matchesFixture": True, "resolutionTrials": 24},
            "congruenceChecks": {"trials": 5, "reflexive": 5, "symmetric": 5,
                                 "transitive": 5, "composition": 5},
            "universalPropertyTrials": {"passed": 40, "failed": 0}}
    assert workloads.check_adelman(adel) == (True, 24 + 20 + 40)
    adel["congruenceChecks"]["symmetric"] = 4
    assert workloads.check_adelman(adel)[0] is False
    heis = {"relationResiduals": [{"residual": "0"}] * 4, "tildeResiduals": [{}] * 3,
            "tildeMatchesFixture": True, "fuzz": {"trials": 10, "failures": 0}}
    assert workloads.check_heisenberg(heis) == (True, 17)
    hecke = {"relations": [{"witnessOrPass": True}] * 6, "allPassed": True}
    assert workloads.check_hecke(hecke) == (True, 6)
    pseudo = {"modules": [{"identityZero": True, "casimirMatch": True, "labelsChecked": 13}] * 2}
    assert workloads.check_pseudoadjoint(pseudo) == (True, 26)


def test_unparsable_output_fails():
    call = Call("x", {"argv": []}, workloads.check_hecke)
    assert workloads.verdict(call, "not json") == (False, 0)
    assert workloads.verdict(call, "{}") == (False, 0)


def test_gate_uses_golden_then_first_seen():
    unseeded = Call("u", {"argv": []}, workloads.check_hecke)
    seeded = Call("s", {"argv": []}, workloads.check_hecke, seeded=True)
    gate = run.Gate({"u": {"sha256": "aa", "checks": 3}, "s": {"sha256": "bb", "checks": 1}})
    assert gate.check(unseeded, 7, "aa", 3) is None
    assert gate.check(unseeded, 7, "ab", 3) is not None
    assert gate.check(seeded, workloads.GOLDEN_SEED, "bb", 1) is None
    assert gate.check(seeded, 7, "cc", 2) is None
    assert gate.check(seeded, 7, "cc", 2) is None
    assert gate.check(seeded, 7, "cd", 2) is not None


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_golden_covers_every_call():
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    names = {c.name for w in workloads.WORKLOADS.values() for c in w.calls}
    assert set(golden) == names


def test_tiny_workload_untraced_and_traced():
    gate = run.Gate({})
    passes, metrics, units, _ = run.measure(TINY, 7, 0, gate)
    assert [p.seed for p in passes] == [7, workloads.subseed(7, 1)]
    assert passes[0].digests != passes[1].digests
    assert not any(p.failed for p in passes)
    assert set(metrics) == set(units) == set(run.END_TO_END_UNITS)
    assert all(p.checks == 36 + 16 + 3 for p in passes)
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0 and metrics["peak_rss_mb"] > 0

    # seed 7 comes round again, traced and untraced, and must repeat its bytes
    passes, metrics, units, _ = run.measure_traced(TINY, 7, 0, gate)
    assert len(passes) == 4 and not any(p.failed for p in passes)
    assert len({tuple(p.digests.values()) for p in passes}) == 1
    assert set(metrics) == set(units) == set(run.PER_LAYER_UNITS)
    assert metrics["heisenberg.confluence_fuzz.calls"] == 1
    assert metrics["heisenberg.normal_form.calls"] >= 2 * 3  # two strategies per fuzz word
    assert metrics["heisenberg.nf_cache.misses"] > 0
    assert metrics["exactla.nullspace.calls"] == 0
    shares = sum(metrics[f"{name}.self_pct"] for name in TARGETS)
    assert 0 < shares <= 100
