"""The paired recorder ``tools/benchpair.py``: the shape of the files it
writes, the bytecode-cache regime it reads from the caller's environment,
and its refusal to time command lines whose outputs differ."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)


def _head(repo):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _repo_of_two_commits(path, first, second, program="print({!r})"):
    """A repository whose two commits hold a vermalab.cli module running
    program with first and then second filled in (by default, printing
    them); returns their ids."""
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=path, check=True, capture_output=True)

    git("init", "-q")
    package = path / "src" / "vermalab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    ids = []
    for count, text in enumerate((first, second)):
        (package / "cli.py").write_text(f"# commit {count}\n{program.format(text)}\n")
        git("add", "-A")
        git("commit", "-q", "-m", text)
        ids.append(_head(path))
    return ids


@needs_git
def test_one_pair_against_head_has_the_recorded_shape(tmp_path):
    head = _head(ROOT)
    if head is None:
        pytest.skip("not a git checkout with a commit")
    argv = ["--parent", "HEAD", "--label", "t", "--pairs", "1", "--seconds", "0.01",
            "--out-dir", str(tmp_path), "--repo", str(ROOT)]
    assert benchpair.main(argv) == 0
    for side in benchpair.SIDES:
        doc = json.loads((tmp_path / f"BENCH_t_{side}.json").read_text())
        assert set(doc) == {"machine", "side", "tree", "runs"} and doc["side"] == side
        [run] = doc["runs"]
        assert run["command"] == "python3 perfbench/run.py --workload sl2-sweep --seed 1729 " \
                                 "--seconds 0.01"
        assert (run["pairs"], run["order"], run["env"]["commit"]) == (1, benchpair.ORDER, head)
        assert run["bytecode_cache"] == benchpair.bytecode_note(None, os.environ)
        [one] = run["runs"]
        assert (one["pair"], one["ran_first"]) == (1, side == "parent")
        assert one["final_json_line"]["correct"] is True
        for metric in ("wall_s", "setup_s", "peak_rss_mb"):
            key = f"sl2-sweep.{metric}"
            [value] = run[f"{metric}_per_pair"][key]
            assert value == one["final_json_line"]["metrics"][metric]["value"]
            assert run[f"{metric}_summary"][key] == {"median": value, "q1": value, "q3": value}
            assert run["change_lower_in"][key]["pairs"] == 1


@needs_git
def test_cli_pairs_append_and_need_the_same_bytes(tmp_path):
    same, differ, out = tmp_path / "same", tmp_path / "differ", tmp_path / "out"
    same.mkdir()
    differ.mkdir()
    _, head = _repo_of_two_commits(same, "x", "x")
    _repo_of_two_commits(differ, "x", "y")
    argv = ["--parent", "HEAD~1", "--pairs", "2", "--cli", "decompose --n 2",
            "--out-dir", str(out)]
    for _ in range(2):  # the second recording is appended to the first
        assert benchpair.main([*argv, "--repo", str(same), "--label", "c"]) == 0
    doc = json.loads((out / "BENCH_c_change.json").read_text())
    assert len(doc["runs"]) == 2
    for run in doc["runs"]:
        assert (run["env"]["commit"], run["exit_code"]) == (head, 0)
        assert run["command"] == "python3 -m vermalab.cli decompose --n 2"
        assert [r["ran_first"] for r in run["runs"]] == [False, True]
        assert len(run["wall_s_per_pair"]["cli.wall_s"]) == 2
        assert run["change_lower_in"]["cli.wall_s"]["pairs"] == 2
        assert run["bytecode_cache"] == benchpair.bytecode_note("decompose --n 2", os.environ)
    with pytest.raises(SystemExit, match="do not print the same bytes"):
        benchpair.main([*argv, "--repo", str(differ), "--label", "d"])
    assert not list(out.glob("BENCH_d_*"))


@needs_git
@pytest.mark.parametrize("no_cache", ["", "1"])
def test_runs_keep_the_callers_environment(tmp_path, monkeypatch, no_cache):
    # each run's program prints whether its interpreter writes bytecode,
    # which it reads from PYTHONDONTWRITEBYTECODE; the file says the same
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", no_cache)
    repo, out = tmp_path / "repo", tmp_path / "out"
    repo.mkdir()
    _repo_of_two_commits(repo, "x", "x",
                         program="import sys; print(sys.flags.dont_write_bytecode, {!r})")
    argv = ["--parent", "HEAD~1", "--pairs", "1", "--cli", "x", "--label", "e",
            "--repo", str(repo), "--out-dir", str(out)]
    assert benchpair.main(argv) == 0
    [run] = json.loads((out / "BENCH_e_change.json").read_text())["runs"]
    printed = f"{int(bool(no_cache))} x\n".encode()
    assert run["stdout_sha256"] == hashlib.sha256(printed).hexdigest()
    assert run["bytecode_cache"].startswith(
        "PYTHONDONTWRITEBYTECODE set: no tree wrote" if no_cache
        else "PYTHONDONTWRITEBYTECODE unset: one import of vermalab.cli wrote")


@needs_git
def test_a_file_of_another_tree_is_refused_before_any_run(tmp_path, monkeypatch):
    # after a new commit to src/, the change file of the label names the
    # tree it was recorded from: nothing runs, and the parent file, which
    # would otherwise have grown by one recording, is left as it was
    repo, out = tmp_path / "repo", tmp_path / "out"
    repo.mkdir()
    _repo_of_two_commits(repo, "x", "x")
    argv = ["--pairs", "1", "--cli", "x", "--label", "g", "--repo", str(repo),
            "--out-dir", str(out)]
    assert benchpair.main(["--parent", "HEAD~1", *argv]) == 0
    (repo / "src" / "vermalab" / "cli.py").write_text("print('y')\n")
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qam", "y"],
                   cwd=repo, check=True, capture_output=True)
    parent = (out / "BENCH_g_parent.json").read_bytes()

    def no_run(*args):
        pytest.fail("a run started before the files were checked")

    monkeypatch.setattr(benchpair, "run_cli", no_run)
    with pytest.raises(SystemExit, match=r"BENCH_g_change\.json holds change git tree "):
        benchpair.main(["--parent", "HEAD~2", *argv])
    assert (out / "BENCH_g_parent.json").read_bytes() == parent
