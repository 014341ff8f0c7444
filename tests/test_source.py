import ast
import hashlib
import importlib
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import NamedTuple

import pytest
from test_cli import ALGEBRA_DIGESTS, SL2_DIGESTS

import vermalab


SOURCES = sorted(Path(vermalab.__file__).parent.glob("*.py"))


def _nodes():
    for p in SOURCES:
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p))):
            yield p.name, node


def test_library_has_no_bare_assert():
    # `python -O` strips assert statements, so library checks must raise
    assert "exactla.py" in [p.name for p in SOURCES]
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes()
                 if isinstance(node, ast.Assert)]
    assert offenders == []


def test_no_check_raises_a_fault_class():
    # a failed check is an AssertionError: the exception's class alone
    # decides the exit code, and RuntimeError and ArithmeticError are faults
    raised, offenders = 0, []
    for name, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised += 1
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc) in ("RuntimeError", "ArithmeticError"):
                offenders.append(f"{name}:{node.lineno}: {ast.unparse(exc)}")
    assert raised  # the scan still sees the library's raises
    assert offenders == []


def _handlers(tree, function):
    """The exception types each except clause of function names, in order."""
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return [ast.unparse(node.type) for node in ast.walk(body)
            if isinstance(node, ast.ExceptHandler)]


def test_the_exit_code_ladder_has_one_class_per_code():
    # one clause per exit code, each naming its classes, and no carve-out
    # for a subclass that a wider clause below would misfile
    tree = ast.parse((Path(vermalab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    assert _handlers(tree, "main") == [
        "sl2mod.UsageError", "AssertionError", "(FixtureError, OSError)", "Exception"]
    assert _handlers(tree, "_record_for_n") == ["AssertionError"]


def test_records_are_not_dataclasses():
    # every record is a typing.NamedTuple: a dataclass generates code for
    # each class at import and imports inspect, which the CLI pays at start
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes()
                 if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert offenders == []


def test_cli_start_up_imports_no_dataclasses_or_inspect():
    # -S leaves out site, whose .pth files may import anything
    code = ("import sys, vermalab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(vermalab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("argv", ["report --n-max 8", "projgen --n 8 --s 2",
                                  "verify-heisenberg --trials 100", "verify-adelman --trials 20"])
def test_pinned_outputs_survive_python_O(argv):
    # -O strips assert statements: every check must still run, and the
    # bytes stay those pinned for the plain interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(vermalab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-O", "-m", "vermalab.cli", *argv.split()], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == {**SL2_DIGESTS, **ALGEBRA_DIGESTS}[argv]


@pytest.mark.parametrize("argv", ["decompose --n 12", "verify-pseudoadjoint --n 12",
                                  "verify-heisenberg --trials 100", "verify-adelman --trials 20"])
def test_outputs_do_not_depend_on_the_hash_seed(argv):
    # str and tuple hashes change with PYTHONHASHSEED: no set order, and no
    # dict order that came from one, may reach the bytes
    env = {**os.environ, "PYTHONPATH": str(Path(vermalab.__file__).parents[1])}
    runs = [subprocess.Popen([sys.executable, "-m", "vermalab.cli", *argv.split()],
                             env={**env, "PYTHONHASHSEED": seed}, stdout=subprocess.PIPE)
            for seed in ("0", "1")]
    (zero, _), (one, _) = (run.communicate() for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    assert zero == one


def test_only_fixtures_reads_a_fixture():
    # fixtures owns the paths and the one read path: another module looks a
    # path up at call time, so that a moved path is seen, and reads through
    # load_json, so that a failed read is a FixtureError
    offenders, reads = [], 0
    for name, node in _nodes():
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.load":
            reads += 1
            if name != "fixtures.py":
                offenders.append(f"{name}:{node.lineno}: json.load")
        elif isinstance(node, ast.ImportFrom) and name != "fixtures.py":
            offenders += [f"{name}:{node.lineno}: {a.name}" for a in node.names
                          if a.name.endswith("_FIXTURE")]
    assert reads  # the scan still sees the read path
    assert offenders == []


def test_only_exactla_knows_fractions():
    # the library's scalars are ints: exactla alone decides what a scalar is,
    # and its solve makes the one rational value, so no other module imports
    # fractions or names Fraction, in code or in prose
    offenders = [f"{name}:{node.lineno}" for name, node in _nodes() if name != "exactla.py" and (
        isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions")]
    named = {p.name for p in SOURCES if "Fraction" in p.read_text(encoding="utf-8")}
    assert "exactla.py" in named  # the scan still sees the one module that may
    assert offenders + sorted(named - {"exactla.py"}) == []


def _readers(name):
    """(module, innermost enclosing function or "<module>", line) of every
    read of name in the library: as a bare name, as an attribute, or by
    an import under any alias."""
    found = []

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == name \
                    or isinstance(child, ast.Attribute) and child.attr == name \
                    or isinstance(child, ast.ImportFrom) and name in [a.name for a in child.names]:
                found.append((module, where, child.lineno))
            visit(module, child, child.name if isinstance(child, ast.FunctionDef) else where)

    for p in SOURCES:
        visit(p.name, ast.parse(p.read_text(encoding="utf-8"), filename=str(p)), "<module>")
    return found


def test_only_the_tower_helper_walks_down_by_f():
    # sl2mod.f_tower is the one walk down by f: the generators' kernel lines, the
    # Casimir audit and T_r read their towers from it, so no other function
    # calls, or so much as reads, f_on_slice, but sl2mod.commutes_with_f, which
    # applies f to the unit vectors and the columns of the audit's edge check
    helpers = [("sl2mod.py", "f_tower"), ("sl2mod.py", "commutes_with_f")]
    readers = _readers("f_on_slice")
    assert all(h in [(m, f) for m, f, _ in readers] for h in helpers)  # the scan sees them
    assert [f"{m}:{line}: {f}" for m, f, line in readers if (m, f) not in helpers] == []


def test_the_slice_solve_has_one_call_site():
    # the e-kernel and the Casimir kernel line are closed forms certified by
    # substitution, so the one slice solve left is the generator's M x = u
    readers = _readers("_slice_solve")
    assert [(m, f) for m, f, _ in readers] == [("enright.py", "projective_generator")]


LRU = ("lru_cache", "functools.lru_cache")


def _maxsize(call):
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    try:
        return ast.literal_eval(sizes[0]) if sizes else None
    except ValueError:
        return None


def test_library_caches_are_bounded():
    # a module-level memo lives as long as the process: keep each one small
    called, offenders, seen = set(), [], 0
    for name, node in _nodes():
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)) \
                and ast.unparse(node.func) in LRU:
            seen += 1
            called.add(node.func)
            size = _maxsize(node)
            if type(size) is not int or not 0 < size <= 4096:
                offenders.append(f"{where}: lru_cache maxsize {size!r}")
        elif isinstance(node, (ast.Name, ast.Attribute)) and node not in called:
            text = ast.unparse(node)
            if text in LRU:
                offenders.append(f"{where}: lru_cache without maxsize")
            elif text == "functools.cache":
                offenders.append(f"{where}: functools.cache is unbounded")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools" \
                and any(alias.name == "cache" for alias in node.names):
            offenders.append(f"{where}: functools.cache is unbounded")
    assert seen  # the scan still sees heisenberg's whole-word memo
    assert offenders == []


def test_exported_names_exist():
    # every name a module lists in __all__ must resolve to an attribute
    exported, missing = 0, []
    for p in SOURCES:
        name = "vermalab" if p.stem == "__init__" else f"vermalab.{p.stem}"
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, attr):
                missing.append(f"{p.name}: {attr}")
    assert exported  # the scan still sees the library's export lists
    assert missing == []


def test_library_imports_are_used():
    # a name a module imports and never reads is left over from code that
    # moved away; a re-export listed in __all__ counts as a read
    imported, unused = 0, []
    for p in SOURCES:
        tree = ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        module = importlib.import_module("vermalab" if p.stem == "__init__"
                                         else f"vermalab.{p.stem}")
        reads = set(getattr(module, "__all__", ()))
        reads.update(node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported += 1
                    if name not in reads:
                        unused.append(f"{p.name}:{node.lineno}: {name}")
    assert imported  # the scan still sees the library's imports
    assert unused == []


ROOT = Path(__file__).resolve().parents[1]
SEARCHED = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def test_exported_names_are_used():
    # an exported name that nothing reads is dead code with a public face.
    # A use is a read of the name, an attribute access, or a part of a
    # dotted string such as a span target "exactla.solve"; the definition
    # stores the name and the __all__ entry is an undotted string, so
    # neither counts.
    uses = set()
    for p in SEARCHED:
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add(node.id)
            elif isinstance(node, ast.Attribute):
                uses.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "." in node.value:
                uses.update(part for part in node.value.split(".") if part.isidentifier())
    exported, unused = 0, []
    for p in SOURCES:
        module = importlib.import_module("vermalab" if p.stem == "__init__"
                                         else f"vermalab.{p.stem}")
        for name in getattr(module, "__all__", ()):
            exported += 1
            if name not in uses:
                unused.append(f"{p.name}: {name}")
    assert exported and len(SEARCHED) > len(SOURCES)  # the scan still sees all three trees
    assert unused == []


def test_declared_fields_are_read():
    # a dataclass or NamedTuple field that nothing reads is filled on every
    # call for no one.  A read is an attribute load of the field's name on
    # any object, matched by name as above.
    reads = set()
    for p in SEARCHED:
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    declared, unread = 0, []
    for name, node in _nodes():
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    declared += 1
                    if stmt.target.id not in reads:
                        unread.append(f"{name}: {node.name}.{stmt.target.id}")
    assert declared  # the scan still sees the library's record classes
    assert unread == []


# ---------------------------------------------------------------------------
# the package's import layers
# ---------------------------------------------------------------------------

ELIMINATION = {"nullspace", "solve", "solve_each", "generalized_kernel", "_echelon"}


class PackageImport(NamedTuple):
    module: str       # the importing module
    line: int
    top_level: bool   # a statement of the module body, not of a function or branch
    target: str       # the imported package module
    names: tuple      # the names taken from it, () when the module itself is bound
    bound: str        # the name bound to the module itself, "" otherwise


def _package_imports():
    """Every import of a vermalab module by a vermalab module, relative
    (``from .exactla import x``, ``from . import enright``) or absolute."""
    found = []
    for p in SOURCES:
        tree = ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        top = set(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "vermalab"):
                path = [part for part in (node.module or "").split(".") if part]
                path = path if node.level else path[1:]
                if path:
                    found.append(PackageImport(p.stem, node.lineno, node in top, path[0],
                                               tuple(a.name for a in node.names), ""))
                else:
                    found += [PackageImport(p.stem, node.lineno, node in top, a.name, (),
                                            a.asname or a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [PackageImport(p.stem, node.lineno, node in top, a.name.split(".")[1],
                                        (), "") for a in node.names
                          if a.name.startswith("vermalab.")]
    return found


def _names_taken(imports):
    """(module, line, target, name) for every name one package module
    takes from another: by a from-import, or as an attribute, read or
    written, of a name bound to the other module."""
    for i in imports:
        for name in i.names:
            yield i.module, i.line, i.target, name
    bound = {(i.module, i.bound): i.target for i in imports if i.bound}
    for name, node in _nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = bound.get((Path(name).stem, node.value.id))
            if target:
                yield Path(name).stem, node.lineno, target, node.attr


def test_package_imports_are_at_module_level():
    # an import inside a function hides a dependency from the module's head
    imports = _package_imports()
    assert any(i.module == "cli" and i.target == "enright" for i in imports)  # the scan sees them
    assert [f"{i.module}:{i.line}" for i in imports if not i.top_level] == []


def test_package_import_graph_has_no_cycle():
    # the library is layered: exactla <- sl2mod <- enright <- cli, and so on
    graph = {}
    for i in _package_imports():
        graph.setdefault(i.module, set()).add(i.target)
    assert "sl2mod" in graph["enright"]
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


def test_no_module_takes_another_modules_private_names():
    # a _-prefixed name is its module's own business; what another module
    # needs is public
    taken = list(_names_taken(_package_imports()))
    assert any(name == "projective_generator" for *_, name in taken)  # the scan sees attributes
    assert [f"{module}:{line}: {target}.{name}" for module, line, target, name in taken
            if name.startswith("_") and not name.startswith("__")] == []


def test_sl2_layers_run_no_elimination():
    # sl2mod and enright solve their weight slices by forward substitution;
    # the elimination engine is for adelman and for the tests' oracles
    taken = list(_names_taken(_package_imports()))
    assert ("adelman", "exactla", "nullspace") in [(m, t, name) for m, _, t, name in taken]
    assert [f"{module}:{line}: {name}" for module, line, target, name in taken
            if module in ("sl2mod", "enright") and target == "exactla"
            and name in ELIMINATION] == []
