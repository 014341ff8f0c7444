import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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
