import ast
from pathlib import Path

import vermalab


def test_library_has_no_bare_assert():
    # `python -O` strips assert statements, so library checks must raise
    sources = sorted(Path(vermalab.__file__).parent.glob("*.py"))
    assert "exactla.py" in [p.name for p in sources]
    offenders = [
        f"{p.name}:{node.lineno}"
        for p in sources
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
