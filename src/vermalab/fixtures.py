"""Checked-in regression fixtures: their paths and their one read path.

Two computations freeze their expected outputs as JSON files shipped
with the package: the power-sum commutator table (whose delta pattern
does not hold wholesale, so the exact residuals are pinned), owned by the
verify-heisenberg verb, and the kernel/cokernel block reading, owned by
``adelman``.  Each owner keeps its schema and looks its path up here at
call time; ``load_json`` turns a failed read into FixtureError.
"""

from __future__ import annotations

import json
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
TILDE_FIXTURE = FIXTURE_DIR / "tilde_residuals.json"
ADELMAN_FIXTURE = FIXTURE_DIR / "adelman_interpretation.json"


class FixtureError(Exception):
    """A checked-in fixture is missing or malformed."""


def load_json(path):
    """The JSON document at ``path``; FixtureError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise FixtureError(f"cannot read {path}: {exc}") from exc


def save_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
