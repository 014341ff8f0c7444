"""Checked-in regression fixtures and their IO.

Two computations freeze their expected outputs as JSON files shipped
with the package: the power-sum commutator table (whose delta pattern
does not hold wholesale, so the exact residuals are pinned) and the
block-shape interpretation selected for kernels and cokernels.  The
command line's --refreeze regenerates both explicitly.
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
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_tilde_fixture():
    return load_json(TILDE_FIXTURE)


def load_adelman_fixture():
    return load_json(ADELMAN_FIXTURE)
