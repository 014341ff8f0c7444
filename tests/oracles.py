"""Reference routines that only the tests call; no verb of the library
needs them, so they stay out of ``src/``."""

from vermalab.exactla import _echelon, _integer_rows


def rank(m):
    """Rank of a SparseMat with int or Fraction entries: the number of
    rows left by the library's echelon routine.  Raises TypeError on any
    other entry."""
    return len(_echelon(_integer_rows(m)))
