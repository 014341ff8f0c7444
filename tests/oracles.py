"""Reference routines that only the tests call; no verb of the library
needs them, so they stay out of ``src/``."""

from vermalab.exactla import SparseMat, _echelon, _integer_rows


def rank(m):
    """Rank of a SparseMat with int or Fraction entries: the number of
    rows left by the library's echelon routine.  Raises TypeError on any
    other entry."""
    return len(_echelon(_integer_rows(m)))


def slice_matrix(rows, cols):
    """The SparseMat of a weight slice map given as ``{column: int}`` rows
    with cols columns, for the elimination engine and ``@``."""
    return SparseMat(len(rows), cols, {
        (r, c): x for r, row in enumerate(rows) for c, x in row.items()})
