"""The outcome rule of every stacked stage.

A stage that evaluates a stack of items (the points of a sweep, the outages
of an N-1 scan) gives each item's outcome, its value or the error that stops
it, as what the item gives alone.  The single-item call is the stack of one
and raises that error (`alone`).  A stacked solve that LAPACK refuses is
solved one matrix at a time, so that only the refused matrices fail
(`solve_each`).
"""

import numpy as np


def alone(outcomes):
    """The value of a stack of one, or raise its error."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def solve_each(a, b):
    """np.linalg.solve over the stack of matrices `a`, with `b` one right-hand
    side for all of them (fewer dimensions than `a`) or one per matrix.
    Returns the solutions and each refused matrix's LinAlgError keyed by its
    position; a refused matrix's solution is zero."""
    try:
        return np.linalg.solve(a, b), {}
    except np.linalg.LinAlgError:
        each = b.ndim == a.ndim
        x = np.zeros((len(a),) + b.shape[each:], dtype=np.result_type(a, b))
        refused = {}
        for j, aj in enumerate(a):
            try:
                x[j] = np.linalg.solve(aj, b[j] if each else b)
            except np.linalg.LinAlgError as exc:
                refused[j] = exc
        return x, refused
