"""The stacked-outcome rule: a stack of one raises its error, and a stacked
solve LAPACK refuses gives each regular matrix what it gives alone."""

import numpy as np
import pytest

from oscdamp.stacking import alone, solve_each

N, P = 4, 5
SINGULAR = 2            # the position of the singular matrix in a mixed stack


def _stack(dtype):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((P, N, N)) + np.eye(N)
    if dtype is complex:
        a = a + 1j * rng.standard_normal((P, N, N))
    a[SINGULAR] = 0.0
    a[SINGULAR, 0, 0] = 1.0             # rank 1: LAPACK meets an exact zero pivot
    return a


# the right-hand sides the stacked stages pass: one vector for all matrices
# (inverse iteration), one matrix for all (Kron reduction), one column per
# matrix (the power-flow Newton step)
RHS = {"shared 1-D": lambda a: np.ones(N, dtype=a.dtype),
       "shared 2-D": lambda a: np.arange(2.0 * N).reshape(N, 2).astype(a.dtype),
       "one per matrix": lambda a: np.arange(P * N, dtype=a.dtype).reshape(P, N, 1) + 1}


@pytest.mark.parametrize("shape", RHS)
@pytest.mark.parametrize("dtype", [float, complex])
def test_regular_matrices_keep_their_bits_alone(shape, dtype):
    """Beside a singular matrix, each regular matrix's solution is the bits
    np.linalg.solve gives it alone."""
    a = _stack(dtype)
    b = RHS[shape](a)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b)
    x, refused = solve_each(a, b)
    assert x.dtype == np.result_type(a, b)
    for j in range(P):
        if j != SINGULAR:
            want = np.linalg.solve(a[j], b[j] if b.ndim == a.ndim else b)
            assert x[j].shape == want.shape and x[j].tobytes() == want.tobytes()


def test_each_refusal_is_at_its_position():
    """A refused matrix is keyed by its position in the stack, with its
    LinAlgError, and its solution rows are zero."""
    a = _stack(float)
    a[4] = a[SINGULAR]
    x, refused = solve_each(a, np.ones(N))
    assert sorted(refused) == [SINGULAR, 4]
    assert all(isinstance(exc, np.linalg.LinAlgError) for exc in refused.values())
    assert not x[[SINGULAR, 4]].any() and x[[0, 1, 3]].all()


def test_an_all_singular_stack_returns_every_refusal():
    x, refused = solve_each(np.zeros((3, N, N), dtype=complex), np.ones((3, N, 1)))
    assert sorted(refused) == [0, 1, 2] and x.shape == (3, N, 1) and not x.any()


def test_alone_raises_the_error_of_a_failed_stack_of_one():
    err = ValueError("stopped")
    with pytest.raises(ValueError) as raised:
        alone([err])
    assert raised.value is err
    value = np.ones(2)
    assert alone([value]) is value
