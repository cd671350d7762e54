import numpy as np
import pytest

from oscdamp import lmi
from oscdamp.lmi import (LmiProblem, Term, solve_sdp, check_solution,
                         export_sdpa, read_sdpa, canonicalize, LmiError)


def toy_min_t():
    """min t s.t. [[t, 1], [1, t]] PSD; analytic optimum t = 1."""
    p = LmiProblem()
    p.add_scalar("t")
    p.objective["t"] = 1.0
    con = p.add_constraint("psd", 2, const=[[0.0, 1.0], [1.0, 0.0]])
    con.terms.append(Term("t", np.eye(2), np.eye(2)))
    return p


def toy_scalar_bound(eps=0.0):
    p = LmiProblem()
    p.add_scalar("x")
    p.objective["x"] = 1.0
    con = p.add_constraint("lb", 1, const=[[-2.0 - eps]])
    con.terms.append(Term("x", [[1.0]], [[1.0]]))
    return p


def test_toy_psd_solution():
    sol = solve_sdp(toy_min_t())
    assert sol.status == "optimal"
    assert sol.values["t"] == pytest.approx(1.0, abs=1e-5)


def test_toy_scalar_bound():
    sol = solve_sdp(toy_scalar_bound())
    assert sol.status == "optimal"
    assert sol.values["x"] == pytest.approx(2.0, abs=1e-5)


def test_infeasible_contradiction():
    p = LmiProblem()
    p.add_scalar("x")
    p.add_constraint("a", 1).terms.append(Term("x", [[1.0]], [[1.0]]))
    con = p.add_constraint("b", 1, const=[[-1.0]])
    con.terms.append(Term("x", [[-1.0]], [[1.0]]))
    assert solve_sdp(p).status == "infeasible"


def test_matrix_variable():
    p = LmiProblem()
    p.add_symmetric("Y", 2)
    p.objective["Y"] = np.eye(2)          # minimize tr(Y)
    con = p.add_constraint("ge", 2, const=-np.eye(2))
    con.terms.append(Term("Y", np.eye(2), np.eye(2)))
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert np.allclose(sol.values["Y"], np.eye(2), atol=1e-5)


def test_solution_passes_own_check():
    for problem in (toy_min_t(), toy_scalar_bound()):
        sol = solve_sdp(problem)
        assert sol.status == "optimal"
        assert all(e >= -1e-9 for e in sol.residual_min_eigs)
        assert sol.gap <= 1e-7 * (1 + abs(sol.objective))
        chk = check_solution(problem, sol)
        assert chk.passes()
        assert chk.objective == pytest.approx(sol.objective, rel=1e-12)


def test_check_flags_perturbed_solution():
    p = toy_min_t()
    sol = solve_sdp(p)
    bad = dict(sol.values)
    bad["t"] = bad["t"] - 1.0
    chk = check_solution(p, bad)
    assert not chk.passes()
    assert min(chk.min_eigs) < 0


def test_zero_variable_problem():
    p = LmiProblem()
    p.add_constraint("const", 2, const=np.eye(2))
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert check_solution(p, sol).passes()
    p2 = LmiProblem()
    p2.add_constraint("bad", 2, const=-np.eye(2))
    assert solve_sdp(p2).status == "infeasible"


def test_objective_monotone_in_shift():
    objs = []
    for eps in (0.0, 1e-4, 1e-2):
        objs.append(solve_sdp(toy_scalar_bound(eps)).objective)
    assert objs[0] <= objs[1] + 1e-7
    assert objs[1] <= objs[2] + 1e-7


def test_determinism():
    a = solve_sdp(toy_min_t())
    b = solve_sdp(toy_min_t())
    assert a.status == b.status
    assert a.values["t"] == b.values["t"]
    assert np.array_equal(a.x, b.x)


GOLDEN_TOY_SDPA = """1
1
2
1.0
0 1 1 2 -1.0
1 1 1 1 1.0
1 1 2 2 1.0
"""


def test_sdpa_export_golden_bytes():
    assert export_sdpa(toy_min_t()) == GOLDEN_TOY_SDPA


def test_sdpa_export_empty_constraints():
    p = LmiProblem()
    p.add_scalar("x")
    p.objective["x"] = 1.0
    text = export_sdpa(p)
    lines = text.splitlines()
    assert lines[0] == "1"
    assert lines[1] == "0"


def test_sdpa_round_trip():
    p = toy_min_t()
    rt = read_sdpa(export_sdpa(p))
    c1, c2 = canonicalize(p), canonicalize(rt)
    assert np.allclose(c1.c, c2.c)
    for f1, f2 in zip(c1.f0, c2.f0):
        assert np.allclose(f1, f2)
    for f1, f2 in zip(c1.fk, c2.fk):
        assert np.allclose(f1, f2)


def test_sdpa_round_trip_solves_to_same_optimum():
    sol = solve_sdp(read_sdpa(export_sdpa(toy_min_t())))
    assert sol.status == "optimal"
    assert sol.values["x1"] == pytest.approx(1.0, abs=1e-5)


def test_sdpa_round_trip_matrix_variable(bundled_design):
    """Cross-check the real synthesis export through the independent reader."""
    _, res = bundled_design
    text = export_sdpa(res.problem)
    rt = read_sdpa(text)
    c1, c2 = canonicalize(res.problem), canonicalize(rt)
    assert np.allclose(c1.c, c2.c)
    for f1, f2 in zip(c1.f0, c2.f0):
        assert np.allclose(f1, f2, atol=1e-12)
    for f1, f2 in zip(c1.fk, c2.fk):
        assert np.allclose(f1, f2, atol=1e-12)
    # the solved point satisfies the re-read problem
    x = res.solution.x
    for b in range(len(c2.f0)):
        s = c2.f0[b] + np.tensordot(x, c2.fk[b], axes=1)
        assert np.min(np.linalg.eigvalsh(0.5 * (s + s.T))) >= -1e-9


def test_duplicate_variable_rejected():
    p = LmiProblem()
    p.add_scalar("x")
    p.add_scalar("x")
    with pytest.raises(LmiError):
        canonicalize(p)


def test_term_shape_mismatch():
    p = LmiProblem()
    p.add_symmetric("Y", 3)
    con = p.add_constraint("c", 2)
    con.terms.append(Term("Y", np.eye(2), np.eye(2)))
    with pytest.raises(LmiError, match="shape"):
        canonicalize(p)


def test_iteration_limit_status(monkeypatch):
    monkeypatch.setattr(lmi, "MAX_OUTER", 1)
    monkeypatch.setattr(lmi, "GAP_TOL", 1e-300)
    sol = solve_sdp(toy_min_t())
    assert sol.status == "iteration_limit"
