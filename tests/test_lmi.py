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


def assert_same_coefficients(c1, c2):
    """The same F_k nonzeros on every block: pattern exact, values close."""
    assert len(c1.blocks) == len(c2.blocks)
    for b1, b2 in zip(c1.blocks, c2.blocks):
        for a1, a2 in ((b1.var, b2.var), (b1.row, b2.row), (b1.col, b2.col)):
            assert np.array_equal(a1, a2)
        assert np.allclose(b1.val, b2.val, atol=1e-12)


def test_sdpa_round_trip():
    p = toy_min_t()
    rt = read_sdpa(export_sdpa(p))
    c1, c2 = canonicalize(p), canonicalize(rt)
    assert np.allclose(c1.c, c2.c)
    for f1, f2 in zip(c1.f0, c2.f0):
        assert np.allclose(f1, f2)
    assert_same_coefficients(c1, c2)


def test_sdpa_round_trip_solves_to_same_optimum():
    sol = solve_sdp(read_sdpa(export_sdpa(toy_min_t())))
    assert sol.status == "optimal"
    assert sol.values["x1"] == pytest.approx(1.0, abs=1e-5)


def test_sdpa_round_trip_matrix_variable(bundled_design):
    """Cross-check the real synthesis export through the independent reader."""
    _, res = bundled_design
    text = export_sdpa(res.lmi.problem)
    rt = read_sdpa(text)
    c1, c2 = canonicalize(res.lmi.problem), canonicalize(rt)
    assert np.allclose(c1.c, c2.c)
    for f1, f2 in zip(c1.f0, c2.f0):
        assert np.allclose(f1, f2, atol=1e-12)
    assert_same_coefficients(c1, c2)
    # the solved point satisfies the re-read problem
    x = res.solution.x
    chk = check_solution(rt, {f"x{k + 1}": x[k] for k in range(x.size)})
    assert chk.passes()


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


def test_symmetric_variable_component_order():
    """A symmetric variable goes to x and back unchanged, and x's order is the
    one the objective and the constraint coefficients use."""
    y = np.arange(1.0, 10.0).reshape(3, 3)
    y = y + y.T + np.diag([0.5, 0.25, 0.125])       # distinct entries
    cost = np.arange(9.0).reshape(3, 3) ** 2
    p = LmiProblem()
    p.add_scalar("s")
    v = p.add_symmetric("Y", 3)
    p.objective["Y"] = cost
    p.add_constraint("eq", 3).terms.append(Term("Y", np.eye(3), np.eye(3)))
    rows, cols = lmi._components(v)
    x = np.concatenate([[0.0], y[rows, cols]])
    assert np.array_equal(lmi._values_from_x(p, x)["Y"], y)
    sdp = canonicalize(p)
    assert sdp.c @ x == pytest.approx(np.sum(cost * y), rel=1e-15)
    (s,) = lmi._eval_blocks(lmi._prep_layouts(sdp), x)
    assert np.array_equal(s[0], y)


def generic_sdpa_problem():
    """Scalar variables with dense random symmetric coefficients on two 4x4
    blocks of different supports and one 3x3 block, through SDPA text."""
    rng = np.random.default_rng(7)
    p = LmiProblem()
    for k in range(5):
        p.add_scalar(f"x{k}")
        p.objective[f"x{k}"] = float(rng.normal())
    for dim, support in ((4, (0, 1, 2, 3)), (4, (1, 4)), (3, (0, 2, 4))):
        con = p.add_constraint(f"b{dim}{support}", dim, const=3.0 * np.eye(dim))
        for k in support:
            f = rng.normal(size=(dim, dim))
            con.terms.append(Term(f"x{k}", f + f.T, np.eye(dim)))
    return read_sdpa(export_sdpa(p))


def dense_coefficients(sdp, slack):
    """Every block's F_k as a dense (m, d, d) array, from the stored nonzeros;
    with `slack`, the phase-1 slack F = I is the last."""
    out = []
    for blk in sdp.blocks:
        f = np.zeros((sdp.n_vars + slack, blk.dim, blk.dim))
        f[blk.var, blk.row, blk.col] = blk.val
        f[blk.var, blk.col, blk.row] = blk.val
        if slack:
            f[-1] = np.eye(blk.dim)
        out.append(f)
    return out


def interior_points(problem):
    """(slack, x, shift) triples, each a point where every block is well
    conditioned: the problem at x = 0 with its blocks shifted by a slack s0,
    and the phase-1 problem, slack column included, at a small x and s0."""
    sdp = canonicalize(problem)
    s0 = 1.0 + max(-np.min(np.linalg.eigvalsh(f)) + 0.1 * np.max(np.abs(f)) for f in sdp.f0)
    x = 1e-4 * np.random.default_rng(3).normal(size=sdp.n_vars)
    return sdp, [(False, np.zeros(sdp.n_vars), s0), (True, np.append(x, s0), 0.0)]


def problem_named(which, request):
    """The bundled synthesis LMI or the generic SDPA problem."""
    if which == "synthesis":
        return request.getfixturevalue("bundled_design")[1].lmi.problem
    return generic_sdpa_problem()


@pytest.mark.parametrize("which", ["synthesis", "generic_sdpa"])
def test_structured_derivatives_match_dense(which, request):
    """g_k = sum_b tr(S^-1 F_k) and H_kl = sum_b sum_ij (S^-1 F_k)_ij (S^-1 F_l)_ji
    from the cover factors equal the dense products at well-conditioned
    interior points."""
    problem = problem_named(which, request)
    sdp, points = interior_points(problem)
    for slack, x, shift in points:
        layout = lmi._prep_layouts(sdp, slack)
        blocks = [s + shift * np.eye(s.shape[-1]) for s in lmi._eval_blocks(layout, x)]
        grad, hess = lmi._derivatives(layout, [np.linalg.cholesky(s) for s in blocks])
        fks = dense_coefficients(sdp, slack)
        ref_g, ref_h = np.zeros(layout.m), np.zeros((layout.m, layout.m))
        for group, s in zip(layout.groups, blocks):
            for i, b in enumerate(group.members):
                assert np.linalg.cond(s[i]) < 1e3
                wf = np.einsum("ij,kjl->kil", np.linalg.inv(s[i]), fks[b])
                ref_g += np.einsum("kii->k", wf)
                ref_h += np.einsum("kij,lji->kl", wf, wf)
        np.testing.assert_allclose(grad, ref_g, rtol=1e-12, atol=0)
        np.testing.assert_allclose(hess, ref_h, rtol=1e-12, atol=0)


@pytest.mark.parametrize("which", ["synthesis", "generic_sdpa"])
def test_cover_factors_rebuild_every_coefficient_exactly(which, request):
    """F_k = E_J A_k^T + A_k E_J^T from the stored factors, bit for bit, on
    every block, with the phase-1 slack column too."""
    sdp = canonicalize(problem_named(which, request))
    for slack in (False, True):
        fks = dense_coefficients(sdp, slack)
        layout = lmi._prep_layouts(sdp, slack)
        for group in layout.groups:
            for i, b in enumerate(group.members):
                half = np.zeros((layout.m + 1,) + fks[b].shape[1:])
                for a_p, j, k in zip(group.a[i].T, group.cover[i], group.owner[i]):
                    half[k, :, j] += a_p            # each (k, column j) is set once
                rebuilt = half + half.transpose(0, 2, 1)
                assert np.array_equal(rebuilt[:layout.m], fks[b])
                assert not rebuilt[layout.m].any()      # padding columns are zero
