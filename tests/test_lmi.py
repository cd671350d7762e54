import tracemalloc

import numpy as np
import pytest

import lmi_reference
from test_tooling import load_perfbench
from lmi_reference import read_sdpa
from oscdamp import lmi
from oscdamp.dynamics import DesignModel, build_design_matrices
from oscdamp.lmi import (LmiProblem, Term, solve_sdp, check_solution,
                         export_sdpa, canonicalize, LmiError)
from oscdamp.synthesis import (CouplingBounds, assemble_synthesis_lmi, coupling_rows,
                               synthesis_lmi)


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


def contradiction():
    """x >= 0 and x <= -1."""
    p = LmiProblem()
    p.add_scalar("x")
    p.add_constraint("a", 1).terms.append(Term("x", [[1.0]], [[1.0]]))
    con = p.add_constraint("b", 1, const=[[-1.0]])
    con.terms.append(Term("x", [[-1.0]], [[1.0]]))
    return p


def test_infeasible_contradiction():
    assert solve_sdp(contradiction()).status == "infeasible"


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


@pytest.mark.parametrize("row, col, size", [(2, 0, 2), (0, 2, 2), (3, 3, 1), (-1, 0, 1),
                                            (0, 0, 4)])
def test_term_block_past_dimension(row, col, size):
    """A term whose block does not fit in its constraint is refused, whether
    the offset or the block's size carries it past the edge."""
    p = LmiProblem()
    p.add_symmetric("Y", size)
    con = p.add_constraint("c", 3)
    con.terms.append(Term("Y", np.eye(size), np.eye(size), row, col, symmetrize=True))
    with pytest.raises(LmiError, match="runs past dimension 3"):
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


def interior_factors(problem):
    """The layout and the blocks' Cholesky factors at each interior point."""
    sdp, points = interior_points(problem)
    out = []
    for slack, x, shift in points:
        layout = lmi._prep_layouts(sdp, slack)
        blocks = [s + shift * np.eye(s.shape[-1]) for s in lmi._eval_blocks(layout, x)]
        out.append((layout, [np.linalg.cholesky(s) for s in blocks]))
    return out


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_derivatives_are_the_allocating_form_bit_for_bit(bundled_design, monkeypatch):
    """The buffered gradient and Hessian are bit for bit those of the
    allocating form: at the interior points of the bundled synthesis LMI and
    the generic SDPA problem, and at every Newton iterate of the bundled
    solve, in phase 1 (slack layout) and phase 2."""
    problem = bundled_design[1].lmi.problem
    for layout, chols in (interior_factors(problem)
                          + interior_factors(generic_sdpa_problem())):
        assert_same_bits(lmi._derivatives(layout, chols),
                         lmi_reference.reference_derivatives(layout, chols))
    derivatives, seen = lmi._derivatives, []

    def checked(layout, chols):
        got = derivatives(layout, chols)
        assert_same_bits(got, lmi_reference.reference_derivatives(layout, chols))
        seen.append(layout.m)
        return got

    monkeypatch.setattr(lmi, "_derivatives", checked)
    sol = solve_sdp(problem)
    assert sol.status == "optimal"
    assert set(seen) == {sol.x.size + 1, sol.x.size}
    assert len(seen) >= sol.iterations


def test_solve_with_the_allocating_form_gives_the_same_x(bundled_design, monkeypatch):
    problem = bundled_design[1].lmi.problem
    want = solve_sdp(problem)
    monkeypatch.setattr(lmi, "_derivatives", lmi_reference.reference_derivatives)
    got = solve_sdp(problem)
    assert np.array_equal(got.x, want.x)
    assert got.iterations == want.iterations


def lazy_and_eager(monkeypatch, solve):
    """`solve()` with the line search of `_newton_center` and with the eager
    reference form."""
    lazy = solve()
    with monkeypatch.context() as m:
        m.setattr(lmi, "_newton_center", lmi_reference.reference_newton_center)
        eager = solve()
    return lazy, eager


def assert_same_solve(got, want):
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert np.array([got.objective, got.gap]).tobytes() == \
        np.array([want.objective, want.gap]).tobytes()
    assert got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()


def test_lazy_line_search_is_the_eager_one_bit_for_bit(bundled_design, bundled_case,
                                                       bundled_eq, monkeypatch):
    """Factoring each step length's groups one at a time, the last refusing
    group first, and carrying the accepted barrier value over give the
    status, steps, objective, gap and x of the eager line search, bit for
    bit: on the bundled synthesis LMI, its machines 1-3 subset at bound
    scale 0.1, the generic SDPA problem, an infeasible one and the
    benchmark's size-curve LMIs at N = 2 and 4."""
    subset = synthesis_lmi(bundled_case, bundled_eq, subset=[1, 2, 3], bound_scale=0.1)
    for problem in (bundled_design[1].lmi.problem, subset.problem, generic_sdpa_problem(),
                    contradiction()):
        assert_same_solve(*lazy_and_eager(monkeypatch, lambda: solve_sdp(problem)))
    curve = load_perfbench(monkeypatch, "sdp_curve")
    monkeypatch.setattr(curve, "SIZES", (2, 4))
    solved = []
    monkeypatch.setattr(curve, "solve_sdp", lambda p: solved.append(solve_sdp(p)) or solved[-1])

    def size_curve():
        solved.clear()
        curve.size_curve(bundled_case)
        return list(solved)

    lazy, eager = lazy_and_eager(monkeypatch, size_curve)
    assert len(lazy) == len(eager) == 2
    for got, want in zip(lazy, eager):
        assert_same_solve(got, want)
    # the Armijo test refuses factorable trials of the subset solve: without
    # it, that solve ends at another x (after the same 107 steps), so the
    # barrier value carried over from the last accepted step decides there;
    # a steeper test also refuses one of the generic problem's
    with monkeypatch.context() as m:
        m.setattr(lmi, "ARMIJO", -np.inf)
        unchecked = solve_sdp(subset.problem)
    assert unchecked.x.tobytes() != solve_sdp(subset.problem).x.tobytes()
    monkeypatch.setattr(lmi, "ARMIJO", 0.25)
    assert_same_solve(*lazy_and_eager(monkeypatch, lambda: solve_sdp(generic_sdpa_problem())))


def test_lazy_line_search_factors_less(bundled_design, monkeypatch):
    """On the bundled solve the line search runs fewer Cholesky
    factorizations than the eager one, with the same refusals."""
    cholesky, tally = np.linalg.cholesky, []

    def counted(a):
        try:
            out = cholesky(a)
        except np.linalg.LinAlgError:
            tally.append(False)
            raise
        tally.append(True)
        return out

    def solve():
        tally.clear()
        solve_sdp(bundled_design[1].lmi.problem)
        return len(tally), tally.count(False)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    (lazy, lazy_refused), (eager, eager_refused) = lazy_and_eager(monkeypatch, solve)
    assert lazy < eager
    assert lazy_refused == eager_refused > 0


def test_derivatives_hold_no_state(bundled_design):
    """A call on another layout or at another point in between, or a write
    into a returned gradient or Hessian, leaves the next call's bits as
    they were."""
    problem = bundled_design[1].lmi.problem
    (other, other_chols), (layout, chols) = interior_factors(problem)
    first = [a.copy() for a in lmi._derivatives(layout, chols)]
    lmi._derivatives(other, other_chols)
    lmi._derivatives(layout, [2.0 * l for l in chols])
    again = lmi._derivatives(layout, chols)
    assert_same_bits(again, first)
    for a in again:
        a.fill(np.nan)
    assert_same_bits(lmi._derivatives(layout, chols), first)


def test_derivatives_allocate_less_than_one_product(bundled_design):
    """After a warm-up call on the bundled phase-1 layout, whose stability
    block has R = 168 factor columns, one more call's traced peak stays
    below one R x R float64 array."""
    layout, chols = interior_factors(bundled_design[1].lmi.problem)[1]
    r = max(g.a.shape[2] for g in layout.groups)
    assert r == 168
    lmi._derivatives(layout, chols)
    tracemalloc.start()
    try:
        lmi._derivatives(layout, chols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < r * r * 8


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


def offset_problem():
    """Terms at offsets; the optimum is t = 1, Y = diag(1, 1/4), s = 1.  The
    blocks: diag(1, [[t, 1], [1, t]]); [[Y, X], [X, I]] with X = diag(1, 1/2);
    I plus s at (0, 1) and its mirror at (1, 0); and 3 I - Y on the lower
    2 x 2 of a 3 x 3 block, where the term and its transpose overlap."""
    p = LmiProblem()
    p.add_scalar("t")
    p.add_symmetric("Y", 2)
    p.add_scalar("s")
    p.objective.update(t=1.0, Y=np.eye(2), s=-1.0)
    con = p.add_constraint("t", 3, const=[[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    con.terms.append(Term("t", np.eye(2), np.eye(2), 1, 1))
    const = np.zeros((4, 4))
    const[:2, 2:] = const[2:, :2] = np.diag([1.0, 0.5])
    const[2:, 2:] = np.eye(2)
    p.add_constraint("Y", 4, const=const).terms.append(Term("Y", np.eye(2), np.eye(2)))
    con = p.add_constraint("s", 3, const=np.eye(3))
    con.terms.append(Term("s", [[1.0]], [[1.0]], 0, 1, symmetrize=True))
    con = p.add_constraint("cap", 3, const=3.0 * np.eye(3))
    con.terms.append(Term("Y", -0.5 * np.eye(2), np.eye(2), 1, 1, symmetrize=True))
    return p


def test_offset_terms_solve_and_check():
    """Offset terms land where they say: the solve finds the optimum, and
    check_solution's eigenvalues are those of the terms embedded in full."""
    p = offset_problem()
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert sol.values["t"] == pytest.approx(1.0, abs=1e-5)
    assert sol.values["s"] == pytest.approx(1.0, abs=1e-5)
    np.testing.assert_allclose(sol.values["Y"], np.diag([1.0, 0.25]), atol=1e-5)
    chk = check_solution(p, sol)
    assert chk.passes()
    want = [np.linalg.eigvalsh(s)[0] for s in lmi_reference.dense_blocks(p, sol.values)]
    np.testing.assert_allclose(chk.min_eigs, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("var, change, block", [("t", -0.1, 0), ("s", 0.1, 2),
                                                ("Y", np.diag([0.0, -0.1]), 1),
                                                ("Y", np.diag([2.5, 0.0]), 3)])
def test_check_flags_perturbed_offset_solution(var, change, block):
    """A perturbed solution of the offset problem fails on the block whose
    offset term it breaks, and only there."""
    p = offset_problem()
    values = {"t": 1.0, "s": 1.0, "Y": np.diag([1.0, 0.25])}
    assert check_solution(p, values).passes(eig_tol=-1e-12)
    values[var] = values[var] + change
    mins = check_solution(p, values).min_eigs
    assert [i for i, e in enumerate(mins) if e < -1e-3] == [block]


def size_curve_lmi(case, n):
    """The size-curve synthesis LMI of the benchmark: N copies of machine 1's
    design model, in per-unit speed, with the same coupling weight 0.05 on
    every pair."""
    m = case.machines[0]
    dm = build_design_matrices(m, case.governor_for(m.id), case.omega0)
    tscale = np.array([1.0, case.omega0, 1.0, 1.0, 1.0])
    scaled = DesignModel(machine_id=m.id, a=dm.a * tscale[None, :] / tscale[:, None],
                         b=dm.b / tscale, g=dm.g / tscale)
    w = np.full((n, n), 0.05)
    np.fill_diagonal(w, 0.0)
    zero, ones = np.zeros((n, n)), np.ones(n)
    bounds = CouplingBounds(e_max_q=ones, e_max_d=ones, w_qq=w, w_qd=zero, w_dq=zero,
                            w_dd=zero, power_scale=ones)
    return assemble_synthesis_lmi([scaled] * n, coupling_rows(bounds))


def overlapping_problem():
    """Terms that pile up on shared entries, some symmetrized, some over their
    own transpose, with random values: the sums round, so their order shows.
    Each right factor picks columns, which keeps every product exact."""
    rng = np.random.default_rng(12)
    p = LmiProblem()
    for k in range(3):
        p.add_scalar(f"x{k}")
    p.add_symmetric("Y", 3)
    con = p.add_constraint("pile", 7, const=np.eye(7))
    for _ in range(40):
        var = ["x0", "x1", "x2", "Y"][rng.integers(4)]
        inner = 3 if var == "Y" else int(rng.integers(1, 4))
        rows, cols = rng.integers(1, 5, size=2)
        pick = np.zeros((inner, cols))
        pick[rng.integers(inner, size=cols), np.arange(cols)] = 1.0
        con.terms.append(Term(var, rng.normal(size=(rows, inner)), pick,
                              int(rng.integers(8 - rows)), int(rng.integers(8 - cols)),
                              symmetrize=bool(rng.integers(2))))
    return p


def reference_problem(which, bundled_case, bundled_eq):
    if which == "golden_toy":
        return toy_min_t()
    if which == "overlapping":
        return overlapping_problem()
    if which.startswith("curve"):
        return size_curve_lmi(bundled_case, int(which[len("curve"):]))
    problem = synthesis_lmi(bundled_case, bundled_eq).problem
    return read_sdpa(export_sdpa(problem)) if which == "synthesis_round_trip" else problem


@pytest.mark.parametrize("which", ["synthesis", "golden_toy", "synthesis_round_trip",
                                   "curve2", "curve4", "curve6", "curve8", "overlapping"])
def test_canonical_form_matches_dense_reference(which, bundled_case, bundled_eq):
    """The stored F_k triplets, f0 and c are bit for bit those of the dense
    reference, which gives every component of every term a full d x d matrix."""
    problem = reference_problem(which, bundled_case, bundled_eq)
    sdp = canonicalize(problem)
    c, blocks = lmi_reference.canonical_triplets(problem)
    assert sdp.c.dtype == c.dtype and sdp.c.tobytes() == c.tobytes()
    assert len(sdp.blocks) == len(blocks)
    for blk, want in zip(sdp.blocks, blocks):
        for got, ref in zip((blk.f0, blk.var, blk.row, blk.col, blk.val), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_canonical_form_memory_at_n16(bundled_case):
    """At N = 16 (the largest block is 336 x 336), canonicalizing the
    size-curve LMI and reading its SDPA text back each stay under 50 MB of
    traced allocations."""
    problem = size_curve_lmi(bundled_case, 16)
    text = export_sdpa(problem)
    for step in (lambda: canonicalize(problem), lambda: read_sdpa(text)):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


def test_read_sdpa_repeated_entry_keeps_last():
    """An entry given twice, in either triangle, keeps the value given last."""
    text = ("1\n1\n2\n1.0\n0 1 1 2 -1.0\n"
            "1 1 1 1 5.0\n1 1 1 1 1.0\n1 1 1 2 3.0\n1 1 2 1 0.5\n1 1 2 2 1.0\n")
    blk = canonicalize(read_sdpa(text)).blocks[0]
    assert blk.var.tolist() == [0, 0, 0]
    assert list(zip(blk.row.tolist(), blk.col.tolist())) == [(0, 0), (0, 1), (1, 1)]
    assert blk.val.tolist() == [1.0, 0.5, 1.0]
