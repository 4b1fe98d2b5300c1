from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from optcons import CostSpec
from optcons.cost import NeighborBundle
from optcons import dynamics as dyn
from optcons.coordinator import solve_local
from optcons.errors import NumericError, PreconditionError
from optcons import solver
from optcons.solver import (LocalProblem, SolverConfig, contraction_factor,
                            ocp_direction, regularize)

from conftest import conditioned_quadratic, lq_batch_solution, random_spd


def cho_direction(g, Hmat, c, r, L_max):
    """Oracle: the inner recursion on scipy's cho_factor/cho_solve with the
    dense G = c I, as ocp_direction was first written."""
    G = c * np.eye(g.shape[0])
    cho = scipy.linalg.cho_factor(G + Hmat)
    d = scipy.linalg.cho_solve(cho, g)
    for _ in range(min(r, L_max)):
        d = scipy.linalg.cho_solve(cho, g + G @ d)
    return d


def uses_inverse(n, r, L_max):
    return solver.INVERSE_N_PER_DEPTH * (min(r, L_max) + 1) >= n


def assert_close_rel(got, want, rtol=1e-12):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_direction_zero_gradient_fixed_point():
    rng = np.random.default_rng(0)
    H = random_spd(rng, 4)
    for r in (0, 1, 5):
        d = ocp_direction(np.zeros(4)[None], H[None], 1.0, r)[0]
        np.testing.assert_array_equal(d, np.zeros(4))


def test_direction_scalar_hand_recursion():
    g = np.array([1.0])  # gradient h*u at u=1, h=1
    H = np.array([[1.0]])
    d0 = ocp_direction(g[None], H[None], 1.0, r=0)[0]
    assert d0[0] == pytest.approx(0.5)
    d1 = ocp_direction(g[None], H[None], 1.0, r=1)[0]
    assert d1[0] == pytest.approx(0.75)
    # applying d1 from u=1 lands at (c/(c+h))^2
    assert 1.0 - d1[0] == pytest.approx(0.25)


def test_direction_approaches_newton():
    rng = np.random.default_rng(1)
    H = random_spd(rng, 3, scale=2.0, floor=1.0)  # rho <= 1/2, fast tail
    g = rng.normal(size=3)
    d = ocp_direction(g[None], H[None], 1.0, r=200, L_max=200)[0]
    newton = np.linalg.solve(H, g)
    np.testing.assert_allclose(d, newton, rtol=1e-10)


def test_direction_r0_is_regularized_newton():
    rng = np.random.default_rng(2)
    H = random_spd(rng, 5)
    g = rng.normal(size=5)
    d = ocp_direction(g[None], H[None], 2.0, r=0)[0]
    np.testing.assert_allclose(d, np.linalg.solve(2.0 * np.eye(5) + H, g), atol=1e-14)


def signed_zero_hessian(rng, n):
    """SPD H with exact zeros of either sign (D H D with D = diag(+-1): same
    spectrum)."""
    H = random_spd(rng, n, scale=5.0)
    H[np.abs(H) < 0.5] = 0.0
    H += (1e-3 - min(0.0, np.linalg.eigvalsh(H).min())) * np.eye(n)
    s = rng.choice([-1.0, 1.0], size=n)
    return s[:, None] * H * s


@pytest.mark.parametrize("n", [1, 16, 64])
def test_direction_equals_cho_solve_recursion(n):
    # Bit for bit on the triangular-solve path; the inverse path reorders the
    # floating-point operations, so there it agrees to rounding.
    rng = np.random.default_rng(n)
    L_max = 10
    for c in (1.0, 0.3):
        H = signed_zero_hessian(rng, n)
        g = rng.normal(size=n)
        for r in (0, 1, L_max, L_max + 3):
            got = ocp_direction(g[None], H[None], c, r, L_max)[0]
            want = cho_direction(g, H, c, r, L_max)
            if uses_inverse(n, r, L_max):
                assert_close_rel(got, want)
            else:
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("K", [1, 3, 4])
@pytest.mark.parametrize("n", [1, 16, 32, 64])
def test_direction_stack_rows_equal_cho_solve_recursion(K, n):
    # Every depth N = min(r, L_max) + 1 up to L_max + 1 = 21, so every binary
    # digit pattern that the inverse's repeated squaring meets, and for every
    # n > 1 depths on either side of the switch from the solves to the
    # inverse; each row of a stack also equals its own stack of one bit for bit.
    # The inputs stay as they were, and a second call with the same sizes and
    # c returns the same bits, so the inverse's shared template of T's
    # constant part is never written.
    rng = np.random.default_rng(100 * K + n)
    L_max, c = 20, 0.5
    g = rng.normal(size=(K, n))
    Hs = np.array([signed_zero_hessian(rng, n) for _ in range(K)])
    before = g.copy(), Hs.copy()
    paths = set()
    for r in range(L_max + 4):
        paths.add(uses_inverse(n, r, L_max))
        d = ocp_direction(g, Hs, c, r, L_max)
        assert d.shape == (K, n)
        assert ocp_direction(g, Hs, c, r, L_max).tobytes() == d.tobytes()
        np.testing.assert_array_equal(g, before[0])
        np.testing.assert_array_equal(Hs, before[1])
        for a in range(K):
            assert_close_rel(d[a], cho_direction(g[a], Hs[a], c, r, L_max))
            np.testing.assert_array_equal(
                d[a], ocp_direction(g[a:a + 1], Hs[a:a + 1], c, r, L_max)[0])
    assert paths == ({True} if n == 1 else {False, True})


def test_direction_errors():
    # Finite input is the caller's precondition (the round update's gradient
    # gate and regularize), so the only error is a failed factorization.
    c = 0.7
    with pytest.raises(NumericError, match="not positive definite"):
        ocp_direction(np.ones((1, 3)), -3.0 * c * np.eye(3)[None], c, r=2)


@pytest.mark.parametrize("r", [0, 3, 4, 7, 15, 20])
def test_direction_error_names_the_indefinite_row(r):
    # Both paths factor every row first and report the first row whose
    # c I + H is not positive definite, with its leading-minor index.
    n, L_max = 16, 20
    Hs = np.array([np.eye(n)] * 3)
    Hs[1, 1, 1] = -5.0
    assert uses_inverse(n, r, L_max) == (r > 0)
    with pytest.raises(NumericError, match="2-th leading minor of the array is "
                                           "not positive definite") as exc:
        ocp_direction(np.ones((3, n)), Hs, 1.0, r, L_max)
    assert exc.value.row == 1


def test_regularize_shifts_indefinite():
    H = np.diag([1.0, -0.5])[None]
    out = regularize(H, 1e-8)
    assert np.linalg.eigvalsh(out).min() >= 1e-8 - 1e-15
    H_ok = np.diag([1.0, 2.0])[None]
    np.testing.assert_array_equal(regularize(H_ok, 1e-8), H_ok)


@pytest.mark.parametrize("rows", [1, 3])
def test_regularize_refuses_a_shift_that_overflows(rows):
    # Finite entries whose shift overflows: lambda_min = -1e308 moves the
    # first diagonal entry by 1e308 to inf, which regularize refuses as it
    # refuses a non-finite entry, naming the row (the last of the stack).
    Hs = np.array([np.eye(2)] * rows)
    Hs[-1] = np.diag([1e308, -1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                    match="^non-finite Hessian$") as exc:
        regularize(Hs, 1e-8)
    assert exc.value.row == rows - 1


def eigvalsh_regularize(Hmat, floor):
    """Oracle: regularize as first written, one eigvalsh per call."""
    lo = float(np.linalg.eigvalsh(Hmat).min())
    if lo < floor:
        Hmat = Hmat + (floor - lo) * np.eye(Hmat.shape[0])
    return Hmat


def certificate_cases(rng, n, floor):
    """Matrices around every decision regularize makes: Q diag(eigs) Q^T
    (not exactly symmetric), exactly singular ones, non-finite ones, and
    one whose two triangles disagree."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))

    def spectrum(lo, hi=1.0):
        return (Q * np.r_[lo, np.linspace(hi, 10 * hi, n - 1)]) @ Q.T

    cases = [spectrum(0.1), spectrum(-1.0), spectrum(-1e-12), np.zeros((n, n))]
    singular = random_spd(rng, n)
    singular[-1], singular[:, -1] = 0.0, 0.0
    cases.append(singular)
    for lo in (floor * (1 - 1e-6), floor * (1 + 1e-6), floor - 1e-14, floor + 1e-14,
               floor, 0.0):
        cases += [spectrum(lo), spectrum(lo, hi=1e6)]
    # Entries up to ~1e8: lambda_min within eigvalsh's rounding of the floor,
    # where a certificate without its margin passes about one matrix in ten
    # that eigvalsh shifts (n = 16, 64).
    for hi in 10 ** rng.uniform(0, 7, size=100):
        k = rng.uniform(-20, 20)
        cases.append(spectrum(floor + k * hi * np.finfo(float).eps, hi=hi))
    symmetric = [0.5 * (H + H.T) for H in cases]
    # eigvalsh reads the lower triangle: here indefinite (2 ones - I), while
    # the upper one reads I.
    cases.append(np.eye(n) + np.tril(np.full((n, n), 2.0), -1))
    for bad in (np.nan, np.inf, -np.inf):
        for idx in ((0, 0), (n - 1, 0), (0, n - 1)):
            H = random_spd(rng, n)
            H[idx] = bad
            cases.append(H)
    return cases + symmetric


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_regularize_certificate_equals_eigvalsh_path(n):
    floor = 1e-8
    rng = np.random.default_rng(n)
    rows = []
    for Hmat in certificate_cases(rng, n, floor):
        Hs = Hmat[None]
        before = Hs.copy()
        if not np.isfinite(Hmat).all():
            # The eigenvalue path raises LinAlgError on these or lets a NaN
            # through; regularize names the row instead.
            with pytest.raises(NumericError, match="^non-finite Hessian$") as exc:
                regularize(Hs, floor)
            assert exc.value.row == 0
            np.testing.assert_array_equal(Hs, before)
            continue
        want = eigvalsh_regularize(Hmat, floor)
        got = regularize(Hs, floor)
        np.testing.assert_array_equal(Hs, before)
        np.testing.assert_array_equal(got[0], want)
        np.testing.assert_array_equal(np.signbit(got[0]), np.signbit(want))
        # perfbench's tracer counts a shift as `out is not Hmat`.
        assert (got is Hs) == (want is Hmat)
        rows.append((Hmat, got[0], want is not Hmat))
    # The rows of one stack equal their stacks of one, and the stack itself
    # comes back exactly when none of its rows moves.
    Hs = np.array([Hmat for Hmat, *_ in rows])
    got = regularize(Hs, floor)
    for row, (_, want, _) in zip(got, rows):
        np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(np.signbit(row), np.signbit(want))
    assert (got is Hs) == (not any(shifted for *_, shifted in rows))
    kept = np.array([Hmat for Hmat, _, shifted in rows if not shifted])
    assert regularize(kept, floor) is kept
    # A stack names its first non-finite row.
    for bad in (np.nan, np.inf):
        Hs[[2, 4], 0, 0] = bad
        with pytest.raises(NumericError, match="^non-finite Hessian$") as exc:
            regularize(Hs, floor)
        assert exc.value.row == 2


def test_regularize_makes_no_numpy_cholesky_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.cholesky called")
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    Hs = np.array([np.diag([1.0, 2.0]), np.diag([1.0, -0.5])])
    out = regularize(Hs, 1e-8)
    np.testing.assert_array_equal(out[0], Hs[0])
    assert np.linalg.eigvalsh(out[1]).min() >= 1e-8 - 1e-15


def cholesky_mask(blocks, shift):
    """Oracle: one np.linalg.cholesky per row of the shifted blocks."""
    ok = np.isfinite(shift)
    for a in np.flatnonzero(ok):
        try:
            np.linalg.cholesky(blocks[a] + shift[a] * np.eye(blocks.shape[-1]))
        except np.linalg.LinAlgError:
            ok[a] = False
    return ok


@pytest.mark.parametrize("shape", [(4, 16, 16), (1, 16, 16), (4, 8, 5, 5), (1, 8, 5, 5)])
@pytest.mark.parametrize("case", ["pass", "one fails", "edge", "non-finite shift",
                                  "all non-finite"])
def test_cholesky_rows_equal_per_row_cholesky(shape, case):
    # "edge" shifts each row to 1e-6 above (even rows) or below (odd rows)
    # the point where its smallest block eigenvalue reaches 0, so only the
    # diagonals' own shift decides.
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    K, s = shape[0], shape[-1]
    blocks = np.array([random_spd(rng, s) for _ in range(np.prod(shape[:-2]))]).reshape(shape)
    shift = rng.uniform(-0.05, 0.05, size=K)
    lo = np.linalg.eigvalsh(blocks).reshape(K, -1).min(axis=1)
    if case == "one fails":
        shift[-1] = -50.0
    elif case == "edge":
        shift = -lo + np.where(np.arange(K) % 2, -1e-6, 1e-6)
    elif case == "non-finite shift":
        shift[K // 2] = np.nan if K > 1 else np.inf
    elif case == "all non-finite":
        shift[:] = np.nan
    before = blocks.copy()
    with np.errstate(invalid="ignore"):
        got = solver._cholesky_rows(blocks, shift)
    np.testing.assert_array_equal(blocks, before)
    assert got.dtype == bool and got.shape == (K,)
    np.testing.assert_array_equal(got, cholesky_mask(blocks, shift))
    assert got.all() == (case == "pass" or case == "edge" and K == 1)
    if case == "edge":
        np.testing.assert_array_equal(got, np.arange(K) % 2 == 0)
    if case == "pass" and len(shape) == 3:
        assert regularize(blocks, 1e-8) is blocks


def test_solve_local_stationary_start(scalar_chain):
    u_star = np.array([[-0.5]])
    res = solve_local(scalar_chain, u_star, SolverConfig(eps=1e-8))
    assert res.iterations == 0
    np.testing.assert_array_equal(res.u, u_star)
    assert res.converged


def test_solve_local_scalar_chain(scalar_chain):
    res = solve_local(scalar_chain, np.zeros((1, 1)),
                      SolverConfig(c=1.0, eps=1e-8))
    assert res.converged and res.iterations <= 15
    assert abs(res.u[0, 0] + 0.5) < 1e-8
    # the returned iterate itself satisfies the stationarity tolerance
    assert res.grad_norm <= 1e-8


def test_solve_local_matches_lq_oracle():
    rng = np.random.default_rng(2024)
    p, m, H = 2, 2, 10
    A = rng.normal(size=(p, p)) * 0.5
    B = rng.normal(size=(p, m))
    Q = random_spd(rng, p, scale=1.0, floor=0.3)
    R = random_spd(rng, m, scale=1.0, floor=0.5)
    D = random_spd(rng, p, scale=1.0, floor=0.3)
    x0 = rng.normal(size=p)

    spec = CostSpec(Q={(1, 2): Q}, R={1: R}, D={(1, 2): D})
    model = dyn.linear(A, B)
    nb = NeighborBundle({2: np.zeros((H + 1, p))})
    problem = LocalProblem(1, model, x0, nb, spec)

    res = solve_local(problem, np.zeros((H, m)),
                      SolverConfig(c=1.0, eps=1e-11, max_outer=20))
    assert res.converged and res.iterations <= 20
    u_star = lq_batch_solution(A, B, Q, R, D, x0, H)
    assert np.abs(res.u.reshape(-1) - u_star).max() < 1e-8


def test_msa_stationary_start(scalar_chain):
    res = solve_local(scalar_chain, np.array([[-0.5]]),
                      SolverConfig(eps=1e-8, method="msa"))
    assert res.iterations == 0 and res.converged


def test_backtracking_collapse_raises():
    # A cost that rises along every step size halves eta into the ground; that
    # is a numeric failure, never a zero step that reads as convergence.
    with pytest.raises(NumericError, match="step size fell below 1e-15 at cost 2.500e-01"):
        solver.backtrack_step(lambda u: 1.25, np.zeros((2, 1)), np.ones((2, 1)), 0.25, 0.7)


def test_msa_slower_than_ocp_on_scalar_chain(scalar_chain):
    cfg = SolverConfig(eps=1e-8, max_outer=10000)
    fast = solve_local(scalar_chain, np.zeros((1, 1)), cfg)
    slow = solve_local(scalar_chain, np.zeros((1, 1)), replace(cfg, method="msa"))
    assert fast.converged and slow.converged
    assert abs(slow.u[0, 0] + 0.5) < 1e-7
    assert slow.iterations > fast.iterations


def test_msa_ocp_ratio_on_conditioned_instance():
    problem, H, u_star = conditioned_quadratic()
    cfg = SolverConfig(eps=1e-8, max_outer=20000, L_max=50)
    u0 = np.zeros((1, 2))
    fast = solve_local(problem, u0, cfg)
    slow = solve_local(problem, u0, replace(cfg, method="msa"))
    assert fast.converged and slow.converged
    assert slow.iterations / fast.iterations > 5.0


def test_monotone_descent_on_convex_instances():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = 2
        A = rng.normal(size=(p, p)) * 0.4
        B = rng.normal(size=(p, p)) + np.eye(p)
        spec = CostSpec(Q={(1, 2): random_spd(rng, p)}, R={1: random_spd(rng, p)},
                        D={(1, 2): random_spd(rng, p)})
        model = dyn.linear(A, B)
        H = 6
        nb = NeighborBundle({2: rng.normal(size=(H + 1, p))})
        problem = LocalProblem(1, model, rng.normal(size=p), nb, spec)
        res = solve_local(problem, rng.normal(size=(H, p)),
                          SolverConfig(eps=1e-9, max_outer=50))
        costs = [problem.cost(u.reshape(H, p)) for u in res.history]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-12


def test_superlinear_ratio_decay():
    problem, Hmat, u_star = conditioned_quadratic()
    rho = contraction_factor(Hmat, np.eye(2))
    cfg = SolverConfig(c=1.0, eps=1e-12, max_outer=40, L_max=100)
    res = solve_local(problem, np.zeros((1, 2)), cfg)
    errs = [np.linalg.norm(h - u_star) for h in res.history]
    ratios = [errs[k + 1] / errs[k] for k in range(len(errs) - 1)
              if errs[k] > 1e-10]
    assert len(ratios) >= 4
    # geometric decrease of the per-iteration contraction
    for a, b in zip(ratios, ratios[1:]):
        assert b < a
    c1 = ratios[1] / rho ** 2
    for r, ratio in enumerate(ratios):
        assert ratio <= 1.05 * c1 * rho ** (r + 1)


def test_contraction_factor_identity_pair():
    assert contraction_factor(np.eye(3), np.eye(3)) == pytest.approx(0.5)


def test_contraction_factor_scalar_spectrum():
    for c, h in [(1.0, 2.0), (0.5, 0.1), (10.0, 3.0)]:
        got = contraction_factor(h * np.eye(2), c * np.eye(2))
        assert got == pytest.approx(c / (c + h))


def test_contraction_factor_matches_symmetric_eigensolve():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        H = random_spd(rng, n)
        G = random_spd(rng, n)
        got = contraction_factor(H, G)
        # oracle: similar symmetric form G^(1/2) (G+H)^-1 G^(1/2)
        Gh = scipy.linalg.sqrtm(G).real
        sym = Gh @ np.linalg.solve(G + H, Gh)
        want = np.abs(np.linalg.eigvalsh(0.5 * (sym + sym.T))).max()
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n", range(1, 9))
def test_contraction_factor_matches_scipy_generalized_eigh(n):
    # Oracle: LAPACK's generalized symmetric-definite eigensolver (dsygvd).
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        H, G = random_spd(rng, n), random_spd(rng, n)
        want = np.abs(scipy.linalg.eigh(G, G + H, eigvals_only=True)).max()
        assert contraction_factor(H, G) == pytest.approx(want, rel=1e-12, abs=0)


def test_contraction_factor_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        rho = contraction_factor(random_spd(rng, n), random_spd(rng, n))
        assert 0.0 < rho < 1.0


def test_contraction_factor_requires_pd():
    with pytest.raises(PreconditionError):
        contraction_factor(np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(PreconditionError):
        contraction_factor(np.eye(2), np.diag([1.0, -1.0]))
