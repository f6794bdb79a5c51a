import math

import numpy as np
import pytest
from scipy.optimize import lsq_linear, minimize

from meshtomo import solve
from meshtomo.core import Grid, Image, Seed
from meshtomo.data import ShapesConfig, gen_shapes
from meshtomo.mesh import StackedBasis, mesh_with_k_triangles, rasterize
from meshtomo.solve import (SolveOptions, SolveResult, SolverError, _chambolle_pock,
                            _fista, minnorm_prefixes, minnorm_solve, nnls, power_norm,
                            solve_reformulated, tv_direct)
from meshtomo.tomo import RayMatrix, build_ray_matrix, erase, forward, place_sensors


def tv_aniso(flat, side):
    m = flat.reshape(side, side)
    return np.abs(np.diff(m, axis=1)).sum() + np.abs(np.diff(m, axis=0)).sum()


def make_stack(grid, ks, seed0):
    return StackedBasis([rasterize(mesh_with_k_triangles(k, Seed(seed0 + i)), grid)
                         for i, k in enumerate(ks)])


def test_solve_options_validation():
    for bad in (dict(max_iters=0), dict(max_iters=10.5), dict(max_iters=True),
                dict(max_iters=math.inf), dict(tol=-1.0), dict(tol=math.inf),
                dict(tol=math.nan), dict(tv_weight=-0.1), dict(tv_weight=math.inf),
                dict(tv_weight=math.nan)):
        with pytest.raises(ValueError):
            SolveOptions(**bad)
    opts = SolveOptions(max_iters=10.0)
    assert opts.max_iters == 10 and isinstance(opts.max_iters, int)


def test_power_norm_matches_spectral_norm():
    for trial in range(5):
        rng = Seed(trial).rng()
        a = rng.standard_normal((20, 10))
        est = power_norm(lambda v: a.T @ (a @ v), 10)
        true = np.linalg.norm(a, 2) ** 2
        assert est == pytest.approx(true, rel=5e-3)


def test_nnls_matches_scipy_box_oracle():
    # lsq_linear solves the identical box-constrained problem
    for trial in range(6):
        rng = Seed(100 + trial).rng()
        a = rng.standard_normal((30, 16))
        # target outside the box so some constraints bind
        y = a @ rng.uniform(-0.5, 1.5, 16) + 0.05 * rng.standard_normal(30)
        opts = SolveOptions(max_iters=3000, tol=1e-12)
        img = nnls(a, y, opts)
        ref = lsq_linear(a, y, bounds=(0.0, 1.0), tol=1e-14)
        f_ours = 0.5 * np.sum((a @ img.values - y) ** 2)
        f_ref = 0.5 * np.sum((a @ ref.x - y) ** 2)
        assert f_ours <= f_ref * (1 + 1e-6) + 1e-12
        assert img.values.min() >= 0.0 and img.values.max() <= 1.0
        assert np.allclose(img.values, ref.x, atol=5e-4)


def test_nnls_info_and_convergence_flag():
    rng = Seed(9).rng()
    a = rng.standard_normal((25, 9))
    y = a @ rng.uniform(0, 1, 9)
    img, info = nnls(a, y, SolveOptions(max_iters=2000, tol=1e-12), return_info=True)
    assert info.converged
    assert info.iterations <= 2000
    # best-iterate tracking means the reported objective is the running minimum
    assert info.objective == pytest.approx(min(info.objectives))
    assert np.array_equal(info.image.values, img.values)


def test_nnls_respects_erasure_dropping():
    # a masked solve is bitwise the solve on the kept rows at the step of all
    # rows: images, iteration counts and objective traces, for FISTA and for
    # Chambolle-Pock
    grid = Grid(8)
    rm = build_ray_matrix(place_sensors(8), grid)
    rng = Seed(12).rng()
    x = Image(grid, rng.uniform(0, 1, grid.n_pixels))
    y = erase(forward(rm, x), 0.4, Seed(13))
    keep = ~y.mask
    kept, target = rm.matrix[keep], y.values[keep]
    step = rm.fista_operator[2]
    assert step < solve._fista_operator(kept)[2]  # ||A_kept|| < ||A||
    fista_kept = (solve._product(kept), solve._product(kept.T), step)
    opts = SolveOptions(max_iters=800, tol=1e-11)
    pairs = [(nnls(rm, y, opts, return_info=True)[1], _fista(fista_kept, target, grid, opts))]
    opts = SolveOptions(tv_weight=1e-3, max_iters=300)
    start = _fista(fista_kept, target, grid, SolveOptions(max_iters=300, tol=opts.tol))
    k, k_t = solve._stacked_operator(kept, grid.side)
    tv_kept = (solve._product(k), solve._product(k_t), rm.tv_operator[2])
    pairs.append((tv_direct(rm, y, opts),
                  _chambolle_pock(tv_kept, target, grid, opts, start.image.values)))
    for got, want in pairs:
        assert got.iterations == want.iterations and got.converged == want.converged
        assert np.array_equal(got.image.values, want.image.values)
        assert np.array_equal(got.objectives, want.objectives)


def test_tv_direct_zero_weight_is_nnls():
    grid = Grid(8)
    rm = build_ray_matrix(place_sensors(7), grid)
    x = Image(grid, Seed(1).rng().uniform(0, 1, grid.n_pixels))
    y = forward(rm, x)
    opts = SolveOptions(max_iters=400, tol=1e-10)
    a = tv_direct(rm, y, opts)
    b = nnls(rm, y, opts)
    assert np.array_equal(a.image.values, b.values)


def test_tv_direct_optimality_under_perturbations():
    grid = Grid(8)
    rm = build_ray_matrix(place_sensors(7), grid)
    rng = Seed(21).rng()
    x = Image(grid, (rng.random(grid.n_pixels) > 0.6).astype(float))
    y = forward(rm, x)
    w = 0.05
    opts = SolveOptions(max_iters=4000, tol=1e-12, tv_weight=w)
    res = tv_direct(rm, y, opts)

    def objective(v):
        r = rm.matrix @ v - y.values
        return r @ r + w * tv_aniso(v, grid.side)

    f_star = objective(res.image.values)
    assert res.objective == pytest.approx(f_star, rel=1e-9)
    # convex problem: no feasible perturbation may do better
    for i in range(60):
        step = 10.0 ** rng.uniform(-4, -1)
        d = rng.standard_normal(grid.n_pixels)
        v = np.clip(res.image.values + step * d / np.linalg.norm(d), 0.0, 1.0)
        assert objective(v) >= f_star - 1e-7 * max(1.0, f_star)


def test_tv_direct_matches_powell_on_tiny_problem():
    # 3x3 grid is small enough for a derivative-free reference solve
    grid = Grid(3)
    rng = Seed(33).rng()
    a = rng.random((7, 9))
    a /= a.sum(axis=1, keepdims=True)
    y = a @ (rng.random(9) > 0.5).astype(float)
    w = 0.1
    opts = SolveOptions(max_iters=6000, tol=1e-13, tv_weight=w)
    res = tv_direct(a, y, opts)

    def objective(v):
        r = a @ v - y
        return r @ r + w * tv_aniso(v, 3)

    ref = minimize(objective, np.clip(y.mean() + np.zeros(9), 0, 1),
                   method="Powell", bounds=[(0.0, 1.0)] * 9,
                   options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 20000})
    assert objective(res.image.values) <= objective(ref.x) + 1e-6


def test_tv_weight_shrinks_total_variation():
    grid = Grid(10)
    rm = build_ray_matrix(place_sensors(9), grid)
    x = Image(grid, Seed(3).rng().uniform(0, 1, grid.n_pixels))
    y = forward(rm, x)
    tvs = []
    for w in (0.0, 0.01, 0.1, 1.0):
        res = tv_direct(rm, y, SolveOptions(max_iters=1500, tol=1e-11, tv_weight=w))
        tvs.append(tv_aniso(res.image.values, grid.side))
    assert tvs[0] >= tvs[1] >= tvs[2] >= tvs[3] - 1e-9
    assert tvs[3] <= 0.05 * tvs[0] + 1e-9  # strong smoothing flattens the image


def test_solve_reformulated_recovers_subspace_image():
    grid = Grid(12)
    stack = make_stack(grid, [10, 12], 40)
    rng = Seed(8).rng()
    # a piecewise-constant image inside the box is exactly representable
    target = stack.bases[0].synthesize(
        rng.uniform(0.1, 0.9, stack.bases[0].k) * np.sqrt(stack.bases[0].counts))
    target = Image(grid, np.clip(target.values, 0, 1))
    q = stack.coeffs(target)
    res = solve_reformulated(stack, q, SolveOptions(max_iters=2000, tol=1e-12))
    assert np.linalg.norm(stack.coeffs(res.image) - q) <= 1e-4 * np.linalg.norm(q)
    single = solve_reformulated(stack.bases[0], stack.bases[0].coeffs(target),
                                SolveOptions(max_iters=500, tol=1e-10))
    assert single.image.values.shape == (grid.n_pixels,)
    with pytest.raises(ValueError):
        solve_reformulated(stack, q[:-1])


def test_stack_gram_fixes_constant_image():
    # G = B B^T is a sum of L orthogonal projectors that all keep the constant
    # image, so G 1 = L 1 and ||B|| = sqrt(L): the scale of the block factor's
    # eigenvalue cut in minnorm_prefixes
    grid = Grid(12)
    for ks in ([9], [8, 9, 10], [6, 7, 8, 9, 10, 11]):
        stack = make_stack(grid, ks, 200 + len(ks))
        bs = stack.to_sparse()
        ones = np.ones(grid.n_pixels)
        assert np.allclose(bs @ (bs.T @ ones), len(ks) * ones, rtol=0, atol=1e-12)
        top = np.linalg.eigvalsh((bs @ bs.T).toarray())[-1]
        assert top == pytest.approx(len(ks), rel=1e-12)


def test_recombination_warm_start_is_least_squares_optimum():
    # 12 meshes of 40 triangles on 256 pixels: B^T is rank-deficient, and
    # perturbed coefficients leave its range
    grid = Grid(16)
    stack = make_stack(grid, [40] * 12, 230)
    rng = Seed(21).rng()
    q = stack.coeffs(Image(grid, rng.uniform(0, 1, grid.n_pixels)))
    q = q + 0.05 * rng.standard_normal(q.size)
    bt = stack.to_sparse().toarray().T
    ref = np.linalg.lstsq(bt, q, rcond=None)[0]
    optimum = float(np.sum((bt @ ref - q) ** 2))
    assert optimum > 1e-4 * float(q @ q)                # inconsistent
    x = stack.minnorm_lstsq(q)
    rel = np.linalg.norm(bt @ x - q) / np.linalg.norm(q)
    assert rel == pytest.approx(np.sqrt(optimum) / np.linalg.norm(q), rel=1e-8)
    assert np.allclose(x, ref, atol=1e-6)


def test_stack_minnorm_lstsq_matches_lstsq():
    # both Gram branches: N <= sum(K) factors G = B B^T, N > sum(K) M = B^T B;
    # G and the multi-mesh M are singular here, and q is consistent or
    # perturbed out of range(B^T)
    grid = Grid(12)
    rng = Seed(24).rng()
    cases = (([30] * 6, True), ([6, 7, 8], False), ([9], False))
    for seed0, (ks, pixel_side) in enumerate(cases, start=240):
        stack = make_stack(grid, ks, 10 * seed0)
        b = stack.to_sparse().toarray()
        assert (grid.n_pixels <= stack.total_k) == pixel_side
        gram = b @ b.T if pixel_side else b.T @ b
        if len(ks) > 1:
            assert np.linalg.matrix_rank(gram) < len(gram)
        if pixel_side:
            # pixels that share a triangle in every mesh make G singular
            rows = {tuple(r) for r in np.column_stack([bb.assignment for bb in stack.bases])}
            assert len(rows) < grid.n_pixels
        q = stack.coeffs(Image(grid, rng.uniform(0, 1, grid.n_pixels)))
        for q in (q, q + 0.05 * rng.standard_normal(q.size)):
            ref = np.linalg.lstsq(b.T, q, rcond=None)[0]
            x = stack.minnorm_lstsq(q)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref), (ks, pixel_side)
    with pytest.raises(ValueError):
        stack.minnorm_lstsq(q[:-1])


def test_stack_factor_built_once_and_only_by_recombination(monkeypatch):
    grid = Grid(12)
    stack = make_stack(grid, [30] * 6, 260)
    q = stack.coeffs(Image(grid, Seed(25).rng().uniform(0, 1, grid.n_pixels)))
    eigh = np.linalg.eigh
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    minnorm_solve(stack, q)
    stack.coeffs(Image(grid, np.ones(grid.n_pixels)))
    stack.to_sparse()
    # the block factor takes one K x K eigh per mesh and keeps nothing
    blocks = [(b.k, b.k) for b in stack.bases]
    assert calls == blocks and "_gram_eig" not in vars(stack)
    for _ in range(3):
        solve_reformulated(stack, q, SolveOptions(tv_weight=0.03, max_iters=5))
    assert calls == blocks + [(grid.n_pixels, grid.n_pixels)]


def test_solve_reformulated_never_worse_than_warm_start():
    # 800 coefficients of 256 pixels: the clipped warm start is close to the
    # truth, and primal-dual iterates oscillate around it before they settle
    grid = Grid(16)
    stack = make_stack(grid, [40] * 20, 230)
    bt = stack.to_sparse().toarray().T
    qs = [stack.coeffs(img) for img in gen_shapes(ShapesConfig(6, 16, seed=Seed(23)))]
    warms = np.clip(np.linalg.lstsq(bt, np.column_stack(qs), rcond=None)[0], 0.0, 1.0).T
    for lam in (0.03, 0.3):
        for q, warm in zip(qs, warms):
            warm_obj = float(np.sum((bt @ warm - q) ** 2)) + lam * tv_aniso(warm, 16)
            res = solve_reformulated(stack, q, SolveOptions(tv_weight=lam, max_iters=600))
            x = res.image.values
            obj = float(np.sum((bt @ x - q) ** 2)) + lam * tv_aniso(x, 16)
            assert res.objective == pytest.approx(obj, rel=1e-12)
            # the trace starts at the warm start, the stack's Gram solution
            assert res.objectives[0] == pytest.approx(warm_obj, rel=1e-6)
            assert res.objective <= res.objectives[0]


def test_minnorm_solve_consistent_and_minimal():
    # a small stack, then the kernel Monte Carlo's stacks: K in {10, 20, 50}
    # triangles, L in {1, 2, 4, 8} meshes on a 32x32 grid
    cases = [(Grid(10), [8, 9], 60)] + [(Grid(32), [k] * n_meshes, 1000 * k + 10 * n_meshes)
                                        for k in (10, 20, 50) for n_meshes in (1, 2, 4, 8)]
    rng = Seed(14).rng()
    for grid, ks, seed0 in cases:
        stack = make_stack(grid, ks, seed0)
        q = stack.coeffs(Image(grid, rng.standard_normal(grid.n_pixels)))
        sol = minnorm_solve(stack, q)
        b = stack.to_sparse().toarray()
        assert np.linalg.norm(b.T @ sol.values - q) <= 1e-7 * np.linalg.norm(q)
        # dense pseudoinverse oracle gives the unique minimum-norm solution:
        # pinv(B^T) = B pinv(B^T B), cutting the null space of B^T B (at
        # least the constants shared by all meshes) instead of inverting it
        ref = b @ (np.linalg.pinv(b.T @ b, rcond=1e-10, hermitian=True) @ q)
        assert np.allclose(sol.values, ref, atol=1e-6), (grid.side, ks)


def _prefix_lstsq(stack, q, count):
    """Dense least-squares oracle for the first ``count`` meshes of ``stack``."""
    hi = sum(b.k for b in stack.bases[:count])
    b = stack.to_sparse().toarray()[:, :hi]
    return np.linalg.lstsq(b.T, q[:hi], rcond=None)[0]


def test_minnorm_prefixes_match_lstsq():
    # the kernel Monte Carlo's cells: K in {10, 20, 50}, L in {1, 2, 4, 8} on
    # 32x32, every L from one factor of an 8-mesh stack
    grid = Grid(32)
    rng = Seed(17).rng()
    for k in (10, 20, 50):
        stack = make_stack(grid, [k] * 8, 3000 + k)
        q = stack.coeffs(Image(grid, rng.standard_normal(grid.n_pixels)))
        sols = minnorm_prefixes(stack, q, [8, 1, 4, 2, 4])
        assert sorted(sols) == [1, 2, 4, 8]
        for count, sol in sols.items():
            ref = _prefix_lstsq(stack, q, count)
            assert np.linalg.norm(sol.values - ref) <= 1e-10 * np.linalg.norm(ref), (k, count)
    with pytest.raises(ValueError, match="mesh counts"):
        minnorm_prefixes(stack, q, [0, 2])
    with pytest.raises(ValueError, match="mesh counts"):
        minnorm_prefixes(stack, q, [9])
    with pytest.raises(ValueError, match="coefficients"):
        minnorm_prefixes(stack, q[:-1], [1])


def test_minnorm_prefixes_drop_a_repeated_mesh():
    # meshes 2 and 4 repeat mesh 1: their whole Schur complements vanish and
    # their blocks add no column
    grid = Grid(16)
    first, second = (rasterize(mesh_with_k_triangles(12, Seed(s)), grid) for s in (90, 91))
    stack = StackedBasis([first, first, second, first])
    q = stack.coeffs(Image(grid, Seed(18).rng().standard_normal(grid.n_pixels)))
    sols = minnorm_prefixes(stack, q, [1, 2, 3, 4])
    assert np.array_equal(sols[1].values, sols[2].values)
    assert np.array_equal(sols[3].values, sols[4].values)
    for count, sol in sols.items():
        ref = _prefix_lstsq(stack, q, count)
        assert np.linalg.norm(sol.values - ref) <= 1e-10 * np.linalg.norm(ref), count


def test_minnorm_prefixes_zero_input_gives_zeros():
    grid = Grid(12)
    stack = make_stack(grid, [8, 9, 10], 92)
    sols = minnorm_prefixes(stack, np.zeros(stack.total_k), [1, 3])
    for sol in sols.values():
        assert np.array_equal(sol.values, np.zeros(grid.n_pixels))


def test_minnorm_solve_linear_in_q():
    grid = Grid(9)
    stack = make_stack(grid, [7], 70)
    rng = Seed(15).rng()
    q1 = stack.coeffs(Image(grid, rng.standard_normal(grid.n_pixels)))
    q2 = stack.coeffs(Image(grid, rng.standard_normal(grid.n_pixels)))
    lhs = minnorm_solve(stack, 2.0 * q1 - 3.0 * q2).values
    rhs = 2.0 * minnorm_solve(stack, q1).values - 3.0 * minnorm_solve(stack, q2).values
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_minnorm_solve_inconsistent_raises():
    grid = Grid(10)
    stack = make_stack(grid, [8, 9], 80)
    ones = Image(grid, np.ones(grid.n_pixels))
    # (B1^T 1, -B2^T 1) lies in ker(B): the two syntheses cancel exactly,
    # so adding it to any consistent q leaves the range of B^T
    w = np.concatenate([stack.bases[0].coeffs(ones), -stack.bases[1].coeffs(ones)])
    q = stack.coeffs(Image(grid, Seed(16).rng().standard_normal(grid.n_pixels)))
    with pytest.raises(SolverError, match="residual"):
        minnorm_solve(stack, q + w)


def test_non_finite_objective_raises_at_first_iteration():
    grid = Grid(8)
    rm = build_ray_matrix(place_sensors(8), grid)
    y = forward(rm, Image(grid, Seed(4).rng().uniform(0, 1, grid.n_pixels)))
    y.values[3] = np.nan
    stack = make_stack(grid, [8, 9], 95)
    q = stack.coeffs(Image(grid, Seed(4).rng().uniform(0, 1, grid.n_pixels)))
    q[2] = np.nan
    calls = [lambda: nnls(rm, y)] + [
        lambda lam=lam: solve_reformulated(stack, q, SolveOptions(tv_weight=lam))
        for lam in (0.0, 0.03)]
    for call in calls:
        with pytest.raises(SolverError, match=r"objective diverged \(non-finite\) at iteration 1$"):
            call()


def test_nnls_accepts_measurement_and_matrix():
    grid = Grid(6)
    rm = build_ray_matrix(place_sensors(6), grid)
    x = Image(grid, Seed(2).rng().uniform(0, 1, grid.n_pixels))
    y = forward(rm, x)
    from_rm = nnls(rm, y)
    from_mat = nnls(rm.matrix, y.values)
    assert np.allclose(from_rm.values, from_mat.values, atol=1e-12)
    with pytest.raises(ValueError):
        nnls(rm.matrix[:, :-1], y.values)  # non-square pixel count


# ---------------------------------------------------------------------------
# reference loops: FISTA and Chambolle-Pock as written before the package
# loops kept A x and the image gradient of each iterate. Every product and
# stencil is taken afresh: three operator products per iteration.

def reference_fista(mat, target, grid, opts, full=None):
    """Returns (SolveResult, number of restarts).

    The step comes from ``full`` (default ``mat``): the matrix of all rows
    when ``mat`` holds the kept rows of a masked solve.
    """
    mat_t = mat.T
    full = mat if full is None else full
    step = 1.0 / power_norm(lambda v: full.T @ (full @ v), grid.n_pixels)

    def objective(v):
        r = mat @ v - target
        return 0.5 * float(r @ r)

    x = np.zeros(grid.n_pixels)
    z = x.copy()
    t = 1.0
    obj = objective(x)
    trace = [obj]
    best_obj, best_x = obj, x.copy()
    stall = restarts = it = 0
    converged = False
    for it in range(1, opts.max_iters + 1):
        x_new = np.clip(z - step * (mat_t @ (mat @ z - target)), 0.0, 1.0)
        obj_new = objective(x_new)
        if obj_new > obj:
            restarts += 1
            t = 1.0
            z = x.copy()
            x_new = np.clip(z - step * (mat_t @ (mat @ z - target)), 0.0, 1.0)
            obj_new = objective(x_new)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t, obj = x_new, t_new, obj_new
        trace.append(obj)
        if obj < best_obj - opts.tol * max(1.0, abs(best_obj)):
            best_obj, best_x = obj, x.copy()
            stall = 0
        else:
            if obj < best_obj:
                best_obj, best_x = obj, x.copy()
            stall += 1
            if stall >= 10:
                converged = True
                break
    return SolveResult(Image(grid, best_x), best_obj, converged, it, np.array(trace)), restarts


def _ref_div(gh, gv, side):
    out = np.zeros((side, side))
    out[:, :-1] -= gh
    out[:, 1:] += gh
    out[:-1, :] -= gv
    out[1:, :] += gv
    return out


def reference_chambolle_pock(data_mat, data_t, target, grid, opts, x0, full=None):
    """The step comes from [full; D] (default ``data_mat``), as in :func:`reference_fista`."""
    side = grid.side
    w = opts.tv_weight
    full, full_t = (data_mat, data_t) if full is None else (full, full.T)

    def normal_op(v):
        v2 = v.reshape(side, side)
        return (full_t @ (full @ v)
                + _ref_div(np.diff(v2, axis=1), np.diff(v2, axis=0), side).ravel())

    sigma = tau = 0.99 / math.sqrt(max(power_norm(normal_op, grid.n_pixels), 1e-30))

    def objective(v):
        r = data_mat @ v - target
        return float(r @ r) + w * tv_aniso(v, side)

    x = x0.copy()
    xbar = x.copy()
    z1 = 2.0 * (data_mat @ x - target)
    zh = np.zeros((side, side - 1))
    zv = np.zeros((side - 1, side))
    obj = objective(x)
    trace = [obj]
    best_obj, best_x = obj, x.copy()
    stall = it = 0
    converged = False
    for it in range(1, opts.max_iters + 1):
        z1 = (z1 + sigma * (data_mat @ xbar - target)) / (1.0 + 0.5 * sigma)
        if w > 0.0:
            xb2 = xbar.reshape(side, side)
            zh = np.clip(zh + sigma * np.diff(xb2, axis=1), -w, w)
            zv = np.clip(zv + sigma * np.diff(xb2, axis=0), -w, w)
            div = _ref_div(zh, zv, side).ravel()
        else:
            div = 0.0
        x_new = np.clip(x - tau * (data_t @ z1 + div), 0.0, 1.0)
        xbar = 2.0 * x_new - x
        x = x_new
        obj = objective(x)
        trace.append(obj)
        if obj < best_obj - opts.tol * max(1.0, abs(best_obj)):
            best_obj, best_x = obj, x.copy()
            stall = 0
        else:
            if obj < best_obj:
                best_obj, best_x = obj, x.copy()
            stall += 1
            if stall >= 25:
                converged = True
                break
    return SolveResult(Image(grid, best_x), best_obj, converged, it, np.array(trace))


def assert_same_solve(res, ref):
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert np.allclose(res.image.values, ref.image.values, rtol=0, atol=1e-8)
    assert res.objective == pytest.approx(ref.objective, rel=1e-9)


def test_recombination_matches_reference_loop():
    grid = Grid(16)
    stack = make_stack(grid, [40] * 20, 300)
    bs = stack.to_sparse()
    images = gen_shapes(ShapesConfig(2, 16, seed=Seed(31)))
    q_incons = stack.coeffs(images[0])
    q_incons = q_incons + 0.05 * Seed(5).rng().standard_normal(q_incons.size)
    # (coefficients, lambda, expected stop): learned-like inconsistent
    # coefficients run to the cap; oracle ones here stop by the stall rule,
    # and so do the inconsistent ones at lambda = 0, where the TV dual stays 0
    for q, lam, capped in ((q_incons, 0.3, True), (stack.coeffs(images[1]), 0.03, False),
                           (q_incons, 0.0, False)):
        opts = SolveOptions(tv_weight=lam, max_iters=600)
        res = solve_reformulated(stack, q, opts)
        ref = reference_chambolle_pock(bs.T.tocsr(), bs, q, grid, opts,
                                       np.clip(stack.minnorm_lstsq(q), 0.0, 1.0))
        assert_same_solve(res, ref)
        assert (res.iterations == 600) == capped and res.converged != capped


def test_tv_direct_and_nnls_match_reference_loops():
    grid = Grid(16)
    rm = build_ray_matrix(place_sensors(12), grid)
    y = forward(rm, gen_shapes(ShapesConfig(1, 16, seed=Seed(31)))[0])
    restarts = 0
    for meas in (y, erase(y, 0.125, Seed(6))):
        keep = ~meas.mask
        mat, target = rm.matrix[keep], meas.values[keep]
        opts = SolveOptions(tv_weight=2e-4, max_iters=600)
        warm, _ = reference_fista(mat, target, grid, SolveOptions(max_iters=600, tol=opts.tol),
                                  rm.matrix)
        ref = reference_chambolle_pock(mat, mat.T, target, grid, opts, warm.image.values,
                                       rm.matrix)
        assert_same_solve(tv_direct(rm, meas, opts), ref)
        opts = SolveOptions(max_iters=300)
        ref, count = reference_fista(mat, target, grid, opts, rm.matrix)
        assert_same_solve(nnls(rm, meas, opts, return_info=True)[1], ref)
        restarts += count
    assert restarts >= 1


def _count_products(monkeypatch):
    """Route solve._product through a wrapper; returns one call counter per bound operator."""
    counters = []
    bind = solve._product

    def counted(mat):
        product = bind(mat)
        calls = [0]
        counters.append(calls)

        def wrapped(v):
            calls[0] += 1
            return product(v)

        return wrapped

    monkeypatch.setattr(solve, "_product", counted)
    return counters


def _count_power_norm_products(monkeypatch, counters):
    """Route solve.power_norm through a wrapper; returns the products it makes."""
    spent = [0]

    def counted(*args, **kwargs):
        before = sum(c[0] for c in counters)
        out = power_norm(*args, **kwargs)
        spent[0] += sum(c[0] for c in counters) - before
        return out

    monkeypatch.setattr(solve, "power_norm", counted)
    return spent


def test_chambolle_pock_two_products_per_iteration(monkeypatch):
    grid = Grid(16)
    rm = build_ray_matrix(place_sensors(12), grid)
    y = forward(rm, gen_shapes(ShapesConfig(1, 16, seed=Seed(31)))[0])
    counters = _count_products(monkeypatch)
    operator = solve._tv_operator(rm.matrix, grid.side)
    k, k_t = counters
    built = (k[0], k_t[0])
    assert built[0] > 0 and built[0] == built[1]  # power_norm applies K and K^T in pairs
    x0 = np.full(grid.n_pixels, 0.5)
    res = _chambolle_pock(operator, y.values, grid, SolveOptions(tv_weight=2e-4, max_iters=50), x0)
    # the start's K x, then K and K^T once each per iteration
    assert res.iterations == 50 and len(counters) == 2
    assert k[0] - built[0] == res.iterations + 1
    assert k_t[0] - built[1] == res.iterations


def test_stacked_operator_blocks_and_adjoint():
    grid = Grid(16)
    rm = build_ray_matrix(place_sensors(12), grid)
    rng = Seed(8).rng()
    m = rm.matrix.shape[0]
    k, _ = solve._stacked_operator(rm.matrix, grid.side)
    v = rng.random(grid.n_pixels)
    v2 = v.reshape(grid.side, grid.side)
    assert np.array_equal(k[m:] @ v, np.concatenate([np.diff(v2, axis=1).ravel(),
                                                     np.diff(v2, axis=0).ravel()]))
    stack = make_stack(grid, [20] * 5, 40)
    for data in (rm.matrix, rm.matrix.toarray(), stack.csr_pair[1]):
        k, kt = solve._stacked_operator(data, grid.side)
        assert abs(k[:data.shape[0]] - data).max() == 0.0
        x = rng.standard_normal(grid.n_pixels)
        z = rng.standard_normal(k.shape[0])
        assert float((k @ x) @ z) == pytest.approx(float(x @ (kt @ z)), rel=1e-12, abs=1e-12)


def test_fista_two_products_per_iteration(monkeypatch):
    grid = Grid(16)
    rm = build_ray_matrix(place_sensors(12), grid)
    y = forward(rm, gen_shapes(ShapesConfig(1, 16, seed=Seed(31)))[0])
    opts = SolveOptions(max_iters=300)
    ref, restarts = reference_fista(rm.matrix, y.values, grid, opts)
    assert restarts >= 1
    counters = _count_products(monkeypatch)
    spent = _count_power_norm_products(monkeypatch, counters)
    res = _fista(solve._fista_operator(rm.matrix), y.values, grid, opts)
    assert_same_solve(res, ref)
    a, a_t = counters
    assert spent[0] > 0 and len(counters) == 2
    # power_norm applies A and A^T in pairs; the loop applies A once for the
    # start's A x, then A and A^T once each per iteration and once more each
    # per restart
    loop_a, loop_a_t = a[0] - spent[0] // 2, a_t[0] - spent[0] // 2
    assert loop_a == loop_a_t + 1
    assert res.iterations <= loop_a_t <= res.iterations + restarts


def test_recombination_operator_built_once_per_stack(monkeypatch):
    grid = Grid(12)
    stack = make_stack(grid, [30] * 6, 260)
    q = stack.coeffs(Image(grid, Seed(26).rng().uniform(0, 1, grid.n_pixels)))
    builds = []
    build = solve._stacked_operator

    def counted_build(data_mat, side):
        builds.append(data_mat.shape)
        return build(data_mat, side)

    monkeypatch.setattr(solve, "_stacked_operator", counted_build)
    counters = _count_products(monkeypatch)
    spent = _count_power_norm_products(monkeypatch, counters)
    opts = SolveOptions(tv_weight=0.03, max_iters=5)
    first = solve_reformulated(stack, q, opts)
    assert builds == [(stack.total_k, grid.n_pixels)] and spent[0] > 0
    assert "tv_operator" in vars(stack)
    after_first = spent[0]
    for _ in range(2):
        again = solve_reformulated(stack, q, opts)
        assert np.array_equal(again.image.values, first.image.values)
        assert np.array_equal(again.objectives, first.objectives)
    # no second K build, no second power iteration, no new bound operator
    assert len(builds) == 1 and spent[0] == after_first and len(counters) == 2


def test_ray_matrix_solver_operators_built_once(monkeypatch):
    grid = Grid(12)
    rm = build_ray_matrix(place_sensors(10), grid)
    y = forward(rm, gen_shapes(ShapesConfig(1, 12, seed=Seed(32)))[0])
    erased = erase(y, 0.2, Seed(7))
    assert erased.mask.any()
    opts = SolveOptions(tv_weight=2e-4, max_iters=40)
    # a plain matrix builds its operators per call: the reference
    want_tv = tv_direct(rm.matrix, y.values, opts)
    want_ls = nnls(rm.matrix, y.values, opts, return_info=True)[1]
    builds = []
    build = solve._stacked_operator

    def counted_build(data_mat, side):
        builds.append(data_mat.shape)
        return build(data_mat, side)

    monkeypatch.setattr(solve, "_stacked_operator", counted_build)
    counters = _count_products(monkeypatch)
    spent = _count_power_norm_products(monkeypatch, counters)

    def solve_unmasked():
        return (tv_direct(rm, y, opts), nnls(rm, y.values, opts, return_info=True)[1],
                tv_direct(rm, y, SolveOptions(max_iters=40)))

    runs = [solve_unmasked()]
    first = spent[0]
    runs += [solve_unmasked(), solve_unmasked()]
    for got_tv, got_ls, got_w0 in runs:
        for got, want in ((got_tv, want_tv), (got_ls, want_ls)):
            assert np.array_equal(got.image.values, want.image.values)
            assert np.array_equal(got.objectives, want.objectives)
        assert np.array_equal(got_w0.image.values, got_ls.image.values)
    # A, A^T, K and K^T bound once, one K build and both power iterations,
    # all in the first call
    assert builds == [(rm.m, grid.n_pixels)] and len(counters) == 4 and spent[0] == first > 0
    assert "fista_operator" in vars(rm) and "tv_operator" in vars(rm)
    # erased rays are masked on the same operators: no build, no bound
    # operator, no power iteration
    for _ in range(2):
        tv_direct(rm, erased, opts)
        nnls(rm, erased, opts)
    assert len(builds) == 1 and len(counters) == 4 and spent[0] == first
    # a RayMatrix whose first solve is masked builds once too
    fresh = RayMatrix(rm.matrix, grid)
    tv_direct(fresh, erased, opts)
    assert len(builds) == 2 and len(counters) == 8 and spent[0] > first
    first = spent[0]
    tv_direct(fresh, erased, opts)
    nnls(fresh, erased, opts)
    assert len(builds) == 2 and len(counters) == 8 and spent[0] == first


def test_product_is_bitwise_matmul():
    rng = Seed(41).rng()
    rm = build_ray_matrix(place_sensors(12), Grid(16))
    a = rm.matrix.tocsr()
    wide = a.copy()
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    unsorted = a.copy()
    for lo, hi in zip(unsorted.indptr[:-1], unsorted.indptr[1:]):
        unsorted.indices[lo:hi] = unsorted.indices[lo:hi][::-1].copy()
        unsorted.data[lo:hi] = unsorted.data[lo:hi][::-1].copy()
    unsorted.has_sorted_indices = False
    empty = a[np.zeros(a.shape[0], dtype=bool)]
    assert a.indices.dtype == np.int32 and wide.indices.dtype == np.int64
    cases = [a, wide, unsorted, a.T, a.tocsc(), empty, empty.T, a.toarray()]
    for mat in cases:
        for v in (rng.standard_normal(mat.shape[1]), rng.standard_normal(2 * mat.shape[1])[::2]):
            got, want = solve._product(mat)(v), mat @ v
            assert got.dtype == want.dtype and np.array_equal(got, want)
        with pytest.raises(ValueError):
            solve._product(mat)(np.zeros(mat.shape[1] + 1))


def test_every_ray_erased_raises():
    grid = Grid(8)
    rm = build_ray_matrix(place_sensors(7), grid)
    y = erase(forward(rm, Image(grid, np.full(grid.n_pixels, 0.5))), 1.0, Seed(3))
    assert y.mask.all()
    for call in (lambda: nnls(rm, y), lambda: tv_direct(rm, y, SolveOptions(tv_weight=1e-3)),
                 lambda: tv_direct(rm, y)):
        with pytest.raises(SolverError, match=r"^operator is zero; no step size exists$"):
            call()
