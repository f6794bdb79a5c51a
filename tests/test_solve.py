import numpy as np
import pytest
from scipy.optimize import lsq_linear, minimize

from meshtomo.core import Grid, Image, Seed
from meshtomo.data import ShapesConfig, gen_shapes
from meshtomo.mesh import StackedBasis, mesh_with_k_triangles, rasterize
from meshtomo.solve import (SolveOptions, SolverError, _cgls, minnorm_solve, nnls,
                            power_norm, solve_reformulated, tv_direct)
from meshtomo.tomo import Measurement, build_ray_matrix, erase, forward, place_sensors


def tv_aniso(flat, side):
    m = flat.reshape(side, side)
    return np.abs(np.diff(m, axis=1)).sum() + np.abs(np.diff(m, axis=0)).sum()


def make_stack(grid, ks, seed0):
    return StackedBasis([rasterize(mesh_with_k_triangles(k, Seed(seed0 + i)), grid)
                         for i, k in enumerate(ks)])


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolveOptions(tol=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(box=(1.0, 0.0))
    with pytest.raises(ValueError):
        SolveOptions(tv_weight=-0.1)


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
    grid = Grid(8)
    rm = build_ray_matrix(place_sensors(8), grid)
    rng = Seed(12).rng()
    x = Image(grid, rng.uniform(0, 1, grid.n_pixels))
    y = erase(forward(rm, x), 0.4, Seed(13))
    keep = ~y.mask
    opts = SolveOptions(max_iters=800, tol=1e-11)
    dropped = nnls(rm, y, opts)
    reduced = nnls(rm.matrix[keep], y.values[keep], opts)
    assert np.allclose(dropped.values, reduced.values, atol=1e-8)
    fitted = nnls(rm, y, opts, drop_erased=False)
    assert not np.allclose(dropped.values, fitted.values, atol=1e-3)


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


def test_solve_reformulated_warm_start_override():
    grid = Grid(8)
    stack = make_stack(grid, [8], 50)
    q = stack.coeffs(Image(grid, Seed(5).rng().uniform(0, 1, grid.n_pixels)))
    x0 = Image(grid, np.full(grid.n_pixels, 0.5))
    res = solve_reformulated(stack, q, SolveOptions(max_iters=300, tol=1e-10), x0=x0)
    assert res.image.values.min() >= 0.0
    with pytest.raises(ValueError):
        solve_reformulated(stack, q, x0=Image.zeros(Grid(9)))


def test_stack_gram_fixes_constant_image():
    # G = B B^T is a sum of L orthogonal projectors that all keep the constant
    # image, so G 1 = L 1 and ||B|| = sqrt(L): the scale of the CGLS
    # least-squares stop
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
    # perturbed coefficients leave its range. CGLS stopped only by its
    # consistency test runs to its cap here and diverges far from the optimum.
    grid = Grid(16)
    stack = make_stack(grid, [40] * 12, 230)
    rng = Seed(21).rng()
    q = stack.coeffs(Image(grid, rng.uniform(0, 1, grid.n_pixels)))
    q = q + 0.05 * rng.standard_normal(q.size)
    bt = stack.to_sparse().toarray().T
    ref = np.linalg.lstsq(bt, q, rcond=None)[0]
    optimum = float(np.sum((bt @ ref - q) ** 2))
    assert optimum > 1e-4 * float(q @ q)                # inconsistent
    res = solve_reformulated(stack, q, SolveOptions(box=None, tv_weight=0.0, max_iters=1))
    assert res.objectives[0] == pytest.approx(optimum, rel=1e-8)
    x, rel, reason = _cgls(stack.to_sparse(), q, 1e-8, 4 * stack.total_k + 100,
                           np.sqrt(len(stack.bases)))
    assert reason == "least_squares"
    assert rel == pytest.approx(np.sqrt(optimum) / np.linalg.norm(q), rel=1e-8)
    assert np.allclose(x, ref, atol=1e-6)


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
            # the trace starts at the warm start; CGLS reaches it to its tolerance
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
