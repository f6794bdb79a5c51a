import json
import re
import tracemalloc

import numpy as np
import pytest

from meshtomo.core import FormatError, Grid, Image, Seed
from meshtomo.estimate import (Estimator, TrainConfig, _ridge_fit, build_oblique,
                               estimate_coeffs, load_estimator, oblique_coeffs,
                               oracle_coeffs, pooled_features, save_estimator,
                               train_ensemble, train_estimator)
from meshtomo.mesh import StackedBasis, mesh_with_k_triangles, rasterize
from meshtomo.solve import SolverError, minnorm_prefixes, nnls
from meshtomo.tomo import build_ray_matrix, forward, place_sensors


def find_identifiable(rm, grid, k, seed0, tries=200):
    """First mesh seed whose subspace is identifiable from the rays."""
    for s in range(seed0, seed0 + tries):
        basis = rasterize(mesh_with_k_triangles(k, Seed(s)), grid)
        try:
            return basis, build_oblique(rm, basis)
        except ValueError:
            continue
    raise RuntimeError("no identifiable mesh found")


def acceptance_obliques(rm, grid, count):
    """The first ``count`` identifiable meshes of the acceptance suite's mesh
    stream (K=50, ``Seed(7100)``), each with its oblique operator."""
    out, draw = [], 0
    while len(out) < count:
        basis = rasterize(mesh_with_k_triangles(50, Seed(7100).derive(draw)), grid)
        draw += 1
        try:
            out.append((basis, build_oblique(rm, basis)))
        except ValueError:
            continue
    return out


def random_images(grid, count, seed):
    rng = Seed(seed).rng()
    return [Image(grid, rng.uniform(0, 1, grid.n_pixels)) for _ in range(count)]


def test_oracle_coeffs_is_analysis():
    grid = Grid(10)
    basis = rasterize(mesh_with_k_triangles(9, Seed(1)), grid)
    x = Image(grid, Seed(2).rng().uniform(0, 1, grid.n_pixels))
    assert np.array_equal(oracle_coeffs(basis, x), basis.coeffs(x))


def test_build_oblique_toy_exact():
    # one ray seeing only the first cell, subspace = span of (1,1)/sqrt(2):
    # F must send y to (y, y) so that the measured cell is reproduced
    a = np.array([[1.0, 0.0]])
    b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    op = build_oblique(a, b)
    assert np.allclose(op.basis_matrix @ op.coeff_map, [[1.0], [1.0]], atol=1e-12)
    assert np.allclose(oblique_coeffs(op, [3.0]), [3.0 * np.sqrt(2.0)], atol=1e-12)


def test_build_oblique_subspace_consistency_and_idempotence():
    grid = Grid(16)
    rm = build_ray_matrix(place_sensors(25), grid)
    basis, op = find_identifiable(rm, grid, 8, 7000)
    f = op.basis_matrix @ op.coeff_map
    rng = Seed(3).rng()
    for _ in range(5):
        coeff = rng.standard_normal(basis.k)
        x = basis.synthesize(coeff)
        recon = f @ (rm.matrix @ x.values)
        assert np.linalg.norm(recon - x.values) <= 1e-8 * max(1.0, np.linalg.norm(x.values))
    p = f @ rm.matrix.toarray()
    assert np.allclose(p @ p, p, atol=1e-8)


def test_oblique_never_beats_orthogonal_projection():
    # F A x lies in the subspace; the projection is the L2-closest point there
    grid = Grid(16)
    rm = build_ray_matrix(place_sensors(25), grid)
    basis, op = find_identifiable(rm, grid, 10, 7300)
    f = op.basis_matrix @ op.coeff_map
    rng = Seed(4).rng()
    for _ in range(10):
        x = Image(grid, rng.uniform(0, 1, grid.n_pixels))
        proj_err = np.linalg.norm(basis.project(x).values - x.values)
        obl_err = np.linalg.norm(f @ (rm.matrix @ x.values) - x.values)
        assert obl_err >= proj_err - 1e-10


def test_build_oblique_rank_deficient_names_k():
    a = np.eye(3)
    b = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="K = 2"):
        build_oblique(a, b)


def test_build_oblique_unseen_direction_is_rank_zero():
    # the only basis direction is invisible to the rays
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(ValueError, match="rank deficient"):
        build_oblique(a, b)


def test_build_oblique_rejects_unseen_triangle_before_svd(monkeypatch):
    # a triangle holding only pixels outside the sensor disk gives a zero
    # column of A B; that alone proves rank < K, so no SVD is needed
    grid = Grid(16)
    rm = build_ray_matrix(place_sensors(25), grid)
    seen = np.asarray(abs(rm.matrix).sum(axis=0)).ravel() > 0
    for s in range(7900, 8100):
        basis = rasterize(mesh_with_k_triangles(12, Seed(s)), grid)
        unseen = [c for c in range(basis.k) if not seen[basis.assignment == c].any()]
        if unseen:
            break
    else:
        raise RuntimeError("no mesh with an unseen triangle found")

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(ValueError, match=re.escape(f"columns {unseen} of A B are zero")):
        build_oblique(rm, basis)


def test_build_oblique_verdicts_match_rank_on_acceptance_draws():
    # the acceptance geometry's mesh stream: 50 identifiable K=50 meshes
    # after 341 draws, each verdict the same as the rank of A B
    grid = Grid(32)
    rm = build_ray_matrix(place_sensors(25), grid)
    kept, draws = [], 0
    while len(kept) < 50:
        basis = rasterize(mesh_with_k_triangles(50, Seed(7100).derive(draws)), grid)
        sv = np.linalg.svd((rm.matrix @ basis.to_sparse()).toarray(), compute_uv=False)
        try:
            build_oblique(rm, basis)
            ok = True
        except ValueError:
            ok = False
        assert ok == (sv[-1] > sv[0] * 1e-10), draws
        if ok:
            kept.append(draws)
        draws += 1
    assert draws == 341


def test_oblique_operator_and_coeffs_match_dense_formula():
    # F = B (A B)^+ formed as an eager dense product, and B^T (F y) as the
    # coefficients: the kept map gives the same F bitwise and the same
    # coefficients, without forming F for them
    grid = Grid(32)
    rm = build_ray_matrix(place_sensors(25), grid)
    ys = [forward(rm, x) for x in random_images(grid, 3, 12)]
    for basis, op in acceptance_obliques(rm, grid, 5):
        assert op.coeff_map.shape == (basis.k, rm.matrix.shape[0])
        b = basis.to_sparse()
        u, s, vt = np.linalg.svd(np.asarray((rm.matrix @ b).todense()), full_matrices=False)
        f = np.asarray(b @ ((vt.T / s) @ u.T))
        for y in ys:
            ref = b.T @ (f @ y.values)
            assert np.linalg.norm(oblique_coeffs(op, y) - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(op.basis_matrix @ op.coeff_map, f)


def test_acceptance_oblique_operators_hold_under_10_mb():
    # dense N x M operators and N x K bases held about 143 MB for these 50
    grid = Grid(32)
    rm = build_ray_matrix(place_sensors(25), grid)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ops = [op for _, op in acceptance_obliques(rm, grid, 50)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ops) == 50
    assert held < 10e6, held


def test_build_oblique_consistency_failure_raises_solver_error(inflated_svd):
    grid = Grid(12)
    rm = build_ray_matrix(place_sensors(12), grid)
    basis = rasterize(mesh_with_k_triangles(6, Seed(7600)), grid)
    with pytest.raises(SolverError, match="oblique consistency check failed"):
        build_oblique(rm, basis)


def test_build_oblique_shape_mismatch():
    with pytest.raises(ValueError, match="columns"):
        build_oblique(np.ones((2, 3)), np.ones((4, 1)))


def test_oblique_coeffs_accepts_measurement():
    grid = Grid(12)
    rm = build_ray_matrix(place_sensors(12), grid)
    basis, op = find_identifiable(rm, grid, 6, 7600)
    x = Image(grid, Seed(5).rng().uniform(0, 1, grid.n_pixels))
    y = forward(rm, x)
    assert np.array_equal(oblique_coeffs(op, y), oblique_coeffs(op, y.values))
    with pytest.raises(ValueError, match="measurements"):
        oblique_coeffs(op, y.values[:-1])


def test_pooled_features_second_column_is_oracle():
    grid = Grid(12)
    basis = rasterize(mesh_with_k_triangles(9, Seed(6)), grid)
    x = Image(grid, Seed(7).rng().uniform(0, 1, grid.n_pixels))
    feats = pooled_features(basis, x.values)
    assert feats.shape == (basis.k, 5)
    assert np.allclose(feats[:, 1], oracle_coeffs(basis, x), atol=1e-12)
    assert feats[:, 2].sum() == pytest.approx(1.0)          # area fractions
    assert np.all((feats[:, 3] > 0) & (feats[:, 3] < 1))    # centroids inside
    assert np.all((feats[:, 4] > 0) & (feats[:, 4] < 1))


def test_zero_estimators_predict_zero():
    grid = Grid(8)
    basis = rasterize(mesh_with_k_triangles(5, Seed(8)), grid)
    x = Image(grid, np.full(grid.n_pixels, 0.7))
    za = Estimator("per-mesh-affine", np.zeros((basis.k, grid.n_pixels)), np.zeros(basis.k),
                   basis.fingerprint)
    zp = Estimator("shared-pooled", np.zeros(5), np.zeros(1))
    assert np.array_equal(estimate_coeffs(za, basis, x), np.zeros(basis.k))
    assert np.array_equal(estimate_coeffs(zp, basis, x), np.zeros(basis.k))


def test_estimator_validation_and_binding():
    grid = Grid(8)
    basis_a = rasterize(mesh_with_k_triangles(5, Seed(9)), grid)
    basis_b = rasterize(mesh_with_k_triangles(5, Seed(10)), grid)
    x = Image(grid, np.full(grid.n_pixels, 0.5))
    with pytest.raises(ValueError, match="kind"):
        Estimator("quadratic", np.zeros(5), np.zeros(1))
    est = Estimator("per-mesh-affine", np.zeros((basis_a.k, grid.n_pixels)),
                    np.zeros(basis_a.k), basis_a.fingerprint)
    with pytest.raises(ValueError, match="bound"):
        estimate_coeffs(est, basis_b, x)
    # a second call on the same basis meets its kept hash, and still rejects
    with pytest.raises(ValueError, match="bound"):
        estimate_coeffs(est, basis_b, x)
    with pytest.raises(ValueError, match="grid"):
        estimate_coeffs(est, basis_a, Image.zeros(Grid(9)))
    bad = Estimator("per-mesh-affine", np.zeros((3, grid.n_pixels)), np.zeros(3))
    if bad.weight.shape[0] != basis_a.k:
        with pytest.raises(ValueError, match="shape"):
            estimate_coeffs(bad, basis_a, x)


def test_train_config_validation():
    for kwargs in ({"epochs": 0}, {"batch_size": 0}, {"lr": 0.0},
                   {"validation_fraction": 1.0}, {"weight_decay": -1.0},
                   {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
                   {"validation_fraction": float("nan")},
                   {"validation_fraction": float("inf")}):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
    with pytest.raises(ValueError, match="non-empty"):
        train_estimator([], None, TrainConfig())
    grid = Grid(8)
    stack = StackedBasis([rasterize(mesh_with_k_triangles(5, Seed(11)), grid)])
    pair = (Image.zeros(grid), Image.zeros(grid))
    with pytest.raises(ValueError, match="train_ensemble"):
        train_estimator([pair], stack, TrainConfig(), "per-mesh-affine")
    with pytest.raises(ValueError, match="kind"):
        train_estimator([pair], stack.bases[0], TrainConfig(), "per-mesh-quadratic")


def test_per_mesh_affine_learns_gain_correction():
    # warm start is the truth at half gain, so the ideal map doubles the
    # warm start's subspace projection: the residual above the projection
    # anchor is exactly representable and training should drive it to ~zero
    grid = Grid(8)
    basis = rasterize(mesh_with_k_triangles(6, Seed(12)), grid)
    images = random_images(grid, 240, 13)
    dataset = [(x, Image(grid, 0.5 * x.values)) for x in images]
    cfg = TrainConfig(epochs=300, batch_size=32, lr=1e-2, seed=Seed(14))
    est = train_estimator(dataset, basis, cfg)
    hist = est.history
    assert hist.train_loss.shape == (2,)
    assert hist.val_loss.shape == (2,)
    target_var = np.var(np.stack([oracle_coeffs(basis, x) for x in images]))
    assert hist.val_loss[-1] <= 1e-3 * target_var
    assert hist.train_loss[-1] < hist.train_loss[0] / 100
    fresh = random_images(grid, 10, 15)
    errs = [np.linalg.norm(
        estimate_coeffs(est, basis, Image(grid, 0.5 * x.values))
        - oracle_coeffs(basis, x)) / np.linalg.norm(oracle_coeffs(basis, x))
        for x in fresh]
    assert max(errs) <= 0.05


def test_shared_pooled_learns_identity_map():
    grid = Grid(8)
    stack = StackedBasis([rasterize(mesh_with_k_triangles(k, Seed(20 + k)), grid)
                          for k in (5, 7)])
    images = random_images(grid, 150, 16)
    dataset = [(x, x) for x in images]
    cfg = TrainConfig(epochs=200, batch_size=64, lr=1e-2, seed=Seed(17))
    est = train_estimator(dataset, stack, cfg, kind="shared-pooled")
    assert est.weight.shape == (5,)
    assert est.fingerprint == ""  # reusable across meshes
    # transfers to a mesh never seen in training
    unseen = rasterize(mesh_with_k_triangles(6, Seed(18)), grid)
    x = random_images(grid, 1, 19)[0]
    q = estimate_coeffs(est, unseen, x)
    rel = np.linalg.norm(q - oracle_coeffs(unseen, x)) / np.linalg.norm(oracle_coeffs(unseen, x))
    assert rel <= 0.1


def test_training_is_deterministic():
    grid = Grid(8)
    basis = rasterize(mesh_with_k_triangles(5, Seed(30)), grid)
    dataset = [(x, Image(grid, 0.5 * x.values)) for x in random_images(grid, 60, 31)]
    cfg = TrainConfig(epochs=25, batch_size=16, lr=5e-3, seed=Seed(32))
    a = train_estimator(dataset, basis, cfg)
    b = train_estimator(dataset, basis, cfg)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.bias, b.bias)
    assert np.array_equal(a.history.train_loss, b.history.train_loss)


def reference_ridge(xmat, tmat, cfg):
    """Ridge fit on the seeded train samples by lstsq on [X_c; sqrt(lam) I] W = [T_c; 0].

    The split is drawn over the first axis; a 3-D sample's rows stay together.
    """
    n = xmat.shape[0]
    train = cfg.seed.rng().permutation(n)[int(round(cfg.validation_fraction * n)):]
    x, t = (a[train].reshape(-1, a.shape[-1]) for a in (xmat, tmat))
    xc, tc = x - x.mean(axis=0), t - t.mean(axis=0)
    lam = cfg.weight_decay * t.size
    aug_x = np.vstack([xc, np.sqrt(lam) * np.eye(x.shape[1])])
    aug_t = np.vstack([tc, np.zeros((x.shape[1], t.shape[1]))])
    wt = np.linalg.lstsq(aug_x, aug_t, rcond=None)[0]
    return wt.T, t.mean(axis=0) - x.mean(axis=0) @ wt


def test_ridge_fit_matches_lstsq_reference():
    grid = Grid(8)
    rng = Seed(33).rng()
    images = random_images(grid, 60, 34)
    # noisy half-gain warm starts: no map fits exactly, and 48 train rows
    # under 64 pixels leave the per-mesh fit underdetermined at lambda = 0
    dataset = [(x, Image(grid, 0.5 * x.values + 0.05 * rng.standard_normal(grid.n_pixels)))
               for x in images]
    basis = rasterize(mesh_with_k_triangles(5, Seed(36)), grid)
    xmat = np.stack([w.values for _, w in dataset])
    bt = basis.to_sparse().T.toarray()
    tres = np.stack([oracle_coeffs(basis, x) for x, _ in dataset]) - xmat @ bt.T
    stack = StackedBasis([rasterize(mesh_with_k_triangles(k, Seed(20 + k)), grid)
                          for k in (5, 7)])
    # the pooled fit splits over images: one (sum K, 5) sample per image
    pooled_x = np.stack([np.concatenate([pooled_features(b, w.values) for b in stack.bases])
                         for _, w in dataset])
    pooled_t = np.stack([np.concatenate([oracle_coeffs(b, x) for b in stack.bases])
                         for x, _ in dataset])[..., None]

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)

    for weight_decay in (0.0, 1e-3):
        cfg = TrainConfig(weight_decay=weight_decay, seed=Seed(35))
        est = train_estimator(dataset, basis, cfg)
        w_ref, b_ref = reference_ridge(xmat, tres, cfg)
        assert close(est.weight - bt, w_ref)
        assert close(est.bias, b_ref)
        assert est.history.train_loss[1] < est.history.train_loss[0]

        est = train_estimator(dataset, stack, cfg, kind="shared-pooled")
        w_ref, b_ref = reference_ridge(pooled_x, pooled_t, cfg)
        assert close(est.weight, w_ref.ravel())
        assert close(est.bias, b_ref)
        assert est.history.train_loss[1] < est.history.train_loss[0]

        # blocks fitted together on one split and one SVD: each is its own
        # ridge fit, with a penalty that scales with the block's width
        blocks = [tres, tres[:, :2], np.hstack([tres, tres])]
        for (w, b, history), block in zip(_ridge_fit(xmat, blocks, cfg), blocks):
            w_ref, b_ref = reference_ridge(xmat, block, cfg)
            assert close(w, w_ref)
            assert close(b, b_ref)
            assert history.train_loss[1] < history.train_loss[0]


def test_pooled_split_keeps_each_image_in_one_split():
    grid = Grid(8)
    stack = StackedBasis([rasterize(mesh_with_k_triangles(k, Seed(20 + k)), grid)
                          for k in (5, 7)])
    dataset = [(x, Image(grid, 0.5 * x.values)) for x in random_images(grid, 20, 37)]
    cfg = TrainConfig(validation_fraction=0.25, seed=Seed(38))
    val = set(cfg.seed.rng().permutation(len(dataset))[:5].tolist())

    def fit(changed):
        # the truths of the images in ``changed`` replaced by their negatives
        data = [(Image(grid, -x.values) if i in changed else x, warm)
                for i, (x, warm) in enumerate(dataset)]
        return train_estimator(data, stack, cfg, kind="shared-pooled")

    base = fit(set())
    # no row of a validation image enters the fit; its loss scores them
    held = fit(val)
    assert np.array_equal(held.weight, base.weight)
    assert np.array_equal(held.bias, base.bias)
    assert np.array_equal(held.history.train_loss, base.history.train_loss)
    assert held.history.val_loss[1] > base.history.val_loss[1]
    # every training image's rows do
    for i in sorted(set(range(len(dataset))) - val):
        assert not np.array_equal(fit({i}).weight, base.weight), i


def test_train_ensemble_per_mesh_and_deterministic(monkeypatch):
    grid = Grid(8)
    stack = StackedBasis([rasterize(mesh_with_k_triangles(k, Seed(40 + k)), grid)
                          for k in (4, 5, 6)])
    rng = Seed(43).rng()
    dataset = [(x, Image(grid, 0.5 * x.values + 0.05 * rng.standard_normal(grid.n_pixels)))
               for x in random_images(grid, 50, 41)]
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svd_calls.append(1) or svd(*a, **kw))
    cfg = TrainConfig(epochs=15, batch_size=16, seed=Seed(42))
    ests = train_ensemble(dataset, stack, cfg)
    assert len(svd_calls) == 1  # one split and one SVD for every mesh
    assert len(ests) == 3
    assert [e.fingerprint for e in ests] == [b.fingerprint for b in stack.bases]
    again = train_ensemble(dataset, stack, cfg)
    for e1, e2 in zip(ests, again):
        assert np.array_equal(e1.weight, e2.weight)

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)

    warm = Image(grid, 0.5 * random_images(grid, 1, 44)[0].values)
    for weight_decay in (0.0, 1e-3):
        cfg = TrainConfig(weight_decay=weight_decay, seed=Seed(42))
        ests = train_ensemble(dataset, stack, cfg)
        for est, basis in zip(ests, stack.bases):
            alone = train_estimator(dataset, basis, cfg)
            assert close(est.weight, alone.weight)
            assert close(est.bias, alone.bias)
        q = np.concatenate([estimate_coeffs(e, b, warm) for e, b in zip(ests, stack.bases)])
        if weight_decay == 0.0:
            # every map is B_l^T (I + R) for one pixel-space R, so the stacked
            # coefficients are those of one image; a positive weight decay
            # scales with K_l and leaves them only close to consistent
            minnorm_prefixes(stack, q, [3])


def test_fingerprint_stability_and_distinctness():
    grid = Grid(10)
    mesh = mesh_with_k_triangles(7, Seed(50))
    f1 = rasterize(mesh, grid).fingerprint
    f2 = rasterize(mesh, grid).fingerprint
    assert f1 == f2
    other_mesh = rasterize(mesh_with_k_triangles(7, Seed(51)), grid).fingerprint
    other_grid = rasterize(mesh, Grid(12)).fingerprint
    assert len({f1, other_mesh, other_grid}) == 3


def test_estimator_save_load_round_trip(tmp_path):
    grid = Grid(8)
    basis = rasterize(mesh_with_k_triangles(5, Seed(60)), grid)
    dataset = [(x, x) for x in random_images(grid, 40, 61)]
    est = train_estimator(dataset, basis, TrainConfig(epochs=10, seed=Seed(62)))
    path = tmp_path / "est.est"
    save_estimator(est, path)
    back = load_estimator(path)
    assert back.kind == est.kind
    assert back.fingerprint == est.fingerprint
    # parameters persist as little-endian float32
    assert np.array_equal(back.weight, est.weight.astype("<f4").astype(np.float64))
    assert np.array_equal(back.bias, est.bias.astype("<f4").astype(np.float64))
    zp = Estimator("shared-pooled", np.zeros(5), np.zeros(1))
    save_estimator(zp, tmp_path / "zp.est")
    back2 = load_estimator(tmp_path / "zp.est")
    assert back2.kind == "shared-pooled"
    assert np.array_equal(back2.weight, np.zeros(5))


def test_estimator_bytes_on_disk(tmp_path):
    affine = Estimator("per-mesh-affine", [[0.5, -1.0]], [2.0], "0123abcd")
    pooled = Estimator("shared-pooled", [1.0, 2.0, 3.0, 4.0, 5.0], [0.25])
    save_estimator(affine, tmp_path / "affine.est")
    save_estimator(pooled, tmp_path / "pooled.est")
    assert (tmp_path / "affine.est").read_bytes() == (
        b'{"bias_shape":[1],"fingerprint":"0123abcd","kind":"per-mesh-affine",'
        b'"weight_shape":[1,2]}\n'
        b"\x00\x00\x00?\x00\x00\x80\xbf\x00\x00\x00@")
    assert (tmp_path / "pooled.est").read_bytes() == (
        b'{"bias_shape":[1],"fingerprint":"","kind":"shared-pooled","weight_shape":[5]}\n'
        b"\x00\x00\x80?\x00\x00\x00@\x00\x00@@\x00\x00\x80@\x00\x00\xa0@\x00\x00\x80>")


def test_load_estimator_rejects_malformed(tmp_path):
    good = tmp_path / "good.est"
    save_estimator(Estimator("shared-pooled", np.zeros(5), np.zeros(1)), good)
    data = good.read_bytes()

    trunc = tmp_path / "trunc.est"
    trunc.write_bytes(data[:-4])
    with pytest.raises(FormatError, match="bytes"):
        load_estimator(trunc)

    noheader = tmp_path / "nohdr.est"
    noheader.write_bytes(data.split(b"\n", 1)[1])
    with pytest.raises(FormatError):
        load_estimator(noheader)

    badkind = tmp_path / "badkind.est"
    badkind.write_bytes(data.replace(b"shared-pooled", b"shared-nonlin"))
    with pytest.raises(FormatError, match="kind"):
        load_estimator(badkind)

    # well-framed files whose header or parameters do not make an estimator
    affine = tmp_path / "affine.est"
    basis = rasterize(mesh_with_k_triangles(3, Seed(63)), Grid(4))
    save_estimator(Estimator("per-mesh-affine", np.zeros((3, 16)), np.zeros(3),
                             basis.fingerprint), affine)
    cases = [(good, {}, 0, "finite"), (affine, {}, 5, "finite"),
             (good, {"fingerprint": 123}, None, "fingerprint"),
             (affine, {"weight_shape": [3 * 16]}, None, "weight"),
             (affine, {"weight_shape": [16, 3]}, None, "weight"),
             (good, {"weight_shape": [3], "bias_shape": [3]}, None, "weight"),
             (good, {"weight_shape": [4], "bias_shape": [2]}, None, "weight")]
    for i, (src, fields, nan_at, match) in enumerate(cases):
        header, payload = src.read_bytes().split(b"\n", 1)
        header = {**json.loads(header), **fields}
        if nan_at is not None:
            params = np.frombuffer(payload, dtype="<f4").copy()
            params[nan_at] = np.nan
            payload = params.tobytes()
        bad = tmp_path / f"bad{i}.est"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(FormatError, match=match):
            load_estimator(bad)


def test_warm_start_pipeline_beats_zero_estimator():
    # end-to-end sanity at miniature scale: nnls warm start -> trained coeffs
    grid = Grid(12)
    rm = build_ray_matrix(place_sensors(12), grid)
    basis = rasterize(mesh_with_k_triangles(6, Seed(70)), grid)
    images = random_images(grid, 60, 71)
    pairs = []
    for x in images:
        warm = nnls(rm, forward(rm, x))
        pairs.append((x, warm))
    cfg = TrainConfig(epochs=150, batch_size=16, lr=1e-2, seed=Seed(72))
    est = train_estimator(pairs, basis, cfg)
    x, warm = pairs[0]
    q_true = oracle_coeffs(basis, x)
    err_trained = np.linalg.norm(estimate_coeffs(est, basis, warm) - q_true)
    err_zero = np.linalg.norm(q_true)
    assert err_trained < 0.5 * err_zero


def test_load_estimator_rejects_non_object_header(tmp_path):
    good = tmp_path / "good.est"
    save_estimator(Estimator("shared-pooled", np.zeros(5), np.zeros(1)), good)
    bad = tmp_path / "five.est"
    bad.write_bytes(b"5\n" + good.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(FormatError, match="JSON object"):
        load_estimator(bad)


def test_load_estimator_rejects_non_integer_shapes(tmp_path):
    good = tmp_path / "good.est"
    save_estimator(Estimator("shared-pooled", np.zeros(5), np.zeros(1)), good)
    header, payload = good.read_bytes().split(b"\n", 1)
    for i, shape in enumerate((["a"], [1.5], [True], [-1], 5)):
        bad = tmp_path / f"bad{i}.est"
        head = header.decode().replace('"weight_shape":[5]', '"weight_shape":' + json.dumps(shape))
        assert head != header.decode()
        bad.write_bytes(head.encode() + b"\n" + payload)
        with pytest.raises(FormatError, match="weight_shape"):
            load_estimator(bad)
