"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
(without -s they still appear for failing criteria). Expensive shared inputs
(ray matrix, image sets, warm starts, the trained ensemble) live in session
fixtures; every fixture records how long it took, and each criterion's
runtime assertion charges its own body time plus the fixtures that criterion
is responsible for (listed at the assertion), so shared work is counted
exactly once and never double-billed.

Method-level protocol used by criteria 7-9: every reconstruction method
(direct TV, oracle recombine, learned recombine) gets ONE TV weight, chosen
by grid search on the 5 held-out images with clean measurements, and keeps it
unchanged under corruption — mirroring a deployed pipeline that cannot
re-tune per condition. Corruption seeds are shared between methods.
"""

import math
import time

import numpy as np
import pytest

from meshtomo.core import Grid, Image, Seed
from meshtomo.data import ShapesConfig, gen_shapes, input_snr, output_snr
from meshtomo.estimate import (TrainConfig, build_oblique, estimate_coeffs,
                               oblique_coeffs, oracle_coeffs, train_ensemble)
from meshtomo.kernel import (convolution_consistency, isotropy_check,
                             mc_kernel_sweep, profile_half_width)
from meshtomo.mesh import (StackedBasis, delaunay_triangulate,
                           delaunay_violations, gaussian_subspace_projector,
                           mesh_with_k_triangles, rasterize)
from meshtomo.solve import SolveOptions, nnls, solve_reformulated, tv_direct
from meshtomo.tomo import (add_gaussian_noise, build_ray_matrix, erase,
                           forward, place_sensors)

SIDE = 32
GRID = Grid(SIDE)
N_SENSORS = 25
N_MESHES = 50          # learned-ensemble stack (criteria 8/9)
MESH_K = 50
WARM_OPTS = SolveOptions(max_iters=300, tol=1e-9)
RECON_ITERS = 600
DIRECT_GRID = (3e-5, 1e-4, 2e-4, 3e-4, 5e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1)
RECOMBINE_GRID = (0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5)
# Training warm starts cycle through measurement SNRs (None = clean) so the
# learned map stays useful on corrupted data; test-time inputs stay clean
# for the clean condition.
TRAIN_SNR_MIX = (20.0, 10.0)
TRAIN_CFG = dict(epochs=500, batch_size=32, lr=1e-3, weight_decay=1.5e-4)

pytestmark = pytest.mark.slow


def _verdict(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def _recon_opts(lam):
    return SolveOptions(tv_weight=lam, max_iters=RECON_ITERS, tol=1e-9)


def _pick_lambda(grid_of_lams, score):
    best, best_lam = -math.inf, None
    for lam in grid_of_lams:
        s = score(lam)
        if s > best:
            best, best_lam = s, lam
    return best_lam, best


# ---------------------------------------------------------------------------
# session fixtures (each records its wall-clock cost in "seconds")

@pytest.fixture(scope="session")
def ray_matrix():
    t0 = time.monotonic()
    rm = build_ray_matrix(place_sensors(N_SENSORS), GRID)
    return {"rm": rm, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def image_sets(ray_matrix):
    t0 = time.monotonic()
    rm = ray_matrix["rm"]
    sets = {
        "train": gen_shapes(ShapesConfig(500, SIDE, seed=Seed(1000))),
        "test": gen_shapes(ShapesConfig(50, SIDE, seed=Seed(2000))),
        "held": gen_shapes(ShapesConfig(5, SIDE, seed=Seed(3000))),
    }
    for name in ("train", "test", "held"):
        sets[name + "_y"] = [forward(rm, x) for x in sets[name]]
    sets["seconds"] = time.monotonic() - t0
    return sets


@pytest.fixture(scope="session")
def ident_stack(ray_matrix):
    """N_MESHES random K=MESH_K meshes whose subspaces are identifiable.

    Pixels outside the sensor disk have all-zero ray columns, so meshes with
    a triangle wholly outside it are rank-deficient; rejection-sample the
    seed stream, keeping meshes for which the oblique operator exists.
    """
    t0 = time.monotonic()
    rm = ray_matrix["rm"]
    bases, obliques, s = [], [], 0
    while len(bases) < N_MESHES:
        basis = rasterize(mesh_with_k_triangles(MESH_K, Seed(7100).derive(s)), GRID)
        s += 1
        try:
            obliques.append(build_oblique(rm, basis))
        except ValueError:
            continue
        bases.append(basis)
    return {"bases": bases, "obliques": obliques,
            "stack": StackedBasis(bases), "draws": s,
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def clean_warms(ray_matrix, image_sets):
    t0 = time.monotonic()
    rm = ray_matrix["rm"]
    out = {
        "test": [nnls(rm, y, WARM_OPTS) for y in image_sets["test_y"]],
        "held": [nnls(rm, y, WARM_OPTS) for y in image_sets["held_y"]],
    }
    out["seconds"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="session")
def corrupted(ray_matrix, image_sets):
    """Test measurements under the two corruption conditions, same seeds for
    every method: per-image branch Seed(9000).derive(i), noise at .derive(0),
    erasures at .derive(1)."""
    t0 = time.monotonic()
    rm = ray_matrix["rm"]
    noise_y = [add_gaussian_noise(y, 10.0, Seed(9000).derive(i).derive(0))
               for i, y in enumerate(image_sets["test_y"])]
    erase_y = [erase(y, 1.0 / 8.0, Seed(9000).derive(i).derive(1))
               for i, y in enumerate(image_sets["test_y"])]
    return {"noise_y": noise_y, "erase_y": erase_y,
            "noise_warm": [nnls(rm, y, WARM_OPTS) for y in noise_y],
            "erase_warm": [nnls(rm, y, WARM_OPTS) for y in erase_y],
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def direct_baseline(ray_matrix, image_sets):
    """Fixed-lambda direct TV: lambda chosen once on clean held-out images."""
    t0 = time.monotonic()
    rm = ray_matrix["rm"]

    def held_score(lam):
        opts = _recon_opts(lam)
        return np.mean([output_snr(x, tv_direct(rm, y, opts).image)
                        for x, y in zip(image_sets["held"], image_sets["held_y"])])

    lam_d, _ = _pick_lambda(DIRECT_GRID, held_score)
    opts = _recon_opts(lam_d)
    d_clean = float(np.mean([output_snr(x, tv_direct(rm, y, opts).image)
                             for x, y in zip(image_sets["test"], image_sets["test_y"])]))
    return {"lam_d": lam_d, "d_clean": d_clean,
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def direct_corrupted(ray_matrix, image_sets, corrupted, direct_baseline):
    """Direct TV under both corruptions at the same fixed lambda."""
    t0 = time.monotonic()
    rm = ray_matrix["rm"]
    opts = _recon_opts(direct_baseline["lam_d"])

    def mean_snr(measurements):
        return float(np.mean([output_snr(x, tv_direct(rm, y, opts).image)
                              for x, y in zip(image_sets["test"], measurements)]))

    return {"d_noise": mean_snr(corrupted["noise_y"]),
            "d_erase": mean_snr(corrupted["erase_y"]),
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def learned(ray_matrix, image_sets, ident_stack, clean_warms):
    """Noise-augmented ensemble training + fixed-lambda selection + clean eval."""
    rm = ray_matrix["rm"]
    bases = ident_stack["bases"]
    stack = ident_stack["stack"]

    t0 = time.monotonic()
    train_warm = []
    for i, y in enumerate(image_sets["train_y"]):
        snr = TRAIN_SNR_MIX[i % len(TRAIN_SNR_MIX)]
        yy = y if snr is None else add_gaussian_noise(y, snr, Seed(8000).derive(i))
        train_warm.append(nnls(rm, yy, WARM_OPTS))
    dataset = list(zip(image_sets["train"], train_warm))
    ests = train_ensemble(dataset, stack, TrainConfig(seed=Seed(4000), **TRAIN_CFG))
    train_seconds = time.monotonic() - t0

    def q_of(warm):
        return np.concatenate([estimate_coeffs(e, b, warm)
                               for e, b in zip(ests, bases)])

    t1 = time.monotonic()
    held_q = [q_of(w) for w in clean_warms["held"]]

    def held_score(lam):
        opts = _recon_opts(lam)
        return np.mean([output_snr(x, solve_reformulated(stack, q, opts).image)
                        for x, q in zip(image_sets["held"], held_q)])

    lam_l, _ = _pick_lambda(RECOMBINE_GRID, held_score)
    select_seconds = time.monotonic() - t1

    t2 = time.monotonic()
    opts = _recon_opts(lam_l)
    l_clean = float(np.mean(
        [output_snr(x, solve_reformulated(stack, q_of(w), opts).image)
         for x, w in zip(image_sets["test"], clean_warms["test"])]))
    clean_eval_seconds = time.monotonic() - t2

    return {"ests": ests, "q_of": q_of, "lam_l": lam_l, "l_clean": l_clean,
            "seconds": train_seconds + select_seconds + clean_eval_seconds}


# ---------------------------------------------------------------------------
# criterion 1: Delaunay geometry + rasterization partition

def _incircle_violations(mesh, tol=1e-9):
    """Independent empty-circumcircle count via the lifted 3x3 determinant,
    vectorized over all (triangle, point) pairs."""
    pts = mesh.vertices
    tri = mesh.triangles
    px, py = pts[:, 0], pts[:, 1]
    a, b, c = (pts[tri[:, i]] for i in range(3))
    orient = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
              - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    sign = np.where(orient > 0, 1.0, -1.0)[:, None]

    def lifted(v):
        dx = v[:, 0][:, None] - px[None, :]
        dy = v[:, 1][:, None] - py[None, :]
        return dx, dy, dx * dx + dy * dy

    ax, ay, az = lifted(a)
    bx, by, bz = lifted(b)
    cx, cy, cz = lifted(c)
    det = (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx)
           + az * (bx * cy - by * cx))
    own = (tri[:, 0][:, None] == np.arange(len(pts))[None, :])
    for i in (1, 2):
        own |= tri[:, i][:, None] == np.arange(len(pts))[None, :]
    return int(((sign * det > tol) & ~own).sum())


def test_criterion_1_geometry():
    t0 = time.monotonic()
    rng_sets = [Seed(101).derive(t).rng().uniform(0.0, 1.0, (30, 2))
                for t in range(100)]
    own_violations = pkg_violations = 0
    partition_ok = True
    for pts in rng_sets:
        mesh = delaunay_triangulate(pts)
        pkg_violations += delaunay_violations(mesh, tol=1e-9)
        own_violations += _incircle_violations(mesh, tol=1e-9)
        basis = rasterize(mesh, GRID)
        assigned = np.bincount(basis.assignment, minlength=basis.k)
        partition_ok &= (basis.assignment.shape == (GRID.n_pixels,)
                         and basis.assignment.min() >= 0
                         and basis.assignment.max() < basis.k
                         and int(assigned.sum()) == GRID.n_pixels
                         and np.array_equal(assigned, basis.counts))
    elapsed = time.monotonic() - t0
    ok = (own_violations == 0 and pkg_violations == 0
          and partition_ok and elapsed < 10.0)
    _verdict(1, ok, f"0 circumcircle violations required: package {pkg_violations}, "
                    f"independent oracle {own_violations}; partition {partition_ok}; "
                    f"{elapsed:.1f}s (<10s)")
    assert pkg_violations == 0
    assert own_violations == 0
    assert partition_ok
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: projector algebra

def test_criterion_2_projector():
    t0 = time.monotonic()
    worst = {"idem": 0.0, "adjoint": 0.0, "parseval": 0.0, "const": 0.0}
    for t in range(100):
        k = 5 + (t % 46)
        basis = rasterize(mesh_with_k_triangles(k, Seed(202).derive(t)), GRID)
        rng = Seed(203).derive(t).rng()
        x = rng.uniform(0.0, 1.0, GRID.n_pixels)
        z = rng.uniform(0.0, 1.0, GRID.n_pixels)
        b = basis.to_sparse()

        def proj(v):
            return b @ (b.T @ v)

        px = proj(x)
        worst["idem"] = max(worst["idem"], float(np.abs(proj(px) - px).max()))
        worst["adjoint"] = max(worst["adjoint"],
                               abs(float(px @ z) - float(x @ proj(z))) / (x @ z))
        q = b.T @ x
        worst["parseval"] = max(worst["parseval"],
                                abs(float(q @ q) - float(px @ px)) / float(q @ q))
        ones = np.ones(GRID.n_pixels)
        worst["const"] = max(worst["const"], float(np.abs(proj(ones) - ones).max()))
    elapsed = time.monotonic() - t0
    ok = all(v <= 1e-10 for v in worst.values()) and elapsed < 10.0
    _verdict(2, ok, "worst deviations (tol 1e-10): " +
             ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) +
             f"; {elapsed:.1f}s (<10s)")
    for name, v in worst.items():
        assert v <= 1e-10, name
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 3: random-subspace energy ratio

def test_criterion_3_energy_ratio():
    t0 = time.monotonic()
    n, k, draws = 16, 4, 2000
    ratios = np.empty(draws)
    for t in range(draws):
        p = gaussian_subspace_projector(n, k, Seed(303).derive(t))
        x = Seed(304).derive(t).rng().standard_normal(n)
        ratios[t] = (x @ p @ x) / (x @ x)
    mean = float(ratios.mean())
    se = float(ratios.std(ddof=1) / math.sqrt(draws))
    elapsed = time.monotonic() - t0
    ok = abs(mean - k / n) <= 3 * se and elapsed < 30.0
    _verdict(3, ok, f"mean energy ratio {mean:.4f} vs {k / n} "
                    f"(3 SE = {3 * se:.4f}); {elapsed:.1f}s (<30s)")
    assert abs(mean - k / n) <= 3 * se
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 4: ray matrix rows

def test_criterion_4_ray_matrix(ray_matrix):
    t0 = time.monotonic()
    rm = ray_matrix["rm"]
    assert rm.m == 300, "25 sensors must give exactly 300 unordered pairs"
    sums = np.asarray(rm.matrix.sum(axis=1)).ravel()
    row_sum_dev = float(np.abs(sums - 1.0).max())
    pos = place_sensors(N_SENSORS).positions
    rows = Seed(404).rng().choice(rm.m, 50, replace=False)
    samples = 100_000
    tmid = (np.arange(samples) + 0.5) / samples
    worst_row_dev = 0.0
    for r in rows:
        i, j = rm.pairs[r]
        x = pos[i, 0] + tmid * (pos[j, 0] - pos[i, 0])
        y = pos[i, 1] + tmid * (pos[j, 1] - pos[i, 1])
        jj = np.clip(np.floor(x * SIDE).astype(int), 0, SIDE - 1)
        ii = np.clip(np.floor(y * SIDE).astype(int), 0, SIDE - 1)
        oracle = np.bincount(ii * SIDE + jj, minlength=GRID.n_pixels) / samples
        row = rm.matrix[int(r)].toarray().ravel()
        worst_row_dev = max(worst_row_dev, float(np.abs(row - oracle).max()))
    elapsed = time.monotonic() - t0 + ray_matrix["seconds"]
    ok = row_sum_dev <= 1e-9 and worst_row_dev <= 1e-3 and elapsed < 60.0
    _verdict(4, ok, f"300 rows; row-sum dev {row_sum_dev:.1e} (tol 1e-9); "
                    f"worst of 50 rows vs 1e5-sample oracle {worst_row_dev:.1e} "
                    f"(tol 1e-3); {elapsed:.1f}s (<60s incl. matrix build)")
    assert row_sum_dev <= 1e-9
    assert worst_row_dev <= 1e-3
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 5: kernel Monte Carlo sweep

def test_criterion_5_kernel():
    t0 = time.monotonic()
    vals = np.zeros(GRID.n_pixels)
    vals[GRID.pixel_index(16, 16)] = 1.0
    point = Image(GRID, vals)
    k_values, lam_values, trials = (10, 20, 40), (1, 3, 8), 2000
    sweep = mc_kernel_sweep(point, k_values, lam_values, trials, Seed(905))

    hw = {cell: profile_half_width(est) for cell, est in sweep.items()}
    violations = 0
    for lam in lam_values:
        for a, b in zip(k_values, k_values[1:]):
            violations += hw[(b, lam)] > hw[(a, lam)] + 1e-9
    for k in k_values:
        for a, b in zip(lam_values, lam_values[1:]):
            violations += hw[(k, b)] > hw[(k, a)] + 1e-9

    # isotropy: asymptotic claim — checked where the kernel is wide enough
    # for sector statistics (K >= 20 cells with a defined CV)
    cvs = {}
    for (k, lam), est in sweep.items():
        if k < 20:
            continue
        rep = isotropy_check(est)
        if not math.isnan(rep.angular_cv):
            cvs[(k, lam)] = rep.angular_cv
    iso_ok = bool(cvs) and all(cv <= 0.15 for cv in cvs.values())

    multi_vals = np.zeros(GRID.n_pixels)
    for (i, j), a in (((16, 16), 1.0), ((14, 18), 0.7), ((18, 15), 0.5)):
        multi_vals[GRID.pixel_index(i, j)] = a
    conv = convolution_consistency(Image(GRID, multi_vals), [sweep[(20, 3)]],
                                   Seed(905), tolerance=0.1)
    elapsed = time.monotonic() - t0
    ok = (violations <= 1 and iso_ok and conv.central_deviation <= 0.1
          and elapsed < 600.0)
    cv_note = (f"max {max(cvs.values()):.3f} over {len(cvs)} defined cells"
               if cvs else "no defined cells")
    _verdict(5, ok, f"half-width violations {violations} (<=1 allowed); "
                    f"isotropy CV {cv_note} (tol 0.15); superposition central "
                    f"dev {conv.central_deviation:.3f} (tol 0.1); "
                    f"{elapsed:.0f}s (<600s)")
    assert violations <= 1
    assert iso_ok
    assert conv.central_deviation <= 0.1
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 6: oblique operator suite

def test_criterion_6_oblique(ray_matrix, image_sets, ident_stack):
    t0 = time.monotonic()
    rm = ray_matrix["rm"]
    a_dense = rm.matrix.toarray()
    bases = ident_stack["bases"][:5]
    obliques = ident_stack["obliques"][:5]

    worst_consistency = worst_idem = 0.0
    for basis, op in zip(bases, obliques):
        rng = Seed(606).rng()
        for _ in range(5):
            q = rng.uniform(-1.0, 1.0, basis.k)
            x = basis.synthesize(q)
            fax = op.operator @ (rm.matrix @ x.values)
            dev = float(np.linalg.norm(fax - x.values)) / max(1.0, float(np.linalg.norm(x.values)))
            worst_consistency = max(worst_consistency, dev)
        g = op.operator @ a_dense
        worst_idem = max(worst_idem, float(np.abs(g @ g - g).max()))

    per_image_obl = np.zeros(50)
    per_image_orth = np.zeros(50)
    for basis, op in zip(bases, obliques):
        b = basis.to_sparse()
        for idx, (x, y) in enumerate(zip(image_sets["test"], image_sets["test_y"])):
            obl = op.operator @ y.values
            orth = b @ (b.T @ x.values)
            per_image_obl[idx] += float(np.mean((obl - x.values) ** 2))
            per_image_orth[idx] += float(np.mean((orth - x.values) ** 2))
    frac = float(np.mean(per_image_obl >= per_image_orth))
    strict = float(per_image_obl.mean()) > float(per_image_orth.mean())
    elapsed = (time.monotonic() - t0 + image_sets["seconds"]
               + ident_stack["seconds"])
    ok = (worst_consistency <= 1e-8 and worst_idem <= 1e-8
          and frac >= 0.9 and strict and elapsed < 120.0)
    _verdict(6, ok, f"consistency {worst_consistency:.1e} (tol 1e-8); "
                    f"idempotence {worst_idem:.1e}; oblique MSE >= orthogonal "
                    f"on {frac:.0%} of images (need >=90%), strict on average "
                    f"{strict}; {elapsed:.0f}s (<120s incl. mesh fixtures)")
    assert worst_consistency <= 1e-8
    assert worst_idem <= 1e-8
    assert frac >= 0.9
    assert strict
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 7: oracle recombination beats direct TV by >= 3 dB

def test_criterion_7_oracle_recombination(image_sets, direct_baseline):
    t0 = time.monotonic()
    stack = StackedBasis([
        rasterize(mesh_with_k_triangles(MESH_K, Seed(7000).derive(m)), GRID)
        for m in range(10)])
    held_q = [stack.coeffs(x) for x in image_sets["held"]]

    def held_score(lam):
        opts = _recon_opts(lam)
        return np.mean([output_snr(x, solve_reformulated(stack, q, opts).image)
                        for x, q in zip(image_sets["held"], held_q)])

    lam_o, _ = _pick_lambda(RECOMBINE_GRID, held_score)
    opts = _recon_opts(lam_o)
    oracle_mean = float(np.mean(
        [output_snr(x, solve_reformulated(stack, stack.coeffs(x), opts).image)
         for x in image_sets["test"]]))
    d_clean = direct_baseline["d_clean"]
    gap = oracle_mean - d_clean
    elapsed = time.monotonic() - t0 + direct_baseline["seconds"]
    ok = gap >= 3.0 and elapsed < 600.0
    _verdict(7, ok, f"oracle recombine {oracle_mean:.2f} dB vs direct TV "
                    f"{d_clean:.2f} dB (lambda_o {lam_o}, lambda_d "
                    f"{direct_baseline['lam_d']}): gap {gap:.2f} dB (need >=3); "
                    f"{elapsed:.0f}s (<600s incl. direct baseline)")
    assert gap >= 3.0
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 8: learning suite

def test_criterion_8_learning(image_sets, ident_stack, clean_warms, learned,
                              direct_baseline):
    t0 = time.monotonic()
    ests = learned["ests"]
    bases = ident_stack["bases"]
    obliques = ident_stack["obliques"]

    mono_ok = True
    improved = True
    for est in ests:
        curve = est.history.train_loss
        running = np.minimum.accumulate(curve)
        mono_ok &= bool(np.all(np.diff(running) <= 0))
        improved &= bool(running[-1] < curve[0])

    wins = 0
    for basis, est, op in zip(bases, ests, obliques):
        learned_mse = np.mean([
            (estimate_coeffs(est, basis, w) - oracle_coeffs(basis, x)) ** 2
            for x, w in zip(image_sets["test"], clean_warms["test"])])
        oblique_mse = np.mean([
            (oblique_coeffs(op, y) - oracle_coeffs(basis, x)) ** 2
            for x, y in zip(image_sets["test"], image_sets["test_y"])])
        wins += learned_mse < oblique_mse
    frac = wins / len(bases)

    l_clean = learned["l_clean"]
    d_clean = direct_baseline["d_clean"]
    e2e_ok = l_clean > d_clean
    elapsed = (time.monotonic() - t0 + clean_warms["seconds"]
               + learned["seconds"])
    ok = mono_ok and improved and frac >= 0.7 and e2e_ok and elapsed < 900.0
    _verdict(8, ok, f"monotone running-min loss {mono_ok and improved}; "
                    f"learned MSE < oblique on {wins}/{len(bases)} meshes "
                    f"(need >=70%); end-to-end learned {l_clean:.2f} dB vs "
                    f"direct TV {d_clean:.2f} dB ({'PASS' if e2e_ok else 'FAIL'}); "
                    f"{elapsed:.0f}s (<900s incl. training)")
    assert mono_ok and improved
    assert frac >= 0.7
    assert elapsed < 900.0
    # Known-honest limitation at this scale: 1024 unknowns from 300 rays is
    # only 3.4x underdetermined, so a well-tuned direct TV baseline is very
    # strong; a closed-form ridge oracle bounds every affine coefficient
    # estimator below it (see the end-to-end numbers printed above).
    assert e2e_ok, (f"end-to-end learned reconstruction {l_clean:.2f} dB did "
                    f"not exceed the direct TV baseline {d_clean:.2f} dB")


# ---------------------------------------------------------------------------
# criterion 9: corruption robustness, fixed pipelines

def test_criterion_9_robustness(image_sets, ident_stack, corrupted, learned,
                                direct_baseline, direct_corrupted):
    t0 = time.monotonic()
    stack = ident_stack["stack"]
    opts = _recon_opts(learned["lam_l"])

    def mean_recombine(warms):
        return float(np.mean(
            [output_snr(x, solve_reformulated(stack, learned["q_of"](w), opts).image)
             for x, w in zip(image_sets["test"], warms)]))

    l_noise = mean_recombine(corrupted["noise_warm"])
    l_erase = mean_recombine(corrupted["erase_warm"])
    l_clean = learned["l_clean"]
    d_clean = direct_baseline["d_clean"]

    deg_direct_noise = d_clean - direct_corrupted["d_noise"]
    deg_direct_erase = d_clean - direct_corrupted["d_erase"]
    ratio_noise = (l_clean - l_noise) / deg_direct_noise
    ratio_erase = (l_clean - l_erase) / deg_direct_erase
    elapsed = (time.monotonic() - t0 + corrupted["seconds"]
               + direct_corrupted["seconds"])
    ok = ratio_noise < 0.5 and ratio_erase < 0.5 and elapsed < 900.0
    _verdict(9, ok, f"10 dB noise: learned {l_clean:.2f}->{l_noise:.2f} vs direct "
                    f"{d_clean:.2f}->{direct_corrupted['d_noise']:.2f}, ratio "
                    f"{ratio_noise:.3f}; erasures p=1/8: learned ->{l_erase:.2f} "
                    f"vs direct ->{direct_corrupted['d_erase']:.2f}, ratio "
                    f"{ratio_erase:.3f} (both must be <0.5); {elapsed:.0f}s (<900s)")
    assert deg_direct_noise > 0 and deg_direct_erase > 0
    assert ratio_noise < 0.5
    assert ratio_erase < 0.5
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# criterion 10: metric suite

def _grid_search_snr(x, xhat):
    """Brute-force affine-fit SNR: three zooming grid rounds over (a, b)."""
    xv, hv = x.values, xhat.values
    nx = np.linalg.norm(xv)
    a_lo, a_hi, b_lo, b_hi = -5.0, 5.0, -5.0, 5.0
    best = (math.inf, 0.0, 0.0)
    for _ in range(3):
        a_grid = np.linspace(a_lo, a_hi, 61)
        b_grid = np.linspace(b_lo, b_hi, 61)
        errs = xv[None, None, :] - a_grid[:, None, None] * hv[None, None, :] \
            - b_grid[None, :, None]
        norms = np.linalg.norm(errs, axis=2)
        ia, ib = np.unravel_index(np.argmin(norms), norms.shape)
        best = (float(norms[ia, ib]), float(a_grid[ia]), float(b_grid[ib]))
        da = a_grid[1] - a_grid[0]
        db = b_grid[1] - b_grid[0]
        a_lo, a_hi = best[1] - 2 * da, best[1] + 2 * da
        b_lo, b_hi = best[2] - 2 * db, best[2] + 2 * db
    return 20.0 * math.log10(nx / best[0])


def test_criterion_10_metrics(ray_matrix):
    t0 = time.monotonic()
    x = gen_shapes(ShapesConfig(1, SIDE, seed=Seed(610)))[0]

    affine = Image(GRID, 0.37 * x.values + 0.11)
    cap = output_snr(x, affine)

    rng = Seed(611).rng()
    noisy = Image(GRID, 0.8 * x.values + 0.05 + 0.1 * rng.standard_normal(GRID.n_pixels))
    closed = output_snr(x, noisy)
    brute = _grid_search_snr(x, noisy)

    y = forward(ray_matrix["rm"], x)
    yn = add_gaussian_noise(y, 10.0, Seed(6018))
    round_trip = input_snr(y.values, yn.values)
    elapsed = time.monotonic() - t0
    ok = (cap >= 299.999 and abs(closed - brute) <= 0.01
          and abs(round_trip - 10.0) <= 0.5 and elapsed < 10.0)
    _verdict(10, ok, f"affine cap {cap:.0f} dB; closed-form {closed:.4f} vs "
                     f"grid-search {brute:.4f} dB (tol 0.01); input SNR "
                     f"round-trip {round_trip:.3f} dB (10 +/- 0.5); "
                     f"{elapsed:.1f}s (<10s)")
    assert cap >= 299.999
    assert abs(closed - brute) <= 0.01
    assert abs(round_trip - 10.0) <= 0.5
    assert elapsed < 10.0
