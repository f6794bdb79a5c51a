"""``learned`` workload: the paper's pipeline at the acceptance geometry.

Train the per-mesh-affine ensemble on noise-augmented NNLS warm starts, then
reconstruct test images from clean, 10 dB noisy and p=1/8 erased
measurements: NNLS warm start -> estimate_coeffs -> solve_reformulated.
One operation is one image reconstruction.
"""

from __future__ import annotations

import time

import numpy as np

import checks
import geometry
from harness import median, mean, spread_setups, timed_rounds
from meshtomo import core, data, estimate, mesh, solve, tomo

TRAIN_IMAGES = 60
TRAIN_SNR_MIX = (20.0, 10.0)
TRAIN_CFG = dict(epochs=20, batch_size=32, lr=1e-3, weight_decay=1.5e-4)
TEST_IMAGES = 3
# The acceptance suite's training seeds: phantoms, warm-start noise and Adam
# shuffles. With them drawn from the workload seed, the mean SNR over ten
# seeds spread by 0.063 of its median; fixed, by 0.0065. The seed varies the
# test noise and erasures.
TRAIN_PHANTOM_SEED = core.Seed(1000)
TRAIN_NOISE_SEED = core.Seed(8000)
TRAIN_ADAM_SEED = core.Seed(4000)
WARM_OPTS = solve.SolveOptions(max_iters=300, tol=1e-9)
RECOMBINE_OPTS = solve.SolveOptions(tv_weight=0.3, max_iters=600, tol=1e-9)
SETUP_REPEATS = 4


def _setup(root, tracer, train_seconds):
    rm = geometry.ray_matrix()
    bases = geometry.ident_stack(rm, tracer)
    train = data.gen_shapes(data.ShapesConfig(TRAIN_IMAGES, geometry.SIDE,
                                              seed=TRAIN_PHANTOM_SEED))
    test = geometry.test_images(TEST_IMAGES)
    meas = geometry.test_measurements(rm, test, root.derive(5))
    warms = []
    for j, x in enumerate(train):
        y = tomo.add_gaussian_noise(tomo.forward(rm, x), TRAIN_SNR_MIX[j % 2],
                                    TRAIN_NOISE_SEED.derive(j))
        warms.append(solve.nnls(rm, y, WARM_OPTS))
    stack = mesh.StackedBasis(bases)
    t0 = time.perf_counter()
    ests = estimate.train_ensemble(list(zip(train, warms)), stack,
                                   estimate.TrainConfig(seed=TRAIN_ADAM_SEED, **TRAIN_CFG))
    train_seconds.append(time.perf_counter() - t0)
    return rm, bases, stack, ests, test, meas


def run(state, tracer, seed, seconds):
    root = core.Seed(seed)
    train_seconds = []

    def setup(i):
        if tracer is not None:
            tracer.counting = i == 0
        return _setup(root, tracer, train_seconds)

    first, later_setups, setup_times = spread_setups(setup, SETUP_REPEATS)
    rm, bases, stack, ests, test, meas = first

    distinct = len(test) * len(geometry.CONDITIONS)
    snr = {c: [] for c in geometry.CONDITIONS}
    warm_snr = []

    def reconstruct(y):
        warm, _ = solve.nnls(rm, y, WARM_OPTS, return_info=True)
        q = np.concatenate([estimate.estimate_coeffs(e, b, warm) for e, b in zip(ests, bases)])
        return warm, solve.solve_reformulated(stack, q, RECOMBINE_OPTS)

    def one(r):
        if tracer is not None:
            tracer.counting = r < distinct
        i, c = divmod(r % distinct, len(geometry.CONDITIONS))
        cond = geometry.CONDITIONS[c]
        x = test[i]
        out, _ = state.op("recombine", reconstruct, meas[i][cond])
        if out is None:
            return
        warm, res = out
        s = data.output_snr(x, res.image)
        ok = state.check("recombine", checks.check_recon, x.values, res.image.values, s)
        if r < distinct and ok:
            snr[cond].append(s)
            warm_snr.append(data.output_snr(x, warm))

    timed_rounds(seconds, distinct, one, later_setups)
    if tracer is not None:
        tracer.counting = False
    # The ray matrix, training and the warm-start comparison vouch for every
    # reconstruction.
    geometry.check_rays(state, "recombine", rm, root)
    curves = [e.history.train_loss for e in ests]
    state.check("recombine", checks.check_loss_curves, curves, ops=state.attempted)
    all_snr = [s for c in geometry.CONDITIONS for s in snr[c]]
    state.check("recombine", checks.check_beats_warm, all_snr, warm_snr, ops=state.attempted)

    op_s = median(state.op_seconds.get("recombine", []))
    e2e = {"setup_s": median(setup_times), "ops_per_s": 1.0 / op_s if op_s else 0.0,
           "quality_db": mean(all_snr)}
    details = {"train_s": median(train_seconds),
               "recombine_images_per_s": e2e["ops_per_s"],
               "snr_recombine_db": mean(snr["clean"]),
               "snr_recombine_noise_db": mean(snr["noise"]),
               "snr_recombine_erase_db": mean(snr["erase"]),
               "warm_snr_db": mean(warm_snr)}
    return e2e, details
