"""``solvers`` workload: recombination and direct TV with no training.

At the acceptance geometry, recombine oracle coefficients at lambda=0.03 and
run direct TV (lambda=2e-4, with its internal NNLS warm start) on clean,
noisy and erased measurements. One operation is one image reconstruction;
one round is a pass over the test images: per image, one recombination and
three direct solves. Recombination stops after 25 to 600 iterations
depending on the image, so only whole passes time the same work.
"""

from __future__ import annotations

import numpy as np

import checks
import geometry
from harness import median, mean, spread_setups, timed_rounds
from meshtomo import core, data, estimate, mesh, solve

TEST_IMAGES = 8
RECOMBINE_OPTS = solve.SolveOptions(tv_weight=0.03, max_iters=600, tol=1e-9)
DIRECT_OPTS = solve.SolveOptions(tv_weight=2e-4, max_iters=600, tol=1e-9)
SETUP_REPEATS = 5


def _setup(root, tracer):
    rm = geometry.ray_matrix()
    bases = geometry.ident_stack(rm, tracer)
    test = geometry.test_images(TEST_IMAGES)
    meas = geometry.test_measurements(rm, test, root.derive(5))
    return rm, bases, mesh.StackedBasis(bases), test, meas


def run(state, tracer, seed, seconds):
    root = core.Seed(seed)

    def setup(i):
        if tracer is not None:
            tracer.counting = i == 0
        return _setup(root, tracer)

    first, later_setups, setup_times = spread_setups(setup, SETUP_REPEATS)
    rm, bases, stack, test, meas = first

    snr = {"recombine": [], **{c: [] for c in geometry.CONDITIONS}}

    def recombine(x):
        q = np.concatenate([estimate.oracle_coeffs(b, x) for b in bases])
        return solve.solve_reformulated(stack, q, RECOMBINE_OPTS)

    def direct(y):
        return solve.tv_direct(rm, y, DIRECT_OPTS)

    def scored(kind, key, first, x, fn, arg):
        res, _ = state.op(kind, fn, arg)
        if res is None:
            return
        s = data.output_snr(x, res.image)
        if state.check(kind, checks.check_recon, x.values, res.image.values, s) and first:
            snr[key].append(s)

    def one(r):
        first = r == 0
        if tracer is not None:
            tracer.counting = first
        for x, y in zip(test, meas):
            scored("recombine", "recombine", first, x, recombine, x)
            for cond in geometry.CONDITIONS:
                scored("direct", cond, first, x, direct, y[cond])

    rounds = timed_rounds(seconds, 1, one, later_setups)
    if tracer is not None:
        tracer.counting = False
    geometry.check_rays(state, "direct", rm, root)

    ops_per_round = len(test) * (1 + len(geometry.CONDITIONS))
    all_snr = [s for values in snr.values() for s in values]
    recombine_s = median(state.op_seconds.get("recombine", []))
    direct_s = median(state.op_seconds.get("direct", []))
    e2e = {"setup_s": median(setup_times), "ops_per_s": ops_per_round / median(rounds),
           "quality_db": mean(all_snr)}
    details = {"recombine_images_per_s": 1.0 / recombine_s if recombine_s else 0.0,
               "direct_images_per_s": 1.0 / direct_s if direct_s else 0.0,
               "snr_recombine_db": mean(snr["recombine"]),
               "snr_direct_db": mean(snr["clean"]),
               "snr_direct_noise_db": mean(snr["noise"]),
               "snr_direct_erase_db": mean(snr["erase"])}
    return e2e, details
