"""``kernel`` workload: the Monte Carlo expected-kernel sweep.

``mc_kernel_sweep`` on a centre delta at 32x32 over K in {10, 20, 50} and L
in {1, 2, 4, 8}: each trial is mesh generation, rasterisation and a
consistent minimum-norm CGLS solve, with no rays and no TV. One operation
is one (K, L) cell; one round is the sweep over every K.

The workload's quality figure is the kernel's resolution in dB,
20 log10(grid side / mean half-mass radius in pixels) over the cells: a
wider kernel reads lower.
"""

from __future__ import annotations

import math

import numpy as np

import checks
from harness import median, mean, spread_setups, timed_rounds
from meshtomo import core, kernel

SIDE = 32
K_VALUES = (10, 20, 50)
L_VALUES = (1, 2, 4, 8)
TRIALS = 30
LINEARITY_TRIALS = 4
CENTRE = (16, 16)
OFFSET = (14, 18)
LINEARITY_K = 20
SETUP_REPEATS = 9
# The warm-up trials fill lazy caches; they do the same work on every seed.
WARMUP_SEED = core.Seed(9)


def _point(grid, *pixels):
    values = np.zeros(grid.n_pixels)
    for i, j in pixels:
        values[grid.pixel_index(i, j)] = 1.0
    return core.Image(grid, values)


def _setup():
    """Point inputs, plus one trial per K so lazy caches fill."""
    grid = core.Grid(SIDE)
    inputs = {"centre": _point(grid, CENTRE), "offset": _point(grid, OFFSET),
              "pair": _point(grid, CENTRE, OFFSET)}
    for k in K_VALUES:
        kernel.mc_expected_recon(inputs["centre"], k, L_VALUES[-1], 1, WARMUP_SEED)
    return grid, inputs


def run(state, tracer, seed, seconds):
    root = core.Seed(seed)
    sweep_seed = root.derive(7)

    def setup(i):
        if tracer is not None:
            tracer.counting = i == 0
        return _setup()

    (grid, inputs), later_setups, setup_times = spread_setups(setup, SETUP_REPEATS)
    centre = grid.pixel_index(*CENTRE)
    cells = len(K_VALUES) * len(L_VALUES)
    first_widths = {}  # half-mass radius per cell, from the first round

    def sweep(x, k):
        return kernel.mc_kernel_sweep(x, [k], L_VALUES, TRIALS, sweep_seed)

    def one(r):
        if tracer is not None:
            tracer.counting = r == 0
        widths = first_widths if r == 0 else {}
        for k in K_VALUES:
            res, _ = state.op("cell", sweep, inputs["centre"], k, weight=len(L_VALUES))
            if res is None:
                return
            for lam in L_VALUES:
                mean_image = res[(k, lam)].mean_image.values
                state.check("cell", checks.check_kernel_cell, mean_image, centre)
                widths[(k, lam)] = checks.half_mass_radius(mean_image, SIDE, centre)
        state.check("cell", checks.check_half_widths, widths, K_VALUES, L_VALUES, ops=cells)

    rounds = timed_rounds(seconds, 2, one, later_setups)
    if tracer is not None:
        tracer.counting = False

    # Superposition, cell by cell through mc_expected_recon: the pair's mean
    # reconstruction equals the sum of the single points'. It is exact for any
    # trial count, so a short run does.
    def cells_of(x):
        return {lam: kernel.mc_expected_recon(x, LINEARITY_K, lam, LINEARITY_TRIALS,
                                              sweep_seed).mean_image
                for lam in L_VALUES}

    parts = [state.op("linearity", cells_of, inputs[name], weight=len(L_VALUES))[0]
             for name in ("centre", "offset", "pair")]
    if all(p is not None for p in parts):
        for lam in L_VALUES:
            total = parts[0][lam].values + parts[1][lam].values
            state.check("linearity", checks.check_linearity, parts[2][lam].values, total)

    round_s = median(rounds)
    radius = mean(list(first_widths.values()))
    e2e = {"setup_s": median(setup_times), "ops_per_s": cells / round_s,
           "quality_db": 20.0 * math.log10(SIDE / radius) if radius else 0.0}
    details = {"kmc_trials_per_s": len(K_VALUES) * TRIALS / round_s}
    return e2e, details
