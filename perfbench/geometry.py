"""Inputs shared by the ``learned`` and ``solvers`` workloads.

The acceptance geometry: a 32x32 grid, 25 sensors (300 rays) and 50
identifiable meshes of 50 triangles, drawn the way the acceptance suite's
``ident_stack`` fixture draws them (rejection-sample a seed stream, keep a
mesh when its oblique operator exists).
"""

from __future__ import annotations

import checks
from meshtomo import core, data, estimate, mesh, tomo

SIDE = 32
SENSORS = 25
MESHES = 50
MESH_K = 50
NOISE_SNR_DB = 10.0
ERASURE_P = 1.0 / 8.0
# The acceptance suite's mesh stream and evaluation phantoms. Keeping them
# fixed makes set-up do the same work (341 draws for 50 kept meshes) and mean
# SNRs compare across seeds; the seed varies the training set and every noise
# and erasure draw.
MESH_SEED = core.Seed(7100)
TEST_SEED = core.Seed(2000)
CONDITIONS = ("clean", "noise", "erase")


def ray_matrix():
    return tomo.build_ray_matrix(tomo.place_sensors(SENSORS), core.Grid(SIDE))


def ident_stack(rm, tracer=None):
    """MESHES identifiable K=MESH_K bases, drawn like the acceptance fixture."""
    grid = core.Grid(SIDE)
    bases, draws = [], 0
    while len(bases) < MESHES:
        basis = mesh.rasterize(mesh.mesh_with_k_triangles(MESH_K, MESH_SEED.derive(draws)),
                               grid)
        draws += 1
        try:
            estimate.build_oblique(rm, basis)
        except ValueError:
            continue
        bases.append(basis)
    if tracer is not None:
        tracer.count("estimate.ident_kept", len(bases))
    return bases


def test_measurements(rm, images, seed):
    """Clean, 10 dB noisy and p=1/8 erased measurements of each test image."""
    out = []
    for i, x in enumerate(images):
        y = tomo.forward(rm, x)
        out.append({
            "clean": y,
            "noise": tomo.add_gaussian_noise(y, NOISE_SNR_DB, seed.derive(i).derive(0)),
            "erase": tomo.erase(y, ERASURE_P, seed.derive(i).derive(1)),
        })
    return out


def test_images(count):
    return data.gen_shapes(data.ShapesConfig(count, SIDE, seed=TEST_SEED))


def check_rays(state, kind, rm, root):
    """Check 20 seed-chosen ray-matrix rows; a failure fails every operation."""
    pos = tomo.place_sensors(SENSORS).positions
    rows = root.derive(8).rng().choice(rm.m, 20, replace=False)
    state.check(kind, checks.check_ray_matrix, rm.matrix, pos, rm.pairs, SIDE, rows,
                ops=state.attempted)
