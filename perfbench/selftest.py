"""Self-test of the benchmark's checks: known-wrong answers must fail.

    python3 perfbench/selftest.py

Each case feeds a check a correct answer, which must pass, and a wrong one,
which must be reported as a failed operation by the same accounting the
workloads use. Exits 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

import run

run._import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import cliwalk  # noqa: E402
from harness import Run  # noqa: E402
from meshtomo import cli, core, data, tomo  # noqa: E402

RESULTS = []


def case(name, good, bad, ops=1):
    """``good`` and ``bad`` each run checks on one fresh Run."""
    ok_state, bad_state = Run(), Run()
    good(ok_state)
    bad(bad_state)
    report(name, ok_state, bad_state, ops)


def report(name, ok_state, bad_state, ops=1):
    passed = (ok_state.failed == 0 and ok_state.correct
              and bad_state.failed == ops and not bad_state.correct)
    RESULTS.append(passed)
    detail = bad_state.unexpected[0] if bad_state.unexpected else "not reported"
    print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")


def recon_cases(x, xhat):
    reported = data.output_snr(core.Image(x.grid, x.values), core.Image(x.grid, xhat))
    good = lambda s: s.check("recon", checks.check_recon, x.values, xhat, reported)
    shifted = np.roll(xhat.reshape(x.grid.side, -1), 3, axis=1).ravel()
    case("spatially shifted reconstruction keeps the stale SNR", good,
         lambda s: s.check("recon", checks.check_recon, x.values, shifted, reported))
    case("reconstruction offset out of the [0, 1] box", good,
         lambda s: s.check("recon", checks.check_recon, x.values, xhat + 0.5,
                           data.output_snr(x, core.Image(x.grid, xhat + 0.5))))
    case("output SNR off by 1e-6 dB", good,
         lambda s: s.check("recon", checks.check_recon, x.values, xhat, reported + 1e-6))


def ray_cases():
    grid = core.Grid(16)
    sensors = tomo.place_sensors(9)
    rm = tomo.build_ray_matrix(sensors, grid)
    rows = range(rm.m)
    good = lambda s: s.check("ray", checks.check_ray_matrix, rm.matrix, sensors.positions,
                             rm.pairs, grid.side, rows)
    bent = rm.matrix.tolil(copy=True)
    row = bent[5].toarray().ravel()
    nz = np.nonzero(row)[0]
    bent[5, nz[0]], bent[5, nz[1]] = row[nz[1]], row[nz[0]]
    case("ray-matrix row with two pixel weights swapped", good,
         lambda s: s.check("ray", checks.check_ray_matrix, bent.tocsr(), sensors.positions,
                           rm.pairs, grid.side, rows))


def training_cases():
    falling = [np.array([1.0, 0.8, 0.9, 0.5]), np.array([2.0, 1.0, 1.0, 0.9])]
    stuck = falling + [np.array([1.0, 1.2, 1.1, 1.0])]
    case("loss curve that never falls below its start",
         lambda s: s.check("train", checks.check_loss_curves, falling),
         lambda s: s.check("train", checks.check_loss_curves, stuck))
    case("recombination that loses to its warm start",
         lambda s: s.check("recon", checks.check_beats_warm, [11.0, 7.0], [10.0, 4.0]),
         lambda s: s.check("recon", checks.check_beats_warm, [10.0, 4.0], [11.0, 7.0]))


def kernel_cases():
    from meshtomo import kernel

    grid = core.Grid(16)
    centre, offset = grid.pixel_index(8, 8), grid.pixel_index(7, 10)
    point = core.Image(grid, np.eye(grid.n_pixels)[centre])
    other = core.Image(grid, np.eye(grid.n_pixels)[offset])
    pair = core.Image(grid, point.values + other.values)
    seed = core.Seed(5)
    ks, ls = (6, 12), (1, 4)
    run_of = lambda x: {c: e.mean_image.values
                        for c, e in kernel.mc_kernel_sweep(x, ks, ls, 20, seed).items()}
    a, b, ab = run_of(point), run_of(other), run_of(pair)
    cell = a[(12, 4)]
    case("kernel rescaled so its mass is 1.1",
         lambda s: s.check("cell", checks.check_kernel_cell, cell, centre),
         lambda s: s.check("cell", checks.check_kernel_cell, 1.1 * cell, centre))
    moved = cell.copy()
    moved[centre], moved[centre + 1] = cell[centre + 1], cell[centre]
    case("kernel whose peak left the input pixel",
         lambda s: s.check("cell", checks.check_kernel_cell, cell, centre),
         lambda s: s.check("cell", checks.check_kernel_cell, moved, centre))
    hw = {c: checks.half_mass_radius(v, grid.side, centre) for c, v in a.items()}
    grown = dict(hw)
    grown[(12, 1)], grown[(12, 4)] = hw[(6, 1)] + 1, hw[(6, 4)] + 1
    case("kernel width that grows with K in two places",
         lambda s: s.check("cell", checks.check_half_widths, hw, ks, ls, ops=4),
         lambda s: s.check("cell", checks.check_half_widths, grown, ks, ls, ops=4), ops=4)
    case("superposition off by 1e-4",
         lambda s: s.check("lin", checks.check_linearity, ab[(12, 4)], cell + b[(12, 4)]),
         lambda s: s.check("lin", checks.check_linearity, ab[(12, 4)] * (1 + 1e-4),
                           cell + b[(12, 4)]))


def cli_cases(out_dir):
    walk = os.path.join(out_dir, f"selftest-{os.getpid()}")
    shutil.rmtree(walk, ignore_errors=True)

    def d(name):
        return os.path.join(walk, name)

    def quiet(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    try:
        assert quiet("gen-data", "--count", 3, "--grid-side", 8, "--seed", 3,
                     "--out", d("data")) == 0
        truth, _ = data.load_dataset(d("data"))
        rng = core.Seed(4).rng()
        for label in ("sub", "tv"):
            os.makedirs(d("recon_" + label))
            for i, x in enumerate(truth):
                noisy = np.clip(x.values + 0.1 * rng.standard_normal(x.values.size), 0, 1)
                core.save_image(core.Image(x.grid, noisy),
                                os.path.join(d("recon_" + label), f"recon_{i:05d}.f32raw"),
                                "f32raw")
        assert quiet("evaluate", "--data", d("data"), "--recon", f"sub={d('recon_sub')}",
                     "--recon", f"tv={d('recon_tv')}", "--out", d("eval")) == 0
        first = checks.tree_digest(walk)
        ok_eval, ok_digest, bad_eval, bad_digest = Run(), Run(), Run(), Run()
        ok_eval.check("evaluate", cliwalk.check_evaluate, d, {})
        ok_digest.check("walk", checks.check_digests, first, checks.tree_digest(walk))
        # Flip one exponent bit of the brightest pixel: its value drops fourfold.
        path = os.path.join(d("recon_tv"), "recon_00001.f32raw")
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        payload = blob.index(b"\n") + 1
        brightest = int(np.argmax(np.frombuffer(bytes(blob[payload:]), dtype="<f4")))
        blob[payload + 4 * brightest + 3] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        bad_eval.check("evaluate", cliwalk.check_evaluate, d, {})
        bad_digest.check("walk", checks.check_digests, first, checks.tree_digest(walk))
        report("CLI output tree with one byte changed", ok_digest, bad_digest)
        report("CLI reconstruction changed after the report was written", ok_eval, bad_eval)
        # Only exit 4 of the oblique step is the known fault; a config error
        # (exit 2) there must make the run incorrect.
        ok_exit, bad_exit = Run(), Run()
        kind = cliwalk.KNOWN_FAULT
        ok_exit.op(kind, cliwalk.command, kind, ["evaluate", "--data", d("data"),
                                                 "--recon", f"sub={d('recon_sub')}",
                                                 "--out", d("eval2")])
        bad_exit.op(kind, cliwalk.command, kind, ["estimate", "--backend", "oblique",
                                                  "--no-such-flag"])
        report("oblique estimate exits 2, not the known fault's 4", ok_exit, bad_exit)
    finally:
        shutil.rmtree(walk, ignore_errors=True)


def main():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    x = data.gen_shapes(data.ShapesConfig(1, 16, seed=core.Seed(1)))[0]
    xhat = np.clip(0.8 * x.values + 0.1 + 0.05 * core.Seed(2).rng().standard_normal(x.values.size),
                   0.0, 1.0)
    recon_cases(x, xhat)
    ray_cases()
    training_cases()
    kernel_cases()
    cli_cases(run.OUT_DIR)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test cases behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
