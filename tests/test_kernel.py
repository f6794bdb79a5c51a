import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from meshtomo import kernel
from meshtomo.core import FormatError, Grid, Image, Seed
from meshtomo.kernel import (KernelEstimate, RadialBin, _radial_profile, _trial_stack,
                             convolution_consistency, isotropy_check,
                             load_radial_profile, mc_expected_recon,
                             mc_kernel_sweep, profile_half_width,
                             save_radial_profile)
from meshtomo.mesh import StackedBasis
from meshtomo.solve import minnorm_prefixes


def pixel_image(grid, i, j, value=1.0):
    v = np.zeros(grid.n_pixels)
    v[i * grid.side + j] = value
    return Image(grid, v)


def make_kernel_estimate(mean_image, trials, k, lam, center=None):
    """Wrap an analytic mean image; its profile is taken about ``center``
    (default: the peak pixel)."""
    side = mean_image.grid.side
    if center is None:
        center = divmod(int(np.argmax(mean_image.values)), side)
    profile = _radial_profile(mean_image.as_matrix(), side, center)
    return KernelEstimate(mean_image.grid, mean_image, profile, trials, k, lam)


def gaussian_estimate(side=32, sigma=3.0, trials=5000, k=20, lam=5):
    grid = Grid(side)
    c = side // 2
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    g = np.exp(-((ii - c) ** 2 + (jj - c) ** 2) / (2 * sigma**2))
    return make_kernel_estimate(Image(grid, g.ravel()), trials, k, lam)


def test_mc_zero_image_gives_zero_mean():
    grid = Grid(12)
    est = mc_expected_recon(Image.zeros(grid), 8, 2, 3, Seed(1))
    assert np.array_equal(est.mean_image.values, np.zeros(grid.n_pixels))
    assert est.radial_profile is None  # not a single-pixel input
    assert est.trials == 3 and est.k == 8 and est.lambda_count == 2


def test_mc_deterministic_and_seed_sensitive():
    grid = Grid(12)
    x = pixel_image(grid, 6, 6)
    a = mc_expected_recon(x, 8, 2, 5, Seed(2))
    b = mc_expected_recon(x, 8, 2, 5, Seed(2))
    c = mc_expected_recon(x, 8, 2, 5, Seed(3))
    assert np.array_equal(a.mean_image.values, b.mean_image.values)
    assert not np.array_equal(a.mean_image.values, c.mean_image.values)
    assert a.radial_profile is not None
    assert a.radial_profile[0].radius == 0.0
    assert a.radial_profile[0].n == 1


def test_mc_scale_equivariance():
    # per-trial meshes depend only on the seed, and the solve is linear in q
    grid = Grid(12)
    x1 = pixel_image(grid, 5, 7, 1.0)
    x2 = pixel_image(grid, 5, 7, 2.5)
    a = mc_expected_recon(x1, 8, 2, 4, Seed(4))
    b = mc_expected_recon(x2, 8, 2, 4, Seed(4))
    assert np.allclose(b.mean_image.values, 2.5 * a.mean_image.values,
                       atol=1e-10)


def test_sweep_matches_standalone_runs():
    grid = Grid(12)
    x = pixel_image(grid, 6, 5)
    grid_out = mc_kernel_sweep(x, [6, 9], [1, 3], 4, Seed(5))
    assert set(grid_out) == {(6, 1), (6, 3), (9, 1), (9, 3)}
    for (k, lam), est in grid_out.items():
        solo = mc_expected_recon(x, k, lam, 4, Seed(5))
        assert np.array_equal(est.mean_image.values, solo.mean_image.values)
        assert est.k == k and est.lambda_count == lam and est.trials == 4


def test_trial_is_one_block_factor(monkeypatch):
    # one trial of L meshes: exactly L eigh calls, each K x K for its mesh,
    # and no stack Gram eigendecomposition
    grid = Grid(16)
    x = pixel_image(grid, 8, 8)
    eigh = np.linalg.eigh
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    def no_gram(self):
        raise AssertionError("the kernel trial built the stack's Gram factor")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(StackedBasis, "_gram_eig", property(no_gram))
    mc_kernel_sweep(x, [12], [1, 3, 5], 1, Seed(15))
    stack = _trial_stack(grid, 12, 5, Seed(15), 0)
    assert calls == [(b.k, b.k) for b in stack.bases]


def test_stderr_is_std_of_trial_images_over_root_t():
    grid = Grid(12)
    x = pixel_image(grid, 6, 5)
    trials, lams = 7, [1, 3]
    sweep = mc_kernel_sweep(x, [8], lams, trials, Seed(16))
    per_trial = {lam: [] for lam in lams}
    for t in range(trials):
        stack = _trial_stack(grid, 8, lams[-1], Seed(16), t)
        for lam, sol in minnorm_prefixes(stack, stack.coeffs(x), lams).items():
            per_trial[lam].append(sol.values)
    for lam in lams:
        images = np.array(per_trial[lam])
        est = sweep[(8, lam)]
        ref = images.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.abs(est.stderr_image.values - ref).max() <= 1e-12 * ref.max()
        # the mean stays the ordered sum over trials divided by their count
        total = np.zeros(grid.n_pixels)
        for image in images:
            total += image
        assert np.array_equal(est.mean_image.values, total / trials)
    assert mc_expected_recon(x, 8, 2, 1, Seed(16)).stderr_image is None


def test_pooled_sweep_is_bitwise_the_in_process_sweep(monkeypatch):
    # two CPUs force the pool even on a one-CPU machine; one CPU forces the
    # in-process path
    grid = Grid(12)
    x = pixel_image(grid, 6, 5)
    runs = []
    for cpus in (2, 1):
        monkeypatch.setattr(kernel, "_cpu_count", lambda cpus=cpus: cpus)
        assert (kernel._trial_pool() is None) == (cpus == 1)
        runs.append(mc_kernel_sweep(x, [6, 9, 14], [1, 2, 4], 7, Seed(21)))
    pooled, serial = runs
    assert sorted(pooled) == sorted(serial) and len(pooled) == 9
    for cell, est in pooled.items():
        assert np.array_equal(est.mean_image.values, serial[cell].mean_image.values)
        assert np.array_equal(est.stderr_image.values, serial[cell].stderr_image.values)


def _run_fresh(script, **env):
    """Run ``script`` in a new interpreter that imports this meshtomo; its stdout."""
    src = os.path.dirname(os.path.dirname(kernel.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                         env=dict(os.environ, PYTHONPATH=path, **env), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_and_single_trial_start_no_pool():
    # the CLI's start-up and a one-trial sweep load no process machinery
    out = _run_fresh("""
        import sys
        import meshtomo.cli
        from meshtomo import core, kernel

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                          or m == "concurrent.futures.process")

        print(loaded())
        kernel._cpu_count = lambda: 2
        x = core.Image(core.Grid(8), [1.0] + [0.0] * 63)
        kernel.mc_expected_recon(x, 6, 2, 1, core.Seed(1))
        print(loaded(), kernel._POOL)
        """)
    assert out.splitlines() == ["[]", "[] None"]


def test_trial_failure_names_k_and_trial():
    # patched before the pool forks, so the workers fail too; the first
    # failing trial in trial order is the one reported, on one CPU or two
    out = _run_fresh("""
        from meshtomo import core, kernel, solve

        solve_all = kernel.minnorm_prefixes

        def fail_at_k8(stack, coeffs, lams):
            if stack.bases[0].k == 8:
                raise solve.SolverError("inconsistent")
            return solve_all(stack, coeffs, lams)

        kernel.minnorm_prefixes = fail_at_k8
        x = core.Image(core.Grid(8), [0.0] * 27 + [1.0] + [0.0] * 36)
        for cpus in (1, 2):
            kernel._cpu_count = lambda: cpus
            try:
                kernel.mc_kernel_sweep(x, [6, 8], [1, 2], 3, core.Seed(2))
            except solve.SolverError as exc:
                print(exc, kernel._POOL is not None)
        """)
    assert out.splitlines() == ["k=8, trial 0: inconsistent False",
                                "k=8, trial 0: inconsistent True"]


def test_workers_run_blas_on_one_thread():
    # the parent keeps the two BLAS threads it was started with
    out = _run_fresh("""
        import ctypes, json
        import numpy, scipy.linalg
        from meshtomo import core, kernel

        def blas_threads():
            with open("/proc/self/maps") as fh:
                paths = {line.split(maxsplit=5)[5].strip() for line in fh
                         if "openblas" in line}
            counts = []
            for path in sorted(paths):
                lib = ctypes.CDLL(path)
                for name in kernel._OPENBLAS_SET_THREADS:
                    getter = getattr(lib, name.replace("_set_", "_get_"), None)
                    if getter is not None:
                        counts.append(getter())
                        break
            return counts

        kernel._cpu_count = lambda: 2
        x = core.Image(core.Grid(8), [1.0] + [0.0] * 63)
        kernel.mc_expected_recon(x, 6, 2, 3, core.Seed(1))
        print(json.dumps([blas_threads(), kernel._POOL.submit(blas_threads).result()]))
        """, OPENBLAS_NUM_THREADS="2")
    parent, worker = json.loads(out)
    if not parent:
        pytest.skip("no OpenBLAS found in /proc/self/maps")
    assert set(parent) == {2} and worker == [1] * len(parent)


@pytest.mark.skipif(kernel._cpu_count() < 2, reason="the trial pool needs 2 CPUs")
def test_broken_pool_is_replaced_by_the_next_sweep():
    # killed workers break the pool; the sweep that finds it broken raises,
    # and the next one forks a new pool whose images are the in-process ones
    out = _run_fresh("""
        import os, signal
        import numpy as np
        from concurrent.futures.process import BrokenProcessPool
        from meshtomo import core, kernel

        x = core.Image(core.Grid(8), [0.0] * 27 + [1.0] + [0.0] * 36)

        def sweep():
            return kernel.mc_expected_recon(x, 6, 2, 3, core.Seed(4)).mean_image.values

        sweep()
        for pid in list(kernel._POOL._processes):
            os.kill(pid, signal.SIGKILL)
        try:
            sweep()
        except BrokenProcessPool:
            print("broken", kernel._POOL is None)
        pooled = sweep()
        print("pooled", kernel._POOL is not None)
        kernel._cpu_count = lambda: 1
        print(np.array_equal(pooled, sweep()))
        """)
    assert out.splitlines() == ["broken True", "pooled True", "True"]


def test_forked_child_makes_its_own_pool():
    out = _run_fresh("""
        import os, signal, time
        import numpy as np
        from meshtomo import core, kernel

        kernel._cpu_count = lambda: 2
        x = core.Image(core.Grid(8), [0.0] * 27 + [1.0] + [0.0] * 36)

        def sweep():
            return kernel.mc_expected_recon(x, 6, 2, 3, core.Seed(4)).mean_image.values

        ref = sweep()
        parent_pool = kernel._POOL
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                same = np.array_equal(sweep(), ref)
                code = 0 if same and kernel._POOL is not parent_pool else 3
                kernel._POOL.shutdown()
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                print(os.waitstatus_to_exitcode(status))
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        """)
    assert out == "0\n"


def test_mass_preserved_by_minnorm_mean():
    # each trial reproduces the coefficients of x, so constant-direction mass
    # (an indicator component every mesh contains) keeps the total sum close
    grid = Grid(12)
    x = pixel_image(grid, 6, 6)
    est = mc_expected_recon(x, 8, 3, 30, Seed(6))
    assert est.mean_image.values.sum() == pytest.approx(1.0, abs=0.15)
    assert np.argmax(est.mean_image.values) == 6 * grid.side + 6


def test_half_width_shrinks_with_more_meshes():
    grid = Grid(16)
    x = pixel_image(grid, 8, 8)
    sweep = mc_kernel_sweep(x, [12], [1, 6], 250, Seed(7))
    hw1 = profile_half_width(sweep[(12, 1)])
    hw6 = profile_half_width(sweep[(12, 6)])
    assert hw6 <= hw1


def test_profile_half_width_analytic_gaussian():
    est = gaussian_estimate(sigma=3.0)
    expected = 3.0 * np.sqrt(2 * np.log(2.0))
    assert profile_half_width(est) == pytest.approx(expected, abs=0.5)


def test_profile_half_width_edge_cases():
    grid = Grid(8)
    flat = make_kernel_estimate(Image(grid, np.ones(grid.n_pixels)), 5000, 4, 1)
    assert profile_half_width(flat) == flat.radial_profile[-1].radius
    est = mc_expected_recon(Image.zeros(grid), 4, 1, 3, Seed(8))
    with pytest.raises(ValueError, match="profile"):
        profile_half_width(est)
    neg = make_kernel_estimate(Image(grid, -np.ones(grid.n_pixels)), 5000, 4, 1,
                               center=(4, 4))
    with pytest.raises(ValueError, match="positive"):
        profile_half_width(neg)


def test_isotropy_gaussian_passes_bar_fails():
    iso = isotropy_check(gaussian_estimate(sigma=3.0))
    assert iso.passed
    assert iso.angular_cv <= 0.05

    side = 32
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    bar = np.exp(-((ii - 16) ** 2 / (2 * 9.0) + (jj - 16) ** 2 / (2 * 0.5)))
    est = make_kernel_estimate(Image(Grid(side), bar.ravel()), 5000, 20, 5)
    aniso = isotropy_check(est)
    assert not aniso.passed
    assert aniso.angular_cv > 0.5


def test_isotropy_requires_enough_trials():
    est = gaussian_estimate(trials=500)
    rep = isotropy_check(est)
    assert not rep.passed
    assert np.isnan(rep.angular_cv)
    assert "500" in rep.note and "2000" in rep.note
    assert isotropy_check(est, min_trials=500).passed


def test_isotropy_needs_single_pixel_profile():
    grid = Grid(12)
    est = mc_expected_recon(Image.zeros(grid), 6, 1, 3, Seed(9))
    with pytest.raises(ValueError, match="single-pixel"):
        isotropy_check(est)


def test_convolution_exact_with_per_pixel_kernels():
    grid = Grid(12)
    pix = [(4, 4), (7, 8)]
    seed = Seed(10)
    kernels = [mc_expected_recon(pixel_image(grid, i, j), 8, 2, 6, seed)
               for i, j in pix]
    x = Image(grid, pixel_image(grid, 4, 4, 0.8).values
              + pixel_image(grid, 7, 8, 0.3).values)
    rep = convolution_consistency(x, kernels, seed, tolerance=0.01)
    # exact superposition by linearity of every per-trial solve
    assert rep.passed
    assert rep.full_deviation <= 1e-9
    assert rep.central_deviation <= rep.full_deviation + 1e-15


def test_convolution_shifted_single_kernel_path():
    grid = Grid(16)
    seed = Seed(11)
    center_kernel = mc_expected_recon(pixel_image(grid, 8, 8), 10, 3, 200, seed)
    x = Image(grid, pixel_image(grid, 7, 8, 1.0).values
              + pixel_image(grid, 9, 9, 0.5).values)
    rep = convolution_consistency(x, center_kernel, seed, tolerance=0.35)
    assert rep.passed
    assert rep.full_deviation >= rep.central_deviation
    assert 0.0 < rep.central_deviation


def test_convolution_input_validation():
    grid = Grid(12)
    seed = Seed(12)
    kern = mc_expected_recon(pixel_image(grid, 6, 6), 6, 2, 4, seed)
    with pytest.raises(ValueError, match="kernel"):
        convolution_consistency(pixel_image(grid, 6, 6), [], seed)
    with pytest.raises(ValueError, match="support"):
        convolution_consistency(Image.zeros(grid), kern, seed)
    with pytest.raises(ValueError, match="grid"):
        convolution_consistency(pixel_image(Grid(10), 5, 5), kern, seed)
    other = mc_expected_recon(pixel_image(grid, 6, 6), 6, 3, 4, seed)
    with pytest.raises(ValueError, match="disagree"):
        convolution_consistency(pixel_image(grid, 6, 6), [kern, other], seed)
    multi = mc_expected_recon(Image.zeros(grid), 6, 2, 4, seed)
    with pytest.raises(ValueError, match="single-pixel"):
        convolution_consistency(pixel_image(grid, 6, 6), multi, seed)
    off = mc_expected_recon(pixel_image(grid, 2, 2), 6, 2, 4, seed)
    two = Image(grid, pixel_image(grid, 6, 6).values + pixel_image(grid, 8, 3).values)
    with pytest.raises(ValueError, match="peaks"):
        convolution_consistency(two, [kern, off], seed)


def test_mc_parameter_validation(monkeypatch):
    def no_pool():
        raise AssertionError("a bad argument reached the trial pool")

    monkeypatch.setattr(kernel, "_trial_pool", no_pool)
    grid = Grid(8)
    x = pixel_image(grid, 4, 4)
    with pytest.raises(ValueError, match="trials"):
        mc_expected_recon(x, 4, 1, 0, Seed(13))
    with pytest.raises(ValueError, match="lambda"):
        mc_expected_recon(x, 4, 0, 1, Seed(13))
    with pytest.raises(ValueError, match="lambda"):
        mc_expected_recon(x, 4, 65, 1, Seed(13))
    with pytest.raises(ValueError, match="lambda"):
        mc_kernel_sweep(x, [4], [0, 2], 1, Seed(13))
    with pytest.raises(ValueError, match="trials"):
        mc_kernel_sweep(x, [4], [1], 0, Seed(13))
    with pytest.raises(ValueError, match="lambda"):
        mc_kernel_sweep(x, [4], [], 1, Seed(13))
    for k_values in ([1], [4, 2.0], [True]):
        with pytest.raises(ValueError, match="k values"):
            mc_kernel_sweep(x, k_values, [1], 2, Seed(13))
    for trials in (True, 2.0, -1):
        with pytest.raises(ValueError, match="trials"):
            mc_kernel_sweep(x, [4], [1], trials, Seed(13))


def test_radial_profile_round_trip(tmp_path):
    grid = Grid(12)
    est = mc_expected_recon(pixel_image(grid, 6, 6), 8, 2, 5, Seed(14))
    path = tmp_path / "profile.csv"
    save_radial_profile(est.radial_profile, path)
    back = load_radial_profile(path)
    assert len(back) == len(est.radial_profile)
    for a, b in zip(est.radial_profile, back):
        assert a.radius == b.radius and a.mean == b.mean
        assert a.std == b.std and a.n == b.n


def test_radial_profile_bytes_on_disk(tmp_path):
    path = tmp_path / "profile.csv"
    save_radial_profile([RadialBin(0.0, 1.0, 0.0, 1), RadialBin(1.25, 0.1, 0.5, 4)], path)
    assert path.read_bytes() == b"radius,mean,std,n\n0,1,0,1\n1.25,0.10000000000000001,0.5,4\n"


def test_radial_profile_rejects_malformed(tmp_path):
    bad_header = tmp_path / "hdr.csv"
    bad_header.write_text("r,m,s,n\n0,1,0,1\n")
    with pytest.raises(FormatError, match="header"):
        load_radial_profile(bad_header)
    bad_fields = tmp_path / "fields.csv"
    bad_fields.write_text("radius,mean,std,n\n0,1,0\n")
    with pytest.raises(FormatError, match="fields"):
        load_radial_profile(bad_fields)
    bad_value = tmp_path / "value.csv"
    bad_value.write_text("radius,mean,std,n\n0,one,0,1\n")
    with pytest.raises(FormatError):
        load_radial_profile(bad_value)
    bad_byte = tmp_path / "byte.csv"
    bad_byte.write_bytes(b"radius,mean,std,n\n0,1,0,1\xff\n")
    with pytest.raises(FormatError, match="ASCII"):
        load_radial_profile(bad_byte)
    for row in ("0,nan,0,1", "1,0.5,inf,-3", "inf,0.5,0,1", "0,-inf,0,1",
                "-1,0.5,0,1", "1,0.5,-0.1,2", "1,0.5,0.1,0", "1,0.5,0.1,-3"):
        bad_row = tmp_path / "row.csv"
        bad_row.write_text(f"radius,mean,std,n\n0,1,0,1\n{row}\n")
        with pytest.raises(FormatError, match=":3:"):
            load_radial_profile(bad_row)
