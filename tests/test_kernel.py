import numpy as np
import pytest

from meshtomo.core import FormatError, Grid, Image, Seed
from meshtomo.kernel import (KernelEstimate, RadialBin, _radial_profile,
                             convolution_consistency, isotropy_check,
                             load_radial_profile, mc_expected_recon,
                             mc_kernel_sweep, profile_half_width,
                             save_radial_profile)


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


def test_mc_parameter_validation():
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
