"""Monte Carlo study of the expected mesh-projection reconstruction.

Averaging the minimum-norm reconstruction over random meshes approximates the
action of a local, isotropic smoothing kernel on the input image. The helpers
here estimate that mean image, its radial profile for point inputs, and run
the isotropy and shift/superposition consistency checks used to validate the
kernel picture at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, Image, Seed
from .mesh import StackedBasis, mesh_with_k_triangles, rasterize
from .solve import SolverError, minnorm_solve

__all__ = [
    "ConvolutionReport",
    "IsotropyReport",
    "KernelEstimate",
    "RadialBin",
    "convolution_consistency",
    "isotropy_check",
    "load_radial_profile",
    "mc_expected_recon",
    "mc_kernel_sweep",
    "profile_half_width",
    "save_radial_profile",
]

# Upper bound on subspaces per trial; fixes the seed-stream layout so sweeps
# over different subspace counts share meshes (common random numbers).
_MAX_SUBSPACES = 64


@dataclass
class RadialBin:
    radius: float
    mean: float
    std: float
    n: int


@dataclass
class KernelEstimate:
    """Mean reconstruction over random meshes, with optional radial profile."""

    grid: Grid
    mean_image: Image
    radial_profile: list
    trials: int
    k: int
    lambda_count: int


def _single_pixel(x: Image):
    """(i, j) of the unique nonzero pixel, or None."""
    nz = np.nonzero(x.values)[0]
    if nz.size != 1:
        return None
    p = int(nz[0])
    return p // x.grid.side, p % x.grid.side


def _radial_profile(mean: np.ndarray, side: int, center) -> list:
    i0, j0 = center
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    r = np.hypot(ii - i0, jj - j0).ravel()
    flat = mean.ravel()
    bins = np.floor(r).astype(int)
    out = []
    for b in range(int(bins.max()) + 1):
        sel = bins == b
        n = int(sel.sum())
        if n == 0:
            continue
        vals = flat[sel]
        out.append(RadialBin(float(r[sel].mean()), float(vals.mean()),
                             float(vals.std()), n))
    return out


def _trial_stack(grid: Grid, k: int, lambda_count: int, seed: Seed, trial: int) -> StackedBasis:
    bases = []
    for lam in range(lambda_count):
        mesh = mesh_with_k_triangles(k, seed.derive(trial * _MAX_SUBSPACES + lam))
        bases.append(rasterize(mesh, grid))
    return StackedBasis(bases)


def mc_expected_recon(x: Image, k: int, lambda_count: int, trials: int,
                      seed: Seed) -> KernelEstimate:
    """Average the minimum-norm reconstruction of ``x`` over random mesh draws.

    Each trial draws ``lambda_count`` fresh meshes with exactly ``k``
    triangles, computes the stacked oracle coefficients B^T x, and solves the
    minimum-norm synthesis. The accumulation is an ordered sum over trials, so
    equal seeds give bit-identical estimates. When ``x`` has a single nonzero
    pixel, the radial profile about that pixel is attached (bin width one
    pixel). This is the one-cell case of :func:`mc_kernel_sweep`.
    """
    cells = mc_kernel_sweep(x, [k], [lambda_count], trials, seed)
    return cells[(int(k), int(lambda_count))]


def mc_kernel_sweep(x: Image, k_values, lambda_values, trials: int,
                    seed: Seed) -> dict:
    """Grid of kernel estimates over (k, lambda_count) cells.

    Within one k, all cells share each trial's mesh sequence (cell L uses the
    first L meshes), implementing common random numbers: results match
    :func:`mc_expected_recon` run cell by cell with the same seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lam_sorted = sorted(set(int(v) for v in lambda_values))
    if not lam_sorted or lam_sorted[0] < 1 or lam_sorted[-1] > _MAX_SUBSPACES:
        raise ValueError(f"lambda values must be a non-empty subset of "
                         f"[1, {_MAX_SUBSPACES}], got {list(lambda_values)}")
    center = _single_pixel(x)
    out = {}
    for k in k_values:
        acc = {lam: np.zeros(x.grid.n_pixels) for lam in lam_sorted}
        for t in range(trials):
            stack = _trial_stack(x.grid, int(k), lam_sorted[-1], seed, t)
            for lam in lam_sorted:
                sub = StackedBasis(stack.bases[:lam])
                q = sub.coeffs(x)
                try:
                    acc[lam] += minnorm_solve(sub, q).values
                except SolverError as exc:
                    raise SolverError(f"k={k}, trial {t}: {exc}") from exc
        for lam in lam_sorted:
            mean = Image(x.grid, acc[lam] / trials)
            profile = None
            if center is not None:
                profile = _radial_profile(mean.as_matrix(), x.grid.side, center)
            out[(int(k), lam)] = KernelEstimate(x.grid, mean, profile, trials,
                                                int(k), lam)
    return out


def profile_half_width(est: KernelEstimate) -> float:
    """Radius where the radial profile first falls to half its central value.

    Linear interpolation between bin representatives; returns the last bin
    radius if the profile never crosses half-peak.
    """
    if not est.radial_profile:
        raise ValueError("kernel estimate has no radial profile")
    prof = est.radial_profile
    peak = prof[0].mean
    if peak <= 0:
        raise ValueError("central profile value must be positive")
    half = 0.5 * peak
    for a, b in zip(prof[:-1], prof[1:]):
        if a.mean >= half > b.mean:
            frac = (a.mean - half) / (a.mean - b.mean)
            return a.radius + frac * (b.radius - a.radius)
    return prof[-1].radius


@dataclass
class IsotropyReport:
    angular_cv: float
    passed: bool
    note: str = ""


def isotropy_check(est: KernelEstimate, sectors: int = 16,
                   cv_threshold: float = 0.15, min_trials: int = 2000) -> IsotropyReport:
    """Coefficient of variation of the kernel across angular sectors.

    For each one-pixel radial bin inside the central region, pixel values are
    grouped into ``sectors`` angular sectors about the peak. Pixels in one bin
    sit at slightly different radii, and the kernel decays fast enough that
    this alone would dominate the sector spread, so a linear radial trend is
    removed within each bin before comparing sectors. The report averages
    std(sector means)/|bin mean| over bins where every sector is populated
    and the signal is above a small floor. Requires an estimate built from a
    single-pixel input (the profile must be present).
    """
    if est.radial_profile is None:
        raise ValueError("isotropy check needs a single-pixel kernel estimate")
    if est.trials < min_trials:
        return IsotropyReport(math.nan, False,
                              f"only {est.trials} trials; need >= {min_trials} "
                              "for a stable sector variance")
    side = est.grid.side
    mean = est.mean_image.as_matrix()
    p = int(np.argmax(est.mean_image.values))
    i0, j0 = p // side, p % side
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    r = np.hypot(ii - i0, jj - j0).ravel()
    theta = np.arctan2(ii - i0, jj - j0).ravel()  # [-pi, pi]
    sector = np.minimum((theta + np.pi) / (2 * np.pi) * sectors, sectors - 1e-9).astype(int)
    bins = np.floor(r).astype(int)
    flat = mean.ravel()
    peak = flat[p]
    r_max = side / 4.0  # central region: shift invariance degrades near the edge
    cvs = []
    for b in range(1, int(r_max) + 1):
        sel = bins == b
        if not sel.any():
            continue
        sec_ids = sector[sel]
        if np.unique(sec_ids).size < sectors:
            continue
        rb, vb = r[sel], flat[sel]
        m = vb.mean()
        if abs(m) < 0.02 * abs(peak):
            continue
        design = np.stack([np.ones_like(rb), rb - rb.mean()], axis=1)
        coef, *_ = np.linalg.lstsq(design, vb, rcond=None)
        resid = vb - design @ coef
        sums = np.bincount(sec_ids, weights=resid, minlength=sectors)
        cnts = np.bincount(sec_ids, minlength=sectors)
        cvs.append(float((sums / cnts).std() / abs(m)))
    if not cvs:
        return IsotropyReport(math.nan, False, "no radial bin had all sectors populated")
    cv = float(np.mean(cvs))
    return IsotropyReport(cv, cv <= cv_threshold)


@dataclass
class ConvolutionReport:
    central_deviation: float
    full_deviation: float
    passed: bool
    note: str = ""


def _shift_image(mat: np.ndarray, di: int, dj: int) -> np.ndarray:
    """Integer shift with zero fill (no wraparound)."""
    out = np.zeros_like(mat)
    side = mat.shape[0]
    si0, si1 = max(0, di), min(side, side + di)
    ti0, ti1 = max(0, -di), min(side, side - di)
    sj0, sj1 = max(0, dj), min(side, side + dj)
    tj0, tj1 = max(0, -dj), min(side, side - dj)
    out[si0:si1, sj0:sj1] = mat[ti0:ti1, tj0:tj1]
    return out


def convolution_consistency(x_multi: Image, single_pixel_kernels, seed: Seed,
                            tolerance: float = 0.1) -> ConvolutionReport:
    """Compare the mean reconstruction of ``x_multi`` against a superposition
    of single-pixel kernels.

    ``single_pixel_kernels`` is one KernelEstimate or a list of them, all
    built from single-pixel inputs with the same parameters and ``seed``.
    Given one kernel, shifted copies are placed at each support pixel of
    ``x_multi``; shift invariance only holds away from the boundary, so the
    pass verdict uses the central half of the domain (full-domain deviation is
    reported alongside). Given one kernel per support pixel — each at its own
    location — the superposition is exact by linearity of the per-mesh solve,
    and the deviation is float-roundoff small.
    """
    kernels = (list(single_pixel_kernels)
               if isinstance(single_pixel_kernels, (list, tuple))
               else [single_pixel_kernels])
    if not kernels:
        raise ValueError("need at least one single-pixel kernel")
    ref = kernels[0]
    for k_est in kernels:
        if k_est.radial_profile is None:
            raise ValueError("kernels must come from single-pixel inputs")
        if (k_est.grid != ref.grid or k_est.k != ref.k
                or k_est.lambda_count != ref.lambda_count
                or k_est.trials != ref.trials):
            raise ValueError("kernels disagree on grid or MC parameters")
    if x_multi.grid != ref.grid:
        raise ValueError("image grid does not match kernel grid")
    side = x_multi.grid.side
    est = mc_expected_recon(x_multi, ref.k, ref.lambda_count, ref.trials, seed)
    xm = x_multi.as_matrix()
    support = list(zip(*np.nonzero(xm)))
    if not support:
        raise ValueError("x_multi has empty support")
    super_mat = np.zeros((side, side))
    if len(kernels) == 1:
        kmat = ref.mean_image.as_matrix()
        p = int(np.argmax(ref.mean_image.values))
        ci, cj = p // side, p % side
        for i, j in support:
            super_mat += xm[i, j] * _shift_image(kmat, int(i) - ci, int(j) - cj)
    else:
        peaks = {}
        for k_est in kernels:
            p = int(np.argmax(k_est.mean_image.values))
            peaks[(p // side, p % side)] = k_est
        missing = [pix for pix in support if (int(pix[0]), int(pix[1])) not in peaks]
        if missing:
            raise ValueError(f"no kernel peaks at support pixels {missing}")
        for i, j in support:
            k_est = peaks[(int(i), int(j))]
            super_mat += xm[i, j] * k_est.mean_image.as_matrix()
    scale = float(np.abs(super_mat).max())
    diff = np.abs(est.mean_image.as_matrix() - super_mat) / scale
    lo, hi = side // 4, side - side // 4
    central = float(diff[lo:hi, lo:hi].max())
    full = float(diff.max())
    note = ""
    if full > tolerance >= central:
        note = "deviation outside the central region exceeds tolerance (boundary effects)"
    return ConvolutionReport(central, full, central <= tolerance, note)


def save_radial_profile(profile, path) -> None:
    """CSV with columns radius,mean,std,n."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("radius,mean,std,n\n")
        for b in profile:
            fh.write(f"{b.radius:.17g},{b.mean:.17g},{b.std:.17g},{b.n}\n")


def load_radial_profile(path) -> list:
    from .core import FormatError

    out = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "radius,mean,std,n":
            raise FormatError(f"{path}: expected header 'radius,mean,std,n'")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 fields")
            try:
                out.append(RadialBin(float(parts[0]), float(parts[1]),
                                     float(parts[2]), int(parts[3])))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return out
