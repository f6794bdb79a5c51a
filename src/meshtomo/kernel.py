"""Monte Carlo study of the expected mesh-projection reconstruction.

Averaging the minimum-norm reconstruction over random meshes approximates the
action of a local, isotropic smoothing kernel on the input image. The helpers
here estimate that mean image, its per-pixel standard error and its radial
profile for point inputs, and run the isotropy and shift/superposition
consistency checks used to validate the kernel picture at desk scale. A trial
draws one stack of meshes and solves every requested mesh count on it from a
single block factor of B^T B (:func:`meshtomo.solve.minnorm_prefixes`).

Trials run on a pool with one worker per CPU this process may use, each
with BLAS on one thread. The workers are forked once per process, on the
first sweep of two or more trials, so they run the code as it was at that
moment: a later change to a module's functions in the parent does not reach
them. The parent folds the trial images in trial order, so every estimate is
bitwise what one CPU gives.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Grid, Image, Seed
from .mesh import StackedBasis, mesh_with_k_triangles, rasterize
from .solve import SolverError, minnorm_prefixes

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

# The trial pool and the pid that created it; a forked child makes its own.
_POOL = None
_POOL_PID = None
# OpenBLAS's thread-count setter, under the names its builds export (plain,
# and as bundled by numpy and scipy: 32- and 64-bit integer builds).
_OPENBLAS_SET_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "scipy_openblas_set_num_threads64_")


@dataclass
class RadialBin:
    radius: float
    mean: float
    std: float
    n: int


@dataclass
class KernelEstimate:
    """Mean reconstruction over random meshes, with optional radial profile.

    ``stderr_image`` is the per-pixel standard error of the mean over trials,
    std(ddof=1) / sqrt(trials); None when trials < 2.
    """

    grid: Grid
    mean_image: Image
    radial_profile: list
    trials: int
    k: int
    lambda_count: int
    stderr_image: Image = None


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


def _trial_images(x: Image, lams: list, seed: Seed, k: int, trial: int) -> np.ndarray:
    """One trial: the minimum-norm reconstruction of ``x`` for each L in
    ``lams`` (ascending), as a (len(lams), N) array. It runs in a pool worker
    or in-process; either way its bits are the same."""
    stack = _trial_stack(x.grid, k, lams[-1], seed, trial)
    try:
        sols = minnorm_prefixes(stack, stack.coeffs(x), lams)
    except SolverError as exc:
        raise SolverError(f"k={k}, trial {trial}: {exc}") from exc
    return np.array([sols[lam].values for lam in lams])


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _single_blas_thread() -> None:
    """Run every OpenBLAS loaded in this process on one thread.

    Each pool worker calls this once. The pool already keeps every CPU busy,
    and a BLAS thread pool in each worker oversubscribed them: OpenBLAS's
    spinning threads made a pooled sweep about three times slower than one
    process. OpenBLAS reads its thread count from the environment only when
    it loads, so the count is set through each loaded copy's own entry point.
    Where /proc/self/maps or the entry point is missing, nothing changes.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return
    for path in {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _trial_pool():
    """This process's trial pool, created on first use; None on one CPU.

    Workers are forked, so they start without a fresh import and share the
    parent's loaded modules; each runs BLAS on one thread. The pid check
    keeps a forked child of this process from submitting to its parent's
    workers.
    """
    global _POOL, _POOL_PID
    cpus = _cpu_count()
    if cpus < 2:
        return None
    if _POOL is None or _POOL_PID != os.getpid():
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        _POOL = ProcessPoolExecutor(cpus, mp_context=multiprocessing.get_context("fork"),
                                    initializer=_single_blas_thread)
        _POOL_PID = os.getpid()
    return _POOL


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
    :func:`mc_expected_recon` run cell by cell with the same seed. Each trial
    solves every cell from one block factor of its stack
    (:func:`minnorm_prefixes`). The per-pixel standard error is accumulated
    alongside the mean by Welford's update.

    With two or more trials and two or more CPUs, the trials run on this
    process's worker pool (see the module docstring); otherwise they run
    in-process. The parent adds their images in trial order either way, so
    the estimates do not depend on the CPU count.
    """
    k_values = list(k_values)
    for k in k_values:
        if not isinstance(k, (int, np.integer)) or k < 2:
            raise ValueError(f"k values must be integers >= 2, got {k!r}")
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    lam_sorted = sorted(set(int(v) for v in lambda_values))
    if not lam_sorted or lam_sorted[0] < 1 or lam_sorted[-1] > _MAX_SUBSPACES:
        raise ValueError(f"lambda values must be a non-empty subset of "
                         f"[1, {_MAX_SUBSPACES}], got {list(lambda_values)}")
    trials = int(trials)
    pool = _trial_pool() if trials > 1 else None
    images = (map if pool is None else pool.map)(
        partial(_trial_images, x, lam_sorted, seed),
        [int(k) for k in k_values for _ in range(trials)],
        [t for _ in k_values for t in range(trials)])
    center = _single_pixel(x)
    out = {}
    for k in k_values:
        acc = np.zeros((len(lam_sorted), x.grid.n_pixels))
        running = np.zeros_like(acc)
        sq_dev = np.zeros_like(acc)
        for t in range(trials):
            v = next(images)
            acc += v
            # Welford's update: the running mean moves towards v without
            # passing it, so every term added to sq_dev is >= 0
            delta = v - running
            running += delta / (t + 1)
            sq_dev += delta * (v - running)
        for row, lam in enumerate(lam_sorted):
            mean = Image(x.grid, acc[row] / trials)
            profile = None
            if center is not None:
                profile = _radial_profile(mean.as_matrix(), x.grid.side, center)
            stderr = None
            if trials > 1:
                stderr = Image(x.grid, np.sqrt(sq_dev[row] / ((trials - 1) * trials)))
            out[(int(k), lam)] = KernelEstimate(x.grid, mean, profile, trials,
                                                int(k), lam, stderr)
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
                row = RadialBin(float(parts[0]), float(parts[1]),
                                float(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if not all(map(math.isfinite, (row.radius, row.mean, row.std))):
                raise FormatError(f"{path}:{lineno}: non-finite field")
            if row.radius < 0 or row.std < 0 or row.n < 1:
                raise FormatError(f"{path}:{lineno}: need radius >= 0, std >= 0 and n >= 1")
            out.append(row)
    return out
