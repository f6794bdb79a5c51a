"""Correctness checks made apart from the program.

Each check recomputes what it needs with numpy alone, or tests a property
the method must have, and raises :class:`CheckFailed` on a wrong answer. No
check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from harness import require

SNR_CAP_DB = 300.0
BOX = (0.0, 1.0)
RAY_SAMPLES = 20000
RAY_TOL = 1e-3
WIDTH_VIOLATIONS_ALLOWED = 1  # as in acceptance criterion 5
LINEARITY_TOL = 1e-6
REPORT_TOL = 1e-6


def lstsq_snr(x, xhat):
    """Affine-invariant output SNR by a least-squares fit of x on (xhat, 1)."""
    x = np.asarray(x, dtype=np.float64)
    design = np.column_stack([np.asarray(xhat, dtype=np.float64), np.ones(x.size)])
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    resid = float(np.linalg.norm(x - design @ coef))
    nx = float(np.linalg.norm(x))
    if resid <= 1e-12 * nx:
        return SNR_CAP_DB
    return min(20.0 * math.log10(nx / resid), SNR_CAP_DB)


def check_recon(x, xhat, reported_snr):
    """A reconstruction stays in the box and its reported SNR is right."""
    v = np.asarray(xhat, dtype=np.float64)
    require(np.all(np.isfinite(v)), "reconstruction has non-finite values")
    require(v.min() >= BOX[0] and v.max() <= BOX[1],
            f"reconstruction leaves [{BOX[0]}, {BOX[1]}]: "
            f"min {v.min():.6g}, max {v.max():.6g}")
    own = lstsq_snr(x, v)
    require(abs(own - reported_snr) <= 1e-9,
            f"output_snr {reported_snr!r} disagrees with lstsq {own!r}")


def check_ray_matrix(matrix, positions, pairs, side, rows):
    """Rows sum to one and sampled rows match a point-sampled line integral."""
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    require(np.abs(sums - 1.0).max() <= 1e-9,
            f"ray-matrix row sums deviate from 1 by {np.abs(sums - 1.0).max():.2e}")
    tmid = (np.arange(RAY_SAMPLES) + 0.5) / RAY_SAMPLES
    for r in rows:
        i, j = pairs[r]
        p, q = positions[i], positions[j]
        x = p[0] + tmid * (q[0] - p[0])
        y = p[1] + tmid * (q[1] - p[1])
        jj = np.clip(np.floor(x * side).astype(int), 0, side - 1)
        ii = np.clip(np.floor(y * side).astype(int), 0, side - 1)
        oracle = np.bincount(ii * side + jj, minlength=side * side) / RAY_SAMPLES
        row = matrix[int(r)].toarray().ravel()
        dev = float(np.abs(row - oracle).max())
        require(dev <= RAY_TOL, f"ray {r} deviates from point sampling by {dev:.2e}")


def check_loss_curves(curves):
    """Each training loss curve's running minimum falls below its start."""
    for i, curve in enumerate(curves):
        curve = np.asarray(curve, dtype=np.float64)
        require(curve.size > 0 and np.all(np.isfinite(curve)),
                f"estimator {i}: empty or non-finite loss curve")
        running = np.minimum.accumulate(curve)
        require(np.all(np.diff(running) <= 0), f"estimator {i}: running minimum rises")
        require(running[-1] < curve[0],
                f"estimator {i}: loss never fell below its start {curve[0]:.4g}")


def check_beats_warm(recon_snrs, warm_snrs):
    """Learned recombination beats its own warm start in mean output SNR."""
    a, b = float(np.mean(recon_snrs)), float(np.mean(warm_snrs))
    require(a > b, f"mean recombination SNR {a:.3f} dB does not beat warm start {b:.3f} dB")


def check_kernel_cell(mean_image, pixel):
    """A point input's mean reconstruction keeps unit mass and peaks at the point."""
    v = np.asarray(mean_image, dtype=np.float64)
    mass = float(v.sum())
    require(abs(mass - 1.0) <= 1e-6, f"kernel mass {mass!r} is not 1")
    require(v[pixel] >= v.max() * (1.0 - 1e-12),
            f"kernel peaks at pixel {int(np.argmax(v))}, not at the input pixel {pixel}")


def half_mass_radius(mean_image, side, pixel):
    """Radius about ``pixel`` that encloses half of the kernel's mass.

    Pixels are taken in order of distance; the radius is interpolated where
    the running sum crosses one half. Unlike the radius where the profile
    falls to half its centre value, it does not hang on the centre pixel,
    whose mean over a few dozen trials is dominated by rare small triangles.
    """
    i0, j0 = divmod(pixel, side)
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    r = np.hypot(ii - i0, jj - j0).ravel()
    v = np.asarray(mean_image, dtype=np.float64)
    radii, inverse = np.unique(r, return_inverse=True)
    running = np.cumsum(np.bincount(inverse, weights=v)) / v.sum()
    k = int(np.argmax(running >= 0.5))
    if k == 0:
        return float(radii[0])
    frac = (0.5 - running[k - 1]) / (running[k] - running[k - 1])
    return float(radii[k - 1] + frac * (radii[k] - radii[k - 1]))


def check_half_widths(hw, k_values, l_values):
    """Kernel width does not grow with K or with L, up to the allowed violations."""
    violations = 0
    for lam in l_values:
        for a, b in zip(k_values, k_values[1:]):
            violations += hw[(b, lam)] > hw[(a, lam)] + 1e-9
    for k in k_values:
        for a, b in zip(l_values, l_values[1:]):
            violations += hw[(k, b)] > hw[(k, a)] + 1e-9
    require(violations <= WIDTH_VIOLATIONS_ALLOWED,
            f"kernel width grows with K or L in {violations} places "
            f"(<= {WIDTH_VIOLATIONS_ALLOWED} allowed)")


def check_linearity(pair_image, total):
    """The mean reconstruction of a sum equals the sum of the reconstructions."""
    total = np.asarray(total, dtype=np.float64)
    pair = np.asarray(pair_image, dtype=np.float64)
    dev = float(np.abs(pair - total).max() / max(np.abs(total).max(), 1e-300))
    require(dev <= LINEARITY_TOL,
            f"superposition deviates by {dev:.2e} of the peak (tol {LINEARITY_TOL:g})")


def tree_digest(root):
    """SHA-256 over the relative paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def check_digests(first, later):
    require(first == later, f"output tree digest {later[:12]} differs from the first "
                            f"round's {first[:12]}")


def check_report_mean(report_path, label, own_mean):
    """The report's mean SNR for ``label`` equals the benchmark's recomputation."""
    with open(report_path, "r", encoding="ascii") as fh:
        lines = fh.read().strip().splitlines()
    header = lines[0].split(",")
    require(label in header, f"{report_path}: no column {label!r}")
    last = lines[-1].split(",")
    require(last[0] == "mean", f"{report_path}: last row is not the mean")
    value = float(last[header.index(label)])
    require(abs(value - own_mean) <= REPORT_TOL,
            f"report mean SNR {value} for {label!r} differs from recomputed {own_mean:.6f}")

