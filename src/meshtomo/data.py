"""Synthetic phantoms and quality metrics.

Random shape compositions (ellipses, circles, rectangles), checkerboard
resolution targets, the affine-fit-invariant output SNR, and the input SNR of
corrupted measurements. Also the on-disk dataset layout: a directory of
``NNNNN.f32raw`` images plus a ``manifest.json``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import FormatError, Grid, Image, Seed, load_image, pixel_centers, save_image

__all__ = [
    "ShapesConfig",
    "gen_checkerboard",
    "gen_shapes",
    "input_snr",
    "load_dataset",
    "output_snr",
    "save_dataset",
    "shapes_manifest",
]

_SNR_CAP_DB = 300.0
_KINDS = ("ellipse", "circle", "rectangle")


@dataclass(frozen=True)
class ShapesConfig:
    count: int
    side: int
    shapes_per_image: tuple = (2, 6)
    shape_kinds: tuple = _KINDS
    intensity_range: tuple = (0.2, 1.0)
    seed: Seed = field(default_factory=lambda: Seed(0))

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        lo, hi = self.shapes_per_image
        if not (0 <= lo <= hi):
            raise ValueError("shapes_per_image range is empty or negative")
        if not self.shape_kinds:
            raise ValueError("need at least one shape kind")
        for kind in self.shape_kinds:
            if kind not in _KINDS:
                raise ValueError(f"unknown shape kind {kind!r}")
        a, b = self.intensity_range
        if not (0.0 <= a <= b <= 1.0):
            raise ValueError("intensity_range must be a nonempty subrange of [0, 1]")


def _draw_shape(rng, kinds, intensity_range):
    """Draw one shape in continuous unit-square coordinates.

    The draw sequence never consults the grid side, so the same seed yields
    the same analytic shapes at every resolution.
    """
    kind = kinds[int(rng.integers(0, len(kinds)))]
    cx, cy = rng.uniform(0.1, 0.9, size=2)
    if kind == "circle":
        r = float(rng.uniform(0.05, 0.25))
        params = (cx, cy, r)
    elif kind == "ellipse":
        a, b = rng.uniform(0.05, 0.25, size=2)
        angle = float(rng.uniform(0.0, math.pi))
        params = (cx, cy, float(a), float(b), angle)
    else:  # rectangle
        hw, hh = rng.uniform(0.05, 0.25, size=2)
        angle = float(rng.uniform(0.0, math.pi))
        params = (cx, cy, float(hw), float(hh), angle)
    val = float(rng.uniform(*intensity_range))
    return kind, params, val


def _shape_mask(kind, params, centers):
    x, y = centers[:, 0], centers[:, 1]
    if kind == "circle":
        cx, cy, r = params
        return (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    cx, cy, a, b, angle = params
    c, s = math.cos(angle), math.sin(angle)
    u = c * (x - cx) + s * (y - cy)
    v = -s * (x - cx) + c * (y - cy)
    if kind == "ellipse":
        return (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return (np.abs(u) <= a) & (np.abs(v) <= b)


def gen_shapes(cfg: ShapesConfig) -> list:
    """Images composed of randomly placed flat patches.

    Later shapes overwrite earlier ones where they overlap. Image i is driven
    entirely by ``cfg.seed.derive(i)``, so generation is order-independent
    and any single image can be regenerated in isolation.
    """
    grid = Grid(cfg.side)
    centers = pixel_centers(cfg.side)
    lo, hi = cfg.shapes_per_image
    out = []
    for i in range(cfg.count):
        rng = cfg.seed.derive(i).rng()
        vals = np.zeros(grid.n_pixels)
        for _ in range(int(rng.integers(lo, hi + 1))):
            kind, params, val = _draw_shape(rng, cfg.shape_kinds, cfg.intensity_range)
            vals[_shape_mask(kind, params, centers)] = val
        out.append(Image(grid, vals))
    return out


def gen_checkerboard(side: int, cells: int) -> Image:
    """Alternating 0/1 blocks; ``cells`` blocks per axis must divide ``side``."""
    if cells < 1 or side % cells != 0:
        raise ValueError(f"cells={cells} must be a positive divisor of side={side}")
    b = side // cells
    i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    pattern = ((i // b + j // b) % 2).astype(float)
    return Image(Grid(side), pattern.ravel())


def output_snr(x: Image, xhat: Image) -> float:
    """Reconstruction quality in dB, invariant to affine maps of the estimate.

    Maximizes 20*log10(||x|| / ||x - a*xhat - b||) over scalars a, b; the
    optimum is the least-squares fit of x by (xhat, 1), solved from the 2x2
    normal equations. Perfect (affine) agreement caps at 300 dB.
    """
    if x.grid != xhat.grid:
        raise ValueError("images live on different grids")
    xv, hv = x.values, xhat.values
    nx = float(np.linalg.norm(xv))
    if nx == 0.0:
        raise ValueError("output_snr is undefined for x = 0")
    n = xv.size
    sh = float(hv.sum())
    shh = float(hv @ hv)
    det = n * shh - sh * sh  # n^2 * var(xhat)
    if det > 1e-12 * n * max(shh, 1.0):
        sx = float(xv.sum())
        shx = float(hv @ xv)
        a = (n * shx - sh * sx) / det
        b = (shh * sx - sh * shx) / det
    else:
        a, b = 0.0, float(xv.mean())  # constant xhat: only the offset helps
    resid = float(np.linalg.norm(xv - a * hv - b))
    if resid <= 1e-12 * nx:
        return _SNR_CAP_DB
    return min(20.0 * math.log10(nx / resid), _SNR_CAP_DB)


def input_snr(y_clean: np.ndarray, y_noisy: np.ndarray) -> float:
    """10*log10 of clean signal variance over noise variance (population)."""
    y_clean = np.asarray(y_clean, dtype=float)
    y_noisy = np.asarray(y_noisy, dtype=float)
    if y_clean.shape != y_noisy.shape:
        raise ValueError("vectors must have equal length")
    noise = y_noisy - y_clean
    var_n = float(np.var(noise))
    if var_n == 0.0:
        return _SNR_CAP_DB
    var_s = float(np.var(y_clean))
    if var_s == 0.0:
        return -_SNR_CAP_DB
    return float(np.clip(10.0 * math.log10(var_s / var_n), -_SNR_CAP_DB, _SNR_CAP_DB))


def shapes_manifest(cfg: ShapesConfig) -> dict:
    """Config echo plus the derived per-image seeds, for dataset manifests."""
    return {
        "kind": "shapes",
        "count": cfg.count,
        "side": cfg.side,
        "shapes_per_image": list(cfg.shapes_per_image),
        "shape_kinds": list(cfg.shape_kinds),
        "intensity_range": list(cfg.intensity_range),
        "seed": {"value": cfg.seed.value, "stream": cfg.seed.stream},
        "per_image_seeds": [
            {"value": s.value, "stream": s.stream}
            for s in (cfg.seed.derive(i) for i in range(cfg.count))
        ],
    }


def save_dataset(images, path, manifest: dict | None = None) -> None:
    """Write ``NNNNN.f32raw`` files plus ``manifest.json`` under ``path``."""
    if not images:
        raise ValueError("dataset must contain at least one image")
    side = images[0].grid.side
    os.makedirs(path, exist_ok=True)
    for i, img in enumerate(images):
        if img.grid.side != side:
            raise ValueError("all dataset images must share one grid")
        save_image(img, os.path.join(path, f"{i:05d}.f32raw"), "f32raw")
    man = dict(manifest or {})
    man.setdefault("count", len(images))
    man.setdefault("side", side)
    man["files"] = [f"{i:05d}.f32raw" for i in range(len(images))]
    with open(os.path.join(path, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(man, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def load_dataset(path):
    """Read a dataset directory back; returns (images, manifest)."""
    man_path = os.path.join(path, "manifest.json")
    if not os.path.isfile(man_path):
        raise FileNotFoundError(man_path)
    with open(man_path, "r", encoding="ascii") as fh:
        try:
            man = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{man_path}: {exc}") from exc
    if not isinstance(man, dict):
        raise FormatError(f"{man_path}: top level must be a JSON object")
    files = man.get("files")
    if not isinstance(files, list) or not files:
        raise FormatError(f"{man_path}: missing or empty 'files' list")
    images = []
    for name in files:
        if not (isinstance(name, str) and name == os.path.basename(name)):
            raise FormatError(f"{man_path}: 'files' entry {name!r} is not a plain file name")
        fpath = os.path.join(path, name)
        if not os.path.isfile(fpath):
            raise FileNotFoundError(fpath)
        images.append(load_image(fpath))
    return images, man
