"""Straight-ray traveltime tomography on the unit square.

Sensors sit on the circle inscribed in the square; every unordered sensor
pair contributes one ray. Row (i, j) of the ray matrix holds the length of
the intersection of segment s_i..s_j with each pixel, normalized by the
segment length, so each row sums to one and y = A x averages x along rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse, special

from .core import FormatError, Grid, Image, Seed

__all__ = [
    "Measurement",
    "RayMatrix",
    "SensorArray",
    "add_gaussian_noise",
    "build_ray_matrix",
    "erase",
    "forward",
    "load_measurement",
    "place_sensors",
    "save_measurement",
    "sensor_pairs",
]


@dataclass(frozen=True)
class SensorArray:
    """Sensor positions, one (x, y) row each.

    :func:`place_sensors` produces the canonical equispaced-on-circle layout;
    arbitrary positions are allowed so tests can place sensors directly.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return len(self.positions)


def place_sensors(n: int) -> SensorArray:
    """``n`` sensors equispaced on the circle of radius 1/2 centered at (1/2, 1/2).

    Sensor i sits at angle 2*pi*i/n, starting at (1, 1/2) with zero offset.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need at least 2 sensors, got {n!r}")
    # degree-based trig is exact at quarter turns, so axis-aligned sensors
    # land on (1, .5), (.5, 1), (0, .5), (.5, 0) without rounding fuzz
    degrees = 360.0 * np.arange(int(n)) / int(n)
    pos = np.column_stack(
        [0.5 + 0.5 * special.cosdg(degrees), 0.5 + 0.5 * special.sindg(degrees)]
    )
    return SensorArray(pos)


def sensor_pairs(n: int) -> list:
    """Unordered index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class RayMatrix:
    """Sparse M x N matrix of normalized ray-pixel intersection lengths."""

    matrix: sparse.csr_matrix
    grid: Grid
    pairs: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def _ray_row(p, q, side):
    """Pixel indices and normalized intersection lengths for segment p..q.

    Walks the sorted parametric crossings of the grid lines; the pixel of
    each sub-interval is read off its midpoint, so travel exactly along a
    grid line lands in the pixel with the larger index along the normal.
    """
    x0, y0 = p
    x1, y1 = q
    dx = x1 - x0
    dy = y1 - y0
    cuts = [np.array([0.0, 1.0])]
    lines = np.arange(1, side) / side
    if dx != 0.0:
        t = (lines - x0) / dx
        cuts.append(t[(t > 0.0) & (t < 1.0)])
    if dy != 0.0:
        t = (lines - y0) / dy
        cuts.append(t[(t > 0.0) & (t < 1.0)])
    ts = np.unique(np.concatenate(cuts))
    w = np.diff(ts)
    tm = 0.5 * (ts[:-1] + ts[1:])
    xm = x0 + tm * dx
    ym = y0 + tm * dy
    j = np.clip(np.floor(xm * side).astype(np.int64), 0, side - 1)
    i = np.clip(np.floor(ym * side).astype(np.int64), 0, side - 1)
    return i * side + j, w


def build_ray_matrix(sensors: SensorArray, grid: Grid) -> RayMatrix:
    """Assemble the ray matrix for all unordered sensor pairs."""
    pos = sensors.positions
    pairs = sensor_pairs(sensors.n)
    if not pairs:
        raise ValueError("need at least 2 sensors")
    rows, cols, vals = [], [], []
    for r, (i, j) in enumerate(pairs):
        p, q = pos[i], pos[j]
        if p[0] == q[0] and p[1] == q[1]:
            raise ValueError(f"sensors {i} and {j} coincide at {tuple(p)}")
        pix, w = _ray_row(p, q, grid.side)
        rows.append(np.full(len(pix), r, dtype=np.int64))
        cols.append(pix)
        vals.append(w)
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(pairs), grid.n_pixels),
    ).tocsr()
    return RayMatrix(mat, grid, pairs)


@dataclass
class Measurement:
    """Ray measurements with an erasure mask; erased entries are exactly zero."""

    values: np.ndarray
    mask: np.ndarray = None  # True where erased

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("measurement values must be finite")
        if self.mask is None:
            m = np.zeros(v.size, dtype=bool)
        else:
            m = np.asarray(self.mask, dtype=bool).reshape(-1)
            if m.size != v.size:
                raise ValueError("mask length must match values length")
        if np.any(v[m] != 0.0):
            raise ValueError("erased entries must be exactly zero")
        self.values = v
        self.mask = m

    @property
    def m(self) -> int:
        return self.values.size

    def copy(self) -> "Measurement":
        return Measurement(self.values.copy(), self.mask.copy())


def forward(a: RayMatrix, x: Image) -> Measurement:
    """Noiseless measurement y = A x."""
    if x.grid != a.grid:
        raise ValueError(f"image grid side {x.grid.side} != ray-matrix side {a.grid.side}")
    return Measurement(a.matrix @ x.values)


def add_gaussian_noise(y: Measurement, snr_db: float, seed: Seed) -> Measurement:
    """Add white Gaussian noise at the given input SNR (dB).

    The signal power is the population variance of the measurement vector;
    the noise variance is signal power * 10**(-snr_db / 10). ``snr_db`` of
    +inf returns an unchanged copy. Erased entries stay zero.
    """
    if y.m < 2:
        raise ValueError("need at least 2 measurements to set a noise level")
    if snr_db == math.inf:
        return y.copy()
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    var_sig = float(np.var(y.values))
    if var_sig == 0.0:
        raise ValueError("zero-variance measurements: SNR is undefined")
    sigma = math.sqrt(var_sig * 10.0 ** (-snr_db / 10.0))
    noisy = y.values + seed.rng().normal(0.0, sigma, y.m)
    noisy[y.mask] = 0.0
    return Measurement(noisy, y.mask.copy())


def erase(y: Measurement, p: float, seed: Seed) -> Measurement:
    """Zero each entry independently with probability ``p`` and record the mask."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"erasure probability must be in [0, 1], got {p}")
    hit = seed.rng().random(y.m) < p
    values = np.where(hit, 0.0, y.values)
    return Measurement(values, y.mask | hit)


# ---------------------------------------------------------------------------
# file formats

def save_measurement(y: Measurement, path) -> None:
    """CSV with columns value,mask (mask 1 = erased). Exact float round trip."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("value,mask\n")
        for v, m in zip(y.values, y.mask):
            fh.write(f"{v:.17g},{int(m)}\n")


def load_measurement(path) -> Measurement:
    values, mask = [], []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "value,mask":
            raise FormatError(f"{path}: expected header 'value,mask', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
            try:
                values.append(float(parts[0]))
                flag = int(parts[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if flag not in (0, 1):
                raise FormatError(f"{path}:{lineno}: mask must be 0 or 1, got {parts[1]}")
            mask.append(bool(flag))
    try:
        return Measurement(np.array(values), np.array(mask, dtype=bool))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
