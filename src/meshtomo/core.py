"""Pixel grids, images on the unit square, deterministic seeding, image I/O,
and the three containers of every file format: an ASCII JSON document, an
ASCII CSV table, and a JSON header line followed by little-endian float32.

Geometry convention: the image domain is the unit square [0,1]^2. A square
grid of ``side`` x ``side`` pixels stores values row-major, with pixel (i, j)
centered at ((j + 0.5) / side, (i + 0.5) / side). Row index i runs along y,
column index j along x.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FormatError",
    "Grid",
    "Image",
    "Seed",
    "load_image",
    "pixel_centers",
    "save_image",
]


class FormatError(ValueError):
    """A file does not match its declared on-disk format."""


@functools.lru_cache(maxsize=32)
def pixel_centers(side: int) -> np.ndarray:
    """(N, 2) array of pixel-center coordinates (x, y), row-major.

    Cached per side; the returned array is read-only.
    """
    step = 1.0 / side
    coords = (np.arange(side) + 0.5) * step
    xx, yy = np.meshgrid(coords, coords)  # yy varies along rows = y axis
    out = np.column_stack([xx.ravel(), yy.ravel()])
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid:
    """Square pixel grid over the unit square."""

    side: int

    def __post_init__(self):
        if not isinstance(self.side, (int, np.integer)) or isinstance(self.side, bool):
            raise ValueError(f"grid side must be an integer, got {self.side!r}")
        if self.side < 2:
            raise ValueError(f"grid side must be >= 2, got {self.side}")
        object.__setattr__(self, "side", int(self.side))

    @property
    def n_pixels(self) -> int:
        return self.side * self.side

    def centers(self) -> np.ndarray:
        """Pixel centers as an (N, 2) read-only array of (x, y) pairs."""
        return pixel_centers(self.side)

    def pixel_index(self, i: int, j: int) -> int:
        return i * self.side + j


# Number of low bits reserved per derivation level in Seed.derive.
_STREAM_BITS = 20


@dataclass(frozen=True)
class Seed:
    """Deterministic seed for a counter-based generator (Philox).

    Equal (value, stream) pairs reproduce identical draws on one platform.
    Child streams from :meth:`derive` never overlap, so parallel Monte Carlo
    trials can each take ``seed.derive(trial_index)`` safely. A stream fits
    in 64 bits: three levels of ``derive`` below stream 0 always fit, and a
    fourth only from a parent stream below 2**44.
    """

    value: int = 0
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.value) < 2**64):
            raise ValueError("seed value must fit in 64 bits")
        if not (0 <= int(self.stream) < 2**64):
            raise ValueError("seed stream must be non-negative and fit in 64 bits")
        object.__setattr__(self, "value", int(self.value))
        object.__setattr__(self, "stream", int(self.stream))

    def rng(self) -> np.random.Generator:
        key = np.array([self.value, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, index: int) -> "Seed":
        """Child seed for sub-task ``index`` (0 <= index < 2**20 - 1).

        The child's stream is the parent's shifted left by 20 bits plus
        index + 1, so distinct (parent, index) pairs give distinct children.
        A parent stream of 2**44 or more would push bits past 64 and is
        rejected rather than wrapped.
        """
        if not (0 <= index < (1 << _STREAM_BITS) - 1):
            raise ValueError(f"derive index out of range: {index}")
        if self.stream >= 1 << (64 - _STREAM_BITS):
            raise ValueError(f"seed stream {self.stream} is too deep to derive from")
        return Seed(self.value, (self.stream << _STREAM_BITS) + index + 1)


@dataclass
class Image:
    """A real-valued image on a :class:`Grid`, stored as a flat row-major vector."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if v.size != self.grid.n_pixels:
            raise ValueError(
                f"expected {self.grid.n_pixels} values for side {self.grid.side}, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("image values must be finite")
        self.values = v

    @staticmethod
    def zeros(grid: Grid) -> "Image":
        return Image(grid, np.zeros(grid.n_pixels))

    def as_matrix(self) -> np.ndarray:
        """View of the values as a (side, side) array; row i is the y = (i+0.5)/side slice."""
        return self.values.reshape(self.grid.side, self.grid.side)

    def copy(self) -> "Image":
        return Image(self.grid, self.values.copy())


# ---------------------------------------------------------------------------
# containers: each on-disk format is one of these, plus its own field rules

def _read_ascii(path) -> str:
    """The text of ``path``; a byte outside ASCII is a :class:`FormatError`."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text: {exc}") from exc


def read_json(path) -> dict:
    """The JSON object that makes up the ASCII text file ``path``."""
    try:
        obj = json.loads(_read_ascii(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: unparseable JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return obj


def write_json(path, obj: dict) -> None:
    """``obj`` as ASCII JSON: sorted keys, indent 1, a final newline; NaN raises."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def write_table(path, columns: dict, rows) -> None:
    """ASCII CSV: a header line of the names in ``columns`` (name -> float or
    int), then one line per row. Floats are written at 17 significant digits,
    an exact float64 round trip."""
    line = ",".join("{:.17g}" if kind is float else "{:d}" for kind in columns.values())
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(line.format(*row) + "\n")


def read_table(path, columns: dict) -> list:
    """(line number, values) of each non-blank row of a :func:`write_table`
    file; every field must parse as its column's kind and be finite."""
    lines = _read_ascii(path).split("\n")
    header = ",".join(columns)
    if lines[0].strip() != header:
        raise FormatError(f"{path}: expected header {header!r}, got {lines[0].strip()!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise FormatError(f"{path}:{lineno}: expected {len(columns)} fields, "
                              f"got {len(fields)}")
        try:
            values = [kind(f) for kind, f in zip(columns.values(), fields)]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise FormatError(f"{path}:{lineno}: non-finite field")
        rows.append((lineno, values))
    return rows


def pack_f32(header: dict, values) -> bytes:
    """A one-line compact JSON ``header`` (keys in the dict's order), then
    ``values`` as little-endian float32."""
    head = json.dumps(header, separators=(",", ":")).encode("ascii")
    return head + b"\n" + np.asarray(values).astype("<f4").tobytes()


def unpack_f32(blob: bytes, path, size_of) -> tuple:
    """(header, finite float64 values) of a :func:`pack_f32` blob read from
    ``path``. ``size_of(header)`` checks the format's own header fields,
    raising :class:`FormatError`, and returns the number of values."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:newline].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unparseable JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be a JSON object")
    try:
        expected = 4 * size_of(header)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    payload = blob[newline + 1 :]
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return header, values


# ---------------------------------------------------------------------------
# images

def _f32raw_size(header: dict) -> int:
    unknown = set(header) - {"side", "dtype"}
    if unknown:
        raise FormatError(f"unknown header field {sorted(unknown)[0]!r}")
    if "side" not in header:
        raise FormatError("header missing field 'side'")
    side = header["side"]
    if not isinstance(side, int) or isinstance(side, bool) or side < 2:
        raise FormatError("header field 'side' must be an integer >= 2")
    if header.get("dtype") != "f32le":
        raise FormatError("header field 'dtype' must be 'f32le'")
    return side * side


def pgm16_bytes(mat: np.ndarray) -> bytes:
    """A 2-D array as a binary 16-bit PGM, its values mapped affinely from
    [min, max] onto [0, 65535] (all 0 when constant). Row 0 of ``mat`` is
    the smallest y, as in :meth:`Image.as_matrix`, so rows are written last
    first and viewers show the domain upright."""
    lo, hi = float(mat.min()), float(mat.max())
    if hi > lo:
        scaled = np.round((mat - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(mat)
    header = f"P5\n{mat.shape[1]} {mat.shape[0]}\n65535\n"
    return header.encode("ascii") + scaled[::-1].astype(">u2").tobytes()


def save_image(img: Image, path, fmt: str) -> None:
    """Write ``img`` to ``path`` in format ``fmt`` ("f32raw" or "pgm16").

    f32raw is a one-line JSON header {"side":n,"dtype":"f32le"} followed by
    n*n little-endian float32 values; it round-trips float32-representable data
    exactly. pgm16 is a binary 16-bit PGM (:func:`pgm16_bytes`), for viewing
    only: :func:`load_image` does not read it.
    """
    if fmt == "f32raw":
        blob = pack_f32({"side": img.grid.side, "dtype": "f32le"}, img.values)
    elif fmt == "pgm16":
        blob = pgm16_bytes(img.as_matrix())
    else:
        raise ValueError(f"unknown image format {fmt!r}; expected 'f32raw' or 'pgm16'")
    with open(path, "wb") as fh:
        fh.write(blob)


def load_image(path) -> Image:
    """Read an f32raw image saved by :func:`save_image`. A PGM is a rescaled,
    quantised picture for viewing, so it is never read back."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"{"):
        raise FormatError(f"{path}: unrecognized image file (expected an f32raw JSON header)")
    header, values = unpack_f32(blob, path, _f32raw_size)
    return Image(Grid(header["side"]), values)
