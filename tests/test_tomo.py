import numpy as np
import pytest

from meshtomo.core import FormatError, Grid, Image, Seed
from meshtomo.tomo import (Measurement, SensorArray, add_gaussian_noise,
                           build_ray_matrix, erase, forward, load_measurement,
                           place_sensors, save_measurement, sensor_pairs)


def supersampled_row(p, q, side, samples=20_000):
    """Line-integral oracle: fraction of stratified t-samples in each pixel."""
    t = (np.arange(samples) + 0.5) / samples
    x = p[0] + t * (q[0] - p[0])
    y = p[1] + t * (q[1] - p[1])
    j = np.clip((x * side).astype(int), 0, side - 1)
    i = np.clip((y * side).astype(int), 0, side - 1)
    row = np.bincount(i * side + j, minlength=side * side)
    return row / samples


def test_place_sensors_quarter_circle_exact():
    pos = place_sensors(4).positions
    assert np.array_equal(pos, [[1.0, 0.5], [0.5, 1.0], [0.0, 0.5], [0.5, 0.0]])


def test_place_sensors_on_circle():
    for n in (2, 3, 7, 25, 60):
        pos = place_sensors(n).positions
        r = np.hypot(pos[:, 0] - 0.5, pos[:, 1] - 0.5)
        assert np.all(np.abs(r - 0.5) <= 1e-12)
    with pytest.raises(ValueError):
        place_sensors(1)


def test_sensor_pairs_lexicographic():
    assert sensor_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert len(sensor_pairs(25)) == 300


def test_ray_matrix_row_count_and_sums():
    rm = build_ray_matrix(place_sensors(25), Grid(16))
    assert rm.m == 300
    sums = np.asarray(rm.matrix.sum(axis=1)).ravel()
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert rm.matrix.min() >= 0.0


def test_ray_matrix_against_supersampling_oracle():
    grid = Grid(16)
    sensors = place_sensors(10)
    rm = build_ray_matrix(sensors, grid)
    pairs = sensor_pairs(10)
    rng = Seed(77).rng()
    for r in rng.choice(len(pairs), size=12, replace=False):
        i, j = pairs[r]
        oracle = supersampled_row(sensors.positions[i], sensors.positions[j], grid.side)
        row = rm.matrix[int(r)].toarray().ravel()
        assert np.abs(row - oracle).max() <= 1e-3


def test_segment_inside_one_pixel():
    # both endpoints interior to pixel (1, 1) of a 4x4 grid
    sensors = SensorArray(np.array([[0.30, 0.30], [0.45, 0.40]]))
    rm = build_ray_matrix(sensors, Grid(4))
    row = rm.matrix.toarray()[0]
    assert row[1 * 4 + 1] == pytest.approx(1.0)
    assert np.count_nonzero(row) == 1


def test_horizontal_diameter_edge_convention():
    # travel along the shared horizontal edge is billed to the pixels above
    sensors = SensorArray(np.array([[0.0, 0.5], [1.0, 0.5]]))
    rm = build_ray_matrix(sensors, Grid(2))
    assert np.allclose(rm.matrix.toarray()[0], [0.0, 0.0, 0.5, 0.5])


def test_coincident_sensors_error():
    sensors = SensorArray(np.array([[0.25, 0.5], [0.25, 0.5]]))
    with pytest.raises(ValueError, match="coincide"):
        build_ray_matrix(sensors, Grid(4))


def test_forward_linear_and_constant():
    grid = Grid(12)
    rm = build_ray_matrix(place_sensors(8), grid)
    rng = Seed(3).rng()
    x1 = Image(grid, rng.random(grid.n_pixels))
    x2 = Image(grid, rng.random(grid.n_pixels))
    combo = Image(grid, 2.0 * x1.values - 0.5 * x2.values)
    lhs = forward(rm, combo).values
    rhs = 2.0 * forward(rm, x1).values - 0.5 * forward(rm, x2).values
    assert np.abs(lhs - rhs).max() <= 1e-10
    const = forward(rm, Image(grid, np.full(grid.n_pixels, 0.7)))
    assert np.allclose(const.values, 0.7, atol=1e-9)
    assert not const.mask.any()
    assert forward(rm, Image.zeros(grid)).values.max() == 0.0
    with pytest.raises(ValueError):
        forward(rm, Image.zeros(Grid(13)))


def test_gaussian_noise_variance_ratio():
    rng = Seed(10).rng()
    y = Measurement(rng.random(10_000))
    for snr_db, target, tol in ((0.0, 1.0, 0.1), (10.0, 0.1, 0.01)):
        noisy = add_gaussian_noise(y, snr_db, Seed(snr_db == 0.0))
        ratio = np.var(noisy.values - y.values) / np.var(y.values)
        assert abs(ratio - target) <= tol
    same = add_gaussian_noise(y, np.inf, Seed(1))
    assert np.array_equal(same.values, y.values)
    with pytest.raises(ValueError):
        add_gaussian_noise(Measurement(np.ones(50)), 10.0, Seed(0))


def test_noise_respects_erasures():
    y = erase(Measurement(np.arange(1.0, 101.0)), 0.3, Seed(4))
    noisy = add_gaussian_noise(y, 5.0, Seed(5))
    assert np.all(noisy.values[noisy.mask] == 0.0)
    assert np.array_equal(noisy.mask, y.mask)


def test_erase_statistics_and_edges():
    y = Measurement(np.ones(300))
    assert not erase(y, 0.0, Seed(0)).mask.any()
    wiped = erase(y, 1.0, Seed(0))
    assert wiped.mask.all() and not wiped.values.any()
    counts = [erase(y, 1 / 8, Seed(0).derive(i)).mask.sum() for i in range(2000)]
    assert abs(np.mean(counts) - 37.5) <= 1.0
    with pytest.raises(ValueError):
        erase(y, 1.2, Seed(0))


def test_erased_entries_exactly_zero_invariant():
    with pytest.raises(ValueError, match="exactly zero"):
        Measurement(np.array([1.0, 2.0]), np.array([True, False]))


def test_measurement_csv_round_trip(tmp_path):
    rng = Seed(6).rng()
    y = erase(Measurement(rng.standard_normal(40) * 1e6), 0.25, Seed(7))
    p = tmp_path / "y.csv"
    save_measurement(y, p)
    back = load_measurement(p)
    assert np.array_equal(back.values, y.values)  # %.17g is float64-exact
    assert np.array_equal(back.mask, y.mask)
    assert p.read_text().splitlines()[0] == "value,mask"


def test_measurement_csv_bytes_on_disk(tmp_path):
    p = tmp_path / "y.csv"
    save_measurement(Measurement([1.5, 0.0, 0.1], [False, True, False]), p)
    assert p.read_bytes() == b"value,mask\n1.5,0\n0,1\n0.10000000000000001,0\n"


def test_measurement_csv_errors(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("wrong,header\n1.0,0\n")
    with pytest.raises(FormatError, match="header"):
        load_measurement(p)
    p.write_text("value,mask\n1.0,2\n")
    with pytest.raises(FormatError, match="mask"):
        load_measurement(p)
    p.write_text("value,mask\n3.5,1\n")
    with pytest.raises(FormatError, match="zero"):
        load_measurement(p)
    p.write_bytes(b"value,mask\n1.0,0\n\xff2.0,0\n")
    with pytest.raises(FormatError, match="ASCII"):
        load_measurement(p)
