import json

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from meshtomo.core import FormatError, Grid, Image, Seed
from meshtomo.data import (ShapesConfig, gen_checkerboard, gen_shapes,
                           input_snr, load_dataset, output_snr, save_dataset,
                           shapes_manifest)
from meshtomo.tomo import add_gaussian_noise, build_ray_matrix, forward, place_sensors


def tv_aniso(img):
    m = img.as_matrix()
    return np.abs(np.diff(m, axis=1)).sum() + np.abs(np.diff(m, axis=0)).sum()


def test_shapes_config_validation():
    with pytest.raises(ValueError, match="count"):
        ShapesConfig(count=0, side=16)
    for kwargs in ({"shapes_per_image": (4, 2)}, {"shapes_per_image": (-1, 2)},
                   {"shape_kinds": ()}, {"shape_kinds": ("triangle",)},
                   {"intensity_range": (0.5, 0.1)}, {"intensity_range": (0.2, 1.5)}):
        with pytest.raises(ValueError):
            ShapesConfig(count=1, side=16, **kwargs)


def test_gen_shapes_basics():
    cfg = ShapesConfig(count=30, side=24, seed=Seed(100))
    imgs = gen_shapes(cfg)
    assert len(imgs) == 30
    lo, hi = cfg.intensity_range
    nonblank = 0
    for img in imgs:
        assert img.grid.side == 24
        vals = img.values
        inside = vals[vals > 0]
        if inside.size:
            nonblank += 1
            assert inside.min() >= lo and inside.max() <= hi
    assert nonblank >= 27  # two or more patches almost always hit the grid


def test_gen_shapes_deterministic_and_order_independent():
    a = gen_shapes(ShapesConfig(count=5, side=16, seed=Seed(101)))
    b = gen_shapes(ShapesConfig(count=5, side=16, seed=Seed(101)))
    for x, y in zip(a, b):
        assert np.array_equal(x.values, y.values)
    # image i is a pure function of seed.derive(i): shrinking the count
    # cannot change earlier images
    c = gen_shapes(ShapesConfig(count=2, side=16, seed=Seed(101)))
    for x, y in zip(c, a):
        assert np.array_equal(x.values, y.values)
    other = gen_shapes(ShapesConfig(count=5, side=16, seed=Seed(102)))
    assert not np.array_equal(other[0].values, a[0].values)


def test_gen_shapes_zero_patches_blank():
    imgs = gen_shapes(ShapesConfig(count=3, side=8, shapes_per_image=(0, 0),
                                   seed=Seed(103)))
    for img in imgs:
        assert np.array_equal(img.values, np.zeros(64))


def test_gen_shapes_same_scene_at_two_resolutions():
    # the draw never consults the grid, so fine and coarse renderings sample
    # one analytic scene; they may only disagree next to a patch boundary
    fine = gen_shapes(ShapesConfig(count=4, side=64, seed=Seed(104)))
    coarse = gen_shapes(ShapesConfig(count=4, side=32, seed=Seed(104)))
    for f, c in zip(fine, coarse):
        blocks = f.as_matrix().reshape(32, 2, 32, 2).swapaxes(1, 2).reshape(32, 32, 4)
        down = blocks.mean(axis=2)
        uniform = (blocks == blocks[:, :, :1]).all(axis=2)
        mismatch = ~np.isclose(down, c.as_matrix(), atol=1e-12)
        band = binary_dilation(~uniform, iterations=1)
        assert not (mismatch & ~band).any()
        assert mismatch.mean() < 0.5  # boundaries are a minority of the area


def test_checkerboard_pattern():
    img = gen_checkerboard(8, 4)
    m = img.as_matrix()
    assert m[0, 0] == 0.0 and m[0, 2] == 1.0 and m[2, 0] == 1.0 and m[2, 2] == 0.0
    assert set(np.unique(m)) == {0.0, 1.0}
    # blocks are solid
    assert np.array_equal(m[:2, :2], np.zeros((2, 2)))
    assert np.array_equal(m[:2, 2:4], np.ones((2, 2)))


def test_checkerboard_tv_and_edge_cases():
    # each of the (cells-1) interior seams contributes a unit jump across the
    # full side, in both orientations
    for side, cells in ((8, 4), (16, 2), (12, 6), (9, 3)):
        img = gen_checkerboard(side, cells)
        assert tv_aniso(img) == pytest.approx(2 * side * (cells - 1))
    assert np.array_equal(gen_checkerboard(8, 1).values, np.zeros(64))
    with pytest.raises(ValueError, match="divisor"):
        gen_checkerboard(8, 3)
    with pytest.raises(ValueError, match="divisor"):
        gen_checkerboard(8, 0)


def test_output_snr_affine_invariance_and_cap():
    grid = Grid(8)
    rng = Seed(105).rng()
    x = Image(grid, rng.uniform(0, 1, 64))
    assert output_snr(x, x) == 300.0
    affine = Image(grid, 2.0 * x.values + 3.0)
    assert output_snr(x, affine) == 300.0
    noisy = Image(grid, x.values + 0.05 * rng.standard_normal(64))
    s = output_snr(x, noisy)
    assert 10.0 < s < 40.0
    rescaled = Image(grid, 5.0 * noisy.values - 7.0)
    assert output_snr(x, rescaled) == pytest.approx(s, abs=1e-9)


def test_output_snr_matches_grid_search():
    grid = Grid(8)
    rng = Seed(106).rng()
    x = Image(grid, rng.uniform(0, 1, 64))
    xhat = Image(grid, 0.8 * x.values + 0.1 + 0.1 * rng.standard_normal(64))
    closed = output_snr(x, xhat)
    nx = np.linalg.norm(x.values)
    best = -np.inf
    for a in np.linspace(0.5, 2.0, 301):
        resid_b = x.values - a * xhat.values
        for b in np.linspace(resid_b.mean() - 0.05, resid_b.mean() + 0.05, 41):
            r = np.linalg.norm(resid_b - b)
            best = max(best, 20 * np.log10(nx / r))
    assert closed >= best - 1e-9      # the closed form is the exact optimum
    assert closed - best <= 0.01      # and the grid brackets it tightly


def test_output_snr_constant_estimate_and_errors():
    grid = Grid(8)
    rng = Seed(107).rng()
    x = Image(grid, rng.uniform(0, 1, 64))
    const = Image(grid, np.full(64, 0.42))
    expect = 20 * np.log10(np.linalg.norm(x.values)
                           / np.linalg.norm(x.values - x.values.mean()))
    assert output_snr(x, const) == pytest.approx(expect, abs=1e-9)
    with pytest.raises(ValueError, match="grid"):
        output_snr(x, Image.zeros(Grid(9)))
    with pytest.raises(ValueError, match="x = 0"):
        output_snr(Image.zeros(grid), const)


def test_input_snr_exact_values():
    clean = np.array([0.0, 2.0, 0.0, 2.0])          # population var 1
    noise = np.array([0.1, -0.1, 0.1, -0.1])        # population var 0.01
    assert input_snr(clean, clean + noise) == pytest.approx(20.0, abs=1e-12)
    assert input_snr(clean, clean) == 300.0
    assert input_snr(np.full(4, 3.0), np.full(4, 3.0) + noise) == -300.0
    assert input_snr(clean, clean + 1e-22 * noise) == 300.0  # clipped
    with pytest.raises(ValueError, match="length"):
        input_snr(clean, clean[:-1])


def test_input_snr_round_trip_with_noise_injection():
    grid = Grid(16)
    rm = build_ray_matrix(place_sensors(25), grid)
    x = gen_shapes(ShapesConfig(count=1, side=16, seed=Seed(108)))[0]
    y = forward(rm, x)
    got = []
    for s in range(10):
        noisy = add_gaussian_noise(y, 10.0, Seed(200 + s))
        snr = input_snr(y.values, noisy.values)
        assert 8.5 <= snr <= 11.5
        got.append(snr)
    assert np.mean(got) == pytest.approx(10.0, abs=0.4)


def test_shapes_manifest_contents():
    cfg = ShapesConfig(count=3, side=16, seed=Seed(109))
    man = shapes_manifest(cfg)
    assert man["kind"] == "shapes"
    assert man["count"] == 3 and man["side"] == 16
    assert len(man["per_image_seeds"]) == 3
    derived = cfg.seed.derive(1)
    assert man["per_image_seeds"][1] == {"value": derived.value,
                                         "stream": derived.stream}
    json.dumps(man)  # must be serializable as-is


def test_dataset_round_trip(tmp_path):
    imgs = gen_shapes(ShapesConfig(count=4, side=12, seed=Seed(110)))
    root = tmp_path / "ds"
    save_dataset(imgs, root, {"note": "fixture", "count": 4})
    back, man = load_dataset(root)
    assert man["note"] == "fixture"
    assert man["count"] == 4 and man["side"] == 12
    assert man["files"] == [f"{i:05d}.f32raw" for i in range(4)]
    assert len(back) == 4
    for orig, rt in zip(imgs, back):
        assert np.array_equal(rt.values,
                              orig.values.astype("<f4").astype(np.float64))
    assert sorted(p.name for p in root.iterdir()) == [
        "00000.f32raw", "00001.f32raw", "00002.f32raw", "00003.f32raw",
        "manifest.json"]


def test_dataset_errors(tmp_path):
    with pytest.raises(ValueError, match="at least one"):
        save_dataset([], tmp_path / "empty")
    mixed = [Image.zeros(Grid(8)), Image.zeros(Grid(9))]
    with pytest.raises(ValueError, match="share one grid"):
        save_dataset(mixed, tmp_path / "mixed")
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nowhere")

    root = tmp_path / "ds"
    save_dataset([Image.zeros(Grid(8))], root)
    (root / "00000.f32raw").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(root)

    bad = tmp_path / "badjson"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json")
    with pytest.raises(FormatError):
        load_dataset(bad)

    nofiles = tmp_path / "nofiles"
    nofiles.mkdir()
    (nofiles / "manifest.json").write_text('{"count": 1}')
    with pytest.raises(FormatError, match="files"):
        load_dataset(nofiles)


def test_load_dataset_rejects_malformed_manifests(tmp_path):
    root = tmp_path / "ds"
    save_dataset([Image.zeros(Grid(8))], root)
    for name, manifest, match in (
            ("list", ["00000.f32raw"], "JSON object"),
            ("files-not-list", {"files": "00000.f32raw"}, "files"),
            ("files-empty", {"files": []}, "files"),
            ("files-path", {"files": ["../ds/00000.f32raw"]}, "plain file name"),
            ("files-number", {"files": [0]}, "plain file name")):
        bad = tmp_path / name
        bad.mkdir()
        (bad / "00000.f32raw").write_bytes((root / "00000.f32raw").read_bytes())
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=match):
            load_dataset(bad)
    (root / "manifest.json").write_bytes(b'{"files": ["00000.f32raw"]}\xff\n')
    with pytest.raises(FormatError, match="ASCII"):
        load_dataset(root)
