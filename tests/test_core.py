import numpy as np
import pytest

from meshtomo.core import FormatError, Grid, Image, Seed, load_image, pixel_centers, save_image


def test_grid_basics():
    g = Grid(4)
    assert g.n_pixels == 16
    assert g.pixel_index(0, 0) == 0
    assert g.pixel_index(2, 3) == 11
    with pytest.raises(ValueError):
        Grid(1)
    with pytest.raises(ValueError):
        Grid(2.5)


def test_pixel_centers_convention():
    c = pixel_centers(2)
    # row-major, (x, y) with pixel (i, j) at ((j+0.5)/side, (i+0.5)/side)
    expected = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    assert np.array_equal(c, expected)
    assert not c.flags.writeable
    assert pixel_centers(2) is c  # cached


def test_pixel_centers_matches_index_formula():
    side = 7
    c = pixel_centers(side)
    for i in range(side):
        for j in range(side):
            assert c[i * side + j, 0] == pytest.approx((j + 0.5) / side)
            assert c[i * side + j, 1] == pytest.approx((i + 0.5) / side)


def test_seed_determinism():
    a = Seed(123).rng().random(8)
    b = Seed(123).rng().random(8)
    assert np.array_equal(a, b)
    c = Seed(124).rng().random(8)
    assert not np.array_equal(a, c)


def test_seed_derive_children_distinct():
    s = Seed(9)
    kids = [s.derive(i) for i in range(50)]
    streams = {k.stream for k in kids}
    assert len(streams) == 50
    assert all(k.value == 9 for k in kids)
    # grandchildren don't collide with children or each other
    grand = [k.derive(j) for k in kids[:5] for j in range(5)]
    all_streams = streams | {g.stream for g in grand}
    assert len(all_streams) == 50 + 25
    draws = {tuple(k.rng().random(3)) for k in kids[:10]}
    assert len(draws) == 10


def test_seed_validation():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(ValueError):
        Seed(0).derive(-1)
    with pytest.raises(ValueError):
        Seed(0).derive(2**20 - 1)
    with pytest.raises(ValueError):
        Seed(0, 2**64)
    with pytest.raises(ValueError):
        Seed(0, -1)
    # a fourth level fits below stream 2**44 and is rejected above it, where
    # the shift would drop high bits: derive(16) then three derive(0) once
    # wrapped onto four derive(0)
    deep = Seed(0).derive(0).derive(0).derive(0).derive(0)
    assert deep.stream == sum(1 << (20 * level) for level in range(4))
    with pytest.raises(ValueError, match="too deep"):
        Seed(0).derive(16).derive(0).derive(0).derive(0)
    assert Seed(0, 2**44 - 1).derive(2**20 - 2).stream == 2**64 - 1
    with pytest.raises(ValueError, match="too deep"):
        Seed(0, 2**44).derive(0)


def test_image_validation():
    g = Grid(3)
    img = Image(g, list(range(9)))
    assert img.values.dtype == np.float64
    assert img.as_matrix().shape == (3, 3)
    assert img.as_matrix()[1, 2] == 5.0
    with pytest.raises(ValueError):
        Image(g, np.zeros(8))
    with pytest.raises(ValueError):
        Image(g, [np.nan] + [0.0] * 8)
    z = Image.zeros(g)
    assert not z.values.any()
    cp = img.copy()
    cp.values[0] = 99
    assert img.values[0] == 0.0


def test_f32raw_round_trip_exact(tmp_path):
    g = Grid(5)
    rng = Seed(1).rng()
    # float32-representable values survive the round trip bit-exactly
    vals = rng.random(25).astype(np.float32).astype(np.float64)
    img = Image(g, vals)
    p = tmp_path / "img.f32raw"
    save_image(img, p, "f32raw")
    back = load_image(p)
    assert back.grid == g
    assert np.array_equal(back.values, vals)


def test_f32raw_header_is_json_line(tmp_path):
    p = tmp_path / "img.f32raw"
    save_image(Image.zeros(Grid(2)), p, "f32raw")
    blob = p.read_bytes()
    header, payload = blob.split(b"\n", 1)
    import json
    assert json.loads(header) == {"side": 2, "dtype": "f32le"}
    assert len(payload) == 4 * 4


def test_pgm16_bytes_on_disk(tmp_path):
    # [0, 4] maps onto [0, 65535]: 1.0 -> 16383.75 rounds up, 2.0 -> 32767.5
    # rounds half to even; the top row (i=1) comes first
    p = tmp_path / "img.pgm"
    save_image(Image(Grid(2), [0.0, 1.0, 2.0, 4.0]), p, "pgm16")
    assert p.read_bytes() == b"P5\n2 2\n65535\n" + b"\x80\x00\xff\xff\x00\x00\x40\x00"
    save_image(Image(Grid(2), [0.5] * 4), p, "pgm16")  # a constant image is all 0
    assert p.read_bytes() == b"P5\n2 2\n65535\n" + b"\x00" * 8


def test_pgm16_row_order_on_disk(tmp_path):
    # the bottom row (i=0) must be written last so viewers show y upward
    g = Grid(2)
    img = Image(g, [0.0, 0.0, 1.0, 1.0])  # top row (i=1) bright
    p = tmp_path / "img.pgm"
    save_image(img, p, "pgm16")
    payload = p.read_bytes().split(b"65535\n", 1)[1]
    first_row = np.frombuffer(payload[:4], dtype=">u2")
    assert np.array_equal(first_row, [65535, 65535])
    # a PGM is for viewing only and is not read back
    with pytest.raises(FormatError, match="unrecognized image file"):
        load_image(p)


def test_f32raw_bytes_on_disk(tmp_path):
    p = tmp_path / "img.f32raw"
    save_image(Image(Grid(2), [0.0, 1.0, -2.5, 0.125]), p, "f32raw")
    assert p.read_bytes() == (b'{"side":2,"dtype":"f32le"}\n'
                              b"\x00\x00\x00\x00\x00\x00\x80?\x00\x00 \xc0\x00\x00\x00>")


def test_format_errors_name_the_problem(tmp_path):
    cases = [
        (b"{\"side\":2}\n" + b"\x00" * 16, "dtype"),
        (b"{\"side\":2,\"dtype\":\"f32le\"}\n" + b"\x00" * 15, "15 bytes"),
        (b"{\"side\":2,\"dtype\":\"f32le\",\"extra\":1}\n" + b"\x00" * 16, "extra"),
        (b"{\"dtype\":\"f32le\"}\n" + b"\x00" * 16, "side"),
        (b"GIF89a", "unrecognized"),
    ]
    for blob, needle in cases:
        p = tmp_path / "bad.bin"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match=needle):
            load_image(p)


def test_save_image_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="png"):
        save_image(Image.zeros(Grid(2)), tmp_path / "x", "png")
