import math
import struct

import numpy as np
import pytest

import geopursuit as gp
from conftest import mexican_hat, quad_inner_product

# Continuum inner product of two unit Mexican Hat atoms at scale 8, offset 4,
# frozen from 16x-oversampled quadrature (resolution-stable to 1e-13).
MH_OFFSET4_SCALE8 = 0.709452573478927


def test_signal_buffer_invariants():
    buf = gp.SignalBuffer([1.0, 2.0, 2.0])
    assert buf.shape == (3,)
    assert buf.norm() == pytest.approx(3.0)
    assert gp.SignalBuffer.zeros((4, 5)).norm() == 0.0
    with pytest.raises(ValueError):
        gp.SignalBuffer(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        gp.SignalBuffer(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        gp.SignalBuffer(np.zeros(0))


def test_buffer_is_read_only():
    buf = gp.SignalBuffer([1.0, 2.0])
    with pytest.raises(ValueError):
        buf.data[0] = 5.0


def test_inner_product_unit_atom():
    d = gp.Affine1DDictionary(256)
    g = d.synthesize(d.point(128.0, 8.0))
    assert gp.inner_product(g, g) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_zero_vector():
    d = gp.Affine1DDictionary(64)
    g = d.synthesize(d.point(32.0, 4.0))
    z = gp.SignalBuffer.zeros((64,))
    assert gp.inner_product(g, z) == 0.0


def test_inner_product_shape_mismatch():
    with pytest.raises(ValueError):
        gp.inner_product(gp.SignalBuffer.zeros((4,)), gp.SignalBuffer.zeros((5,)))


def test_inner_product_matches_continuum_quadrature():
    # interior atoms: the unit-spaced sum matches 16x quadrature to 1e-6
    d = gp.Affine1DDictionary(256)
    u = d.synthesize(d.point(120.0, 8.0))
    v = d.synthesize(d.point(124.0, 8.0))
    val = gp.inner_product(u, v)
    oracle = quad_inner_product(lambda t: mexican_hat((t - 120.0) / 8.0),
                                lambda t: mexican_hat((t - 124.0) / 8.0),
                                -2000.0, 2000.0, oversample=16)
    assert oracle == pytest.approx(MH_OFFSET4_SCALE8, abs=1e-9)
    assert val == pytest.approx(oracle, abs=1e-6)


def test_inner_product_truncated_pair_near_quadrature():
    # A half-truncated atom (b=0) leaves an O(sample) edge term in any
    # quadrature convention; agreement degrades from 1e-6 to ~1e-3.
    d = gp.Affine1DDictionary(256)
    u = d.synthesize(d.point(0.0, 8.0))
    v = d.synthesize(d.point(4.0, 8.0))
    val = gp.inner_product(u, v)
    oracle = quad_inner_product(lambda t: mexican_hat(t / 8.0),
                                lambda t: mexican_hat((t - 4.0) / 8.0),
                                0.0, 256.0, oversample=64)
    assert val == pytest.approx(oracle, abs=2e-3)


def test_cauchy_schwarz(rng):
    for _ in range(50):
        u = gp.SignalBuffer(rng.standard_normal(73))
        v = gp.SignalBuffer(rng.standard_normal(73))
        assert abs(gp.inner_product(u, v)) <= u.norm() * v.norm() + 1e-12


def test_residual_update_bookkeeping(rng):
    # ||u - c g||^2 = ||u||^2 - 2c<g,u> + c^2 ||g||^2
    d = gp.Affine1DDictionary(128)
    g = d.synthesize(d.point(60.0, 5.0))
    for _ in range(20):
        u = gp.SignalBuffer(rng.standard_normal(128))
        c = rng.uniform(-2, 2)
        lhs = gp.SignalBuffer(u.data - c * g.data).energy()
        rhs = u.energy() - 2 * c * gp.inner_product(g, u) + c * c * g.energy()
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_psnr_exact_match_is_capped():
    a = gp.SignalBuffer(np.full((8, 8), 10.0), peak_hint=255.0)
    assert gp.psnr(a, a) == gp.PSNR_CAP


def test_psnr_one_grey_level():
    ref = gp.SignalBuffer(np.full((16, 16), 255.0), peak_hint=255.0)
    approx = gp.SignalBuffer(np.full((16, 16), 254.0))
    assert gp.psnr(ref, approx) == pytest.approx(48.1308036086791, abs=1e-10)


def test_psnr_zero_db_when_mse_equals_peak_squared():
    ref = gp.SignalBuffer(np.zeros(32), peak_hint=7.0)
    approx = gp.SignalBuffer(np.full(32, 7.0))
    assert gp.psnr(ref, approx) == pytest.approx(0.0, abs=1e-12)


def test_psnr_peak_defaults():
    ref = gp.SignalBuffer(np.array([0.0, -4.0, 2.0]))
    approx = gp.SignalBuffer(np.array([0.0, -4.0, 0.0]))
    # default peak = max|ref| = 4
    expected = 10 * math.log10(16.0 / (4.0 / 3.0))
    assert gp.psnr(ref, approx) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        gp.psnr(gp.SignalBuffer.zeros((3,)), approx)  # zero peak
    with pytest.raises(ValueError):
        gp.psnr(ref, gp.SignalBuffer.zeros((4,)))  # shape mismatch


def test_raw_roundtrip_bit_exact(tmp_path, rng):
    buf = gp.SignalBuffer(rng.standard_normal(128))
    path = tmp_path / "sig.bin"
    gp.save_signal(buf, path)
    back = gp.load_signal(path)
    assert back.shape == buf.shape
    assert back.data.tobytes() == buf.data.tobytes()


def test_raw_roundtrip_2d(tmp_path, rng):
    buf = gp.SignalBuffer(rng.standard_normal((17, 9)))
    path = tmp_path / "img.bin"
    gp.save_signal(buf, path)
    back = gp.load_signal(path)
    assert back.shape == (17, 9)
    assert back.data.tobytes() == buf.data.tobytes()


def test_raw_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        gp.load_signal(path)
    path.write_bytes(b"GPSB")
    with pytest.raises(ValueError):
        gp.load_signal(path)
    # the sample count of the largest dims is named as it is, with no wrap
    big = 2**32 - 1
    path.write_bytes(struct.pack("<4sIII", b"GPSB", 2, big, big) + b"\x00" * 16)
    with pytest.raises(ValueError, match=rf"payload size 16 != 8\*{big * big}$"):
        gp.load_signal(path)


def test_csv_parse_and_roundtrip(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("1.0,2.0,3.0\n")
    buf = gp.load_signal(path)
    assert buf.shape == (3,)
    assert list(buf.data) == [1.0, 2.0, 3.0]

    img = gp.SignalBuffer(np.array([[1.5, -2.25], [0.0, 1e-17]]))
    out = tmp_path / "img.csv"
    gp.save_signal(img, out)
    back = gp.load_signal(out)
    assert back.shape == (2, 2)
    np.testing.assert_array_equal(back.data, img.data)


def test_csv_refuses_one_row_images(tmp_path):
    # one CSV row is also the form of a 1-D signal, so (1, N) would reload as (N,)
    row_image = gp.SignalBuffer(np.arange(6.0).reshape(1, 6))
    with pytest.raises(ValueError, match="raw-f64-le"):
        gp.save_signal(row_image, tmp_path / "row.csv")
    assert not (tmp_path / "row.csv").exists()
    gp.save_signal(row_image, tmp_path / "row.bin")
    assert gp.load_signal(tmp_path / "row.bin").shape == (1, 6)
    column = gp.SignalBuffer(np.arange(6.0).reshape(6, 1))
    gp.save_signal(column, tmp_path / "column.csv")
    assert gp.load_signal(tmp_path / "column.csv").shape == (6, 1)


def test_csv_rejects_ragged(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        gp.load_signal(path)


def test_pgm_constant_image(tmp_path):
    img = gp.SignalBuffer(np.full((64, 64), 128.0))
    path = tmp_path / "grey.pgm"
    gp.save_signal(img, path)
    back = gp.load_signal(path)
    assert back.shape == (64, 64)
    assert np.all(back.data == 128.0)
    assert back.peak_hint == 255.0


def test_pgm_quantizes(tmp_path):
    img = gp.SignalBuffer(np.array([[0.4, 300.0], [-5.0, 17.6]]))
    path = tmp_path / "q.pgm"
    gp.save_signal(img, path)
    back = gp.load_signal(path)
    np.testing.assert_array_equal(back.data, [[0.0, 255.0], [0.0, 18.0]])


def test_pgm_rejects_1d_and_bad_headers(tmp_path):
    with pytest.raises(ValueError):
        gp.save_signal(gp.SignalBuffer(np.zeros(4)), tmp_path / "x.pgm")
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ValueError):
        gp.load_signal(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ValueError):
        gp.load_signal(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(ValueError):
        gp.load_signal(path)


def test_pgm_peak_is_the_files_maxval(tmp_path):
    # a 4-bit image's PSNR is measured against its own range, 15, not 255
    path = tmp_path / "four_bit.pgm"
    path.write_bytes(b"P5 2 2 15\n\x00\x05\x0a\x0f")
    img = gp.load_signal(path)
    assert img.peak_hint == 15.0
    assert gp.psnr(img, gp.SignalBuffer(img.data + 1.0)) == pytest.approx(20 * math.log10(15))
    path.write_bytes(b"P5 2 2 15\n\x00\x05\x0a\x10")
    with pytest.raises(ValueError, match="exceeds maxval"):
        gp.load_signal(path)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
    buf = gp.load_signal(path)
    np.testing.assert_array_equal(buf.data, [[7.0, 9.0]])
