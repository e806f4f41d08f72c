import numpy as np
import pytest

from cbss import imagepipe as ip
from cbss import unmixing
from cbss.errors import ConfigError, DimensionError


def gradient_images(w=96, h=64):
    """Three structured test images with distinct spatial autocovariances."""
    yy, xx = np.mgrid[0:h, 0:w]
    blocks = [
        np.stack([(xx % 37) / 36.0, (yy % 23) / 22.0, ((xx + yy) % 31) / 30.0], axis=2),
        np.stack([np.abs(np.sin(xx / 9.0)), np.abs(np.cos(yy / 7.0)),
                  ((xx * yy) % 29) / 28.0], axis=2),
        np.stack([((xx // 8) % 2) * 0.9 + 0.05, yy / (h - 1.0), (xx % 13) / 12.0], axis=2),
    ]
    return [ip.RgbImage.from_float(b) for b in blocks]


def surface_sweep():
    """Every quantized pixel on the six cube faces, the eight corners, and
    1e5 seeded random pixels snapped onto the surface, as one image row."""
    rng = np.random.default_rng(909)
    grid = np.arange(256, dtype=np.uint8)
    u, v = np.meshgrid(grid, grid, indexing="ij")
    faces = []
    for axis in range(3):
        for value in (0, 255):
            block = np.empty((256, 256, 3), dtype=np.uint8)
            block[..., axis] = value
            block[..., (axis + 1) % 3] = u
            block[..., (axis + 2) % 3] = v
            faces.append(block.reshape(-1, 3))
    corners = np.array([[r, g, b] for r in (0, 255) for g in (0, 255) for b in (0, 255)],
                       dtype=np.uint8)
    random_px = ip.color_correct(ip.RgbImage(
        width=100000, height=1,
        pixels=rng.integers(0, 256, size=(1, 100000, 3)).astype(np.uint8))).pixels.reshape(-1, 3)
    sweep = np.concatenate(faces + [corners, random_px], axis=0)
    return ip.RgbImage(width=sweep.shape[0], height=1, pixels=sweep[None, :, :])


def surface_pixels(rng, count):
    """Random quantized pixels snapped to the cube surface."""
    raw = rng.integers(0, 256, size=(1, count, 3)).astype(np.uint8)
    return ip.color_correct(ip.RgbImage(width=count, height=1, pixels=raw))


def test_color_correct_keeps_surface_points():
    img = ip.RgbImage(width=1, height=1, pixels=np.array([[[255, 102, 128]]], dtype=np.uint8))
    np.testing.assert_array_equal(ip.color_correct(img).pixels, img.pixels)


def test_color_correct_projects_interior_point():
    img = ip.RgbImage(width=1, height=1, pixels=np.array([[[179, 102, 128]]], dtype=np.uint8))
    out = ip.color_correct(img).pixels
    np.testing.assert_array_equal(out, [[[255, 102, 128]]])


def test_color_correct_tie_break_prefers_red():
    img = ip.RgbImage(width=1, height=1, pixels=np.array([[[127, 127, 127]]], dtype=np.uint8))
    out = ip.color_correct(img).pixels
    np.testing.assert_array_equal(out, [[[0, 127, 127]]])
    img = ip.RgbImage(width=1, height=1, pixels=np.array([[[128, 128, 128]]], dtype=np.uint8))
    np.testing.assert_array_equal(ip.color_correct(img).pixels, [[[255, 128, 128]]])


def test_color_correct_output_is_on_surface(rng):
    raw = rng.integers(0, 256, size=(20, 30, 3)).astype(np.uint8)
    out = ip.color_correct(ip.RgbImage(width=30, height=20, pixels=raw)).pixels
    on_surface = (out.min(axis=2) == 0) | (out.max(axis=2) == 255)
    assert bool(on_surface.all())


@pytest.mark.parametrize("pixels", [[[[300, 0, 0]]], [[[-1, 0, 0]]], [[[0.7, 0, 0]]],
                                    [[[np.nan, 0, 0]]], [[[True, False, True]]]])
def test_rgb_image_refuses_values_it_would_wrap(pixels):
    # a uint8 cast would store 300 as 44, -1 as 255 and 0.7 as 0
    with pytest.raises(ConfigError):
        ip.RgbImage(width=1, height=1, pixels=pixels)


def test_rgb_image_accepts_integer_pixels():
    img = ip.RgbImage(width=2, height=1, pixels=[[[0, 128, 255], [7, 8, 9]]])
    assert img.pixels.dtype == np.uint8
    np.testing.assert_array_equal(img.pixels, [[[0, 128, 255], [7, 8, 9]]])


# the (..., 3) formulas the plane-wise chain must reproduce bit for bit

def _reference_color_correct(pixels):
    p = 2.0 * (pixels.astype(float) / 255.0) - 1.0
    sel = np.argmax(np.abs(p), axis=-1)
    rows, cols = np.indices(sel.shape)
    p[rows, cols, sel] = np.where(p[rows, cols, sel] >= 0.0, 1.0, -1.0)
    return _reference_quantize((p + 1.0) / 2.0)


def _reference_quantize(c):
    return np.clip(np.round(c * 255.0), 0, 255).astype(np.uint8)


def _reference_rgb_to_complex(pixels):
    p = 2.0 * (pixels.astype(float) / 255.0) - 1.0
    assert np.all(np.abs(np.max(np.abs(p), axis=-1) - 1.0) <= 1e-9)
    s = p / np.linalg.norm(p, axis=-1, keepdims=True)
    plane_sq = s[..., 0] ** 2 + s[..., 1] ** 2
    upper = s[..., 2] > 0.0
    denom = np.where(upper, plane_sq / np.where(upper, 1.0 + s[..., 2], 1.0), 1.0 - s[..., 2])
    return (s[..., 0] + 1j * s[..., 1]) / denom


def _reference_stereographic_inverse(z):
    sq = np.abs(z) ** 2
    denom = sq + 1.0
    out = np.empty(z.shape + (3,), dtype=float)
    out[..., 0] = 2.0 * z.real / denom
    out[..., 1] = 2.0 * z.imag / denom
    out[..., 2] = (sq - 1.0) / denom
    return out


def _reference_complex_to_rgb(z):
    s = _reference_stereographic_inverse(z)
    p = s / np.max(np.abs(s), axis=-1, keepdims=True)
    return _reference_quantize((p + 1.0) / 2.0)


def test_chain_matches_reference_formulas():
    # color_correct on all 2^24 pixels, 2^20 at a time
    for red in range(0, 256, 16):
        v = np.arange(red << 16, (red + 16) << 16, dtype=np.uint32)
        block = np.stack([v >> 16, (v >> 8) & 255, v & 255], axis=-1).astype(np.uint8)
        block = block.reshape(1024, 1024, 3)
        got = ip.color_correct(ip.RgbImage(width=1024, height=1024, pixels=block)).pixels
        assert got.tobytes() == _reference_color_correct(block).tobytes(), red

    sweep = surface_sweep()
    got = ip.rgb_to_complex(sweep).values
    assert got.tobytes() == _reference_rgb_to_complex(sweep.pixels).tobytes()

    rng = np.random.default_rng(2024)
    z = rng.standard_normal((500, 400)) + 1j * rng.standard_normal((500, 400))
    z *= np.exp(rng.uniform(-8.0, 8.0, z.shape)) / np.abs(z)
    got = np.stack(ip._stereographic_inverse(z), axis=-1)
    assert got.tobytes() == _reference_stereographic_inverse(z).tobytes()
    for values in (z, np.asfortranarray(z)):
        got = ip.complex_to_rgb(ip.ComplexImage(width=400, height=500, values=values)).pixels
        assert got.tobytes() == _reference_complex_to_rgb(values).tobytes()


def test_huge_values_render_the_north_pole_colour():
    # |z|^2 overflows from about 1.3e154 on; such values used to render black
    # with an overflow warning, while 1e100 already rendered the pole colour
    values = np.array([[1e100, 1e155j, 1e200, -1.7e308 - 1.7e308j]])
    np.testing.assert_array_equal(ip._stereographic_inverse(values[0, 1:]),
                                  [[0.0] * 3, [0.0] * 3, [1.0] * 3])
    got = ip.complex_to_rgb(ip.ComplexImage(width=4, height=1, values=values)).pixels
    assert got.tolist() == [[[128, 128, 255]] * 4]


def test_cube_sphere_examples():
    np.testing.assert_allclose(ip._cube_to_sphere(1.0, 0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(ip._cube_to_sphere(1.0, 1.0, 1.0),
                               np.ones(3) / np.sqrt(3), atol=1e-15)


def test_cube_sphere_round_trip(rng):
    pixels = surface_pixels(rng, 500)
    p = 2.0 * pixels.as_float()[0] - 1.0
    s = ip._cube_to_sphere(*ip._planes(p))
    back = np.stack([sk / ip._max_modulus(*s) for sk in s], axis=-1)
    assert np.max(np.abs(back - p)) < 1e-12


def test_cube_to_sphere_rejects_off_surface():
    # an interior pixel, not snapped by color_correct
    img = ip.RgbImage(width=1, height=1, pixels=[[[191, 128, 128]]])
    with pytest.raises(ValueError, match="cube surface"):
        ip.rgb_to_complex(img)


def test_stereographic_examples():
    np.testing.assert_allclose(ip._stereographic(0.0, 0.0, -1.0), 0.0, atol=1e-15)
    np.testing.assert_allclose(ip._stereographic(1.0, 0.0, 0.0), 1.0, atol=1e-15)
    np.testing.assert_allclose(ip._stereographic(0.0, 1.0, 0.0), 1j, atol=1e-15)


def test_stereographic_rejects_north_pole():
    with pytest.raises(ValueError):
        ip._stereographic(0.0, 0.0, 1.0)


def test_stereographic_plane_round_trip(rng):
    z = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
    z *= np.exp(rng.uniform(0, 12, 2000))
    z = z[np.abs(z) <= 1e6]
    back = ip._stereographic(*ip._stereographic_inverse(z))
    rel = np.abs(back - z) / np.maximum(np.abs(z), 1e-12)
    assert np.max(rel) < 1e-9


def test_rgb_complex_round_trip(rng):
    img = surface_pixels(rng, 100000)
    back = ip.complex_to_rgb(ip.rgb_to_complex(img))
    diff = np.abs(back.pixels.astype(int) - img.pixels.astype(int))
    assert diff.max() <= 1


def test_corner_pixels_round_trip():
    corners = np.array([[[r, g, b] for r in (0, 255) for g in (0, 255) for b in (0, 255)]],
                       dtype=np.uint8)
    img = ip.RgbImage(width=8, height=1, pixels=corners)
    back = ip.complex_to_rgb(ip.rgb_to_complex(img))
    diff = np.abs(back.pixels.astype(int) - img.pixels.astype(int))
    assert diff.max() <= 1


def test_separate_images_identity():
    imgs = gradient_images()
    res = ip.separate_images(imgs, tau=1, mixing="identity")
    assert res.md == 0.0
    corrected = [ip.color_correct(im) for im in imgs]
    for got, want in zip(res.unmixed, corrected):
        np.testing.assert_array_equal(got.pixels, want.pixels)


def test_separate_images_seeded_run():
    imgs = gradient_images()
    res = ip.separate_images(imgs, tau=1, mixing="random", seed=5)
    assert res.md < 0.3
    again = ip.separate_images(imgs, tau=1, mixing="random", seed=5)
    for a, b in zip(res.unmixed, again.unmixed):
        np.testing.assert_array_equal(a.pixels, b.pixels)
    assert res.md == again.md


def test_separate_images_explicit_mixing():
    imgs = gradient_images(w=48, h=32)
    mixing = np.eye(3) + 0.2j * np.eye(3)[::-1]
    res = ip.separate_images(imgs, tau=1, mixing=mixing)
    np.testing.assert_array_equal(res.mixing, mixing)
    assert 0.0 <= res.md <= 1.0


def test_separate_images_dimension_mismatch():
    imgs = gradient_images()
    other = gradient_images(w=50, h=50)
    with pytest.raises(DimensionError):
        ip.separate_images([imgs[0], imgs[1], other[0]], tau=1)
    with pytest.raises(DimensionError):
        ip.separate_images(imgs[:2], tau=1)


def test_phase_rotation_recolors_bijectively():
    # a phase rotation keeps the moduli (the shape content); each angle
    # must render in its own colours
    imgs = gradient_images(w=32, h=24)
    ci = ip.rgb_to_complex(ip.color_correct(imgs[0]))
    renders = [ip.complex_to_rgb(ip.ComplexImage(width=32, height=24,
                                                 values=np.exp(1j * theta) * ci.values)).pixels
               for theta in (np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4)]
    assert not np.array_equal(renders[0], renders[1])
    assert not np.array_equal(renders[1], renders[2])
    assert not np.array_equal(renders[0], renders[2])


def test_lag_sweep_prefers_spatial_lags():
    imgs = gradient_images(w=48, h=40)
    corrected = [ip.color_correct(im) for im in imgs]
    series = np.stack([ip.rgb_to_complex(im).values.flatten(order="F")
                       for im in corrected], axis=1)
    height = 40
    rows = unmixing.lag_sweep(series, [1, height, height + 1, 977])
    ranked = [row["tau"] for row in rows]
    assert ranked.index(977) == len(ranked) - 1


def test_ppm_round_trip(tmp_path, rng):
    raw = rng.integers(0, 256, size=(17, 23, 3)).astype(np.uint8)
    img = ip.RgbImage(width=23, height=17, pixels=raw)
    path = tmp_path / "img.ppm"
    ip.write_ppm(img, path)
    back = ip.read_ppm(path)
    assert back.width == 23 and back.height == 17
    np.testing.assert_array_equal(back.pixels, img.pixels)
    # bytes are stable across writes
    ip.write_ppm(back, tmp_path / "img2.ppm")
    assert (tmp_path / "img.ppm").read_bytes() == (tmp_path / "img2.ppm").read_bytes()


def test_ppm_header_with_comments(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
    img = ip.read_ppm(path)
    assert img.width == 2 and img.height == 1
    # a comment between every pair of header fields
    path.write_bytes(b"P6 # magic\n3 # width\n# more\n1\t# height\n255\n" + bytes(9))
    img = ip.read_ppm(path)
    assert img.width == 3 and img.height == 1


def test_ppm_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P5\n2 1\n255\n" + bytes(2))
    with pytest.raises(ConfigError):
        ip.read_ppm(bad)
    bad.write_bytes(b"P6\n2 1\n65535\n" + bytes(12))
    with pytest.raises(ConfigError):
        ip.read_ppm(bad)
    bad.write_bytes(b"P6\n2 1\n255\n" + bytes(3))
    with pytest.raises(ConfigError):
        ip.read_ppm(bad)
    # header cut off before maxval, or inside a comment
    for header in (b"P6\n2 1\n", b"P6\n2 1 # no end"):
        bad.write_bytes(header)
        with pytest.raises(ConfigError, match="header"):
            ip.read_ppm(bad)
