import numpy as np
import pytest

from cohft.resample import bicubic_resize, bicubic_upsample, degrade


def test_constant_preserved_exactly():
    img = np.full((12, 12), 0.37)
    up = bicubic_resize(img, 24, 24)
    assert np.allclose(up, 0.37, atol=1e-12)
    down = bicubic_resize(img, 6, 6)
    assert np.allclose(down, 0.37, atol=1e-12)


def test_linear_ramp_reproduced_in_interior():
    x = np.linspace(0.0, 1.0, 16)
    img = np.tile(x, (16, 1))
    up = bicubic_resize(img, 16, 32)
    centers = (np.arange(32) + 0.5) * 0.5 - 0.5
    want = np.interp(centers, np.arange(16), x)
    assert np.allclose(up[8, 4:-4], want[4:-4], atol=1e-10)


def test_degrade_shapes_and_clamp():
    rng = np.random.default_rng(0)
    hr = rng.uniform(0, 1, (24, 24))
    lr = degrade(hr, 2)
    assert lr.shape == (12, 12)
    assert lr.min() >= 0.0 and lr.max() <= 1.0
    assert np.array_equal(degrade(hr, 1), hr)
    with pytest.raises(ValueError):
        degrade(rng.uniform(0, 1, (25, 24)), 2)


def test_upsample_shapes_and_identity_factor():
    rng = np.random.default_rng(1)
    lr = rng.uniform(0, 1, (12, 12))
    up = bicubic_upsample(lr, 4)
    assert up.shape == (48, 48)
    assert up.min() >= 0.0 and up.max() <= 1.0
    assert np.array_equal(bicubic_upsample(lr, 1), lr)
    # out-of-range LR values are clamped at r = 1 as at every other factor
    lr[1, 1], lr[2, 3] = -0.2, 1.3
    assert np.array_equal(bicubic_upsample(lr, 1), np.clip(lr, 0.0, 1.0))
    assert bicubic_upsample(lr, 2).min() >= 0.0 and bicubic_upsample(lr, 2).max() <= 1.0


def test_channel_last_passthrough():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 1, (8, 8, 3))
    out = bicubic_resize(img, 16, 16)
    assert out.shape == (16, 16, 3)
    for c in range(3):
        assert np.allclose(out[:, :, c], bicubic_resize(img[:, :, c], 16, 16), atol=1e-12)


def test_symmetry_preserved():
    rng = np.random.default_rng(3)
    half = rng.uniform(0, 1, (10, 5))
    img = np.concatenate([half, half[:, ::-1]], axis=1)
    up = bicubic_upsample(img, 2)
    assert np.allclose(up, up[:, ::-1], atol=1e-12)


def test_downsample_then_upsample_stays_close():
    # smooth content should round-trip with small error
    y, x = np.mgrid[0:24, 0:24] / 24.0
    img = 0.5 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    back = bicubic_upsample(degrade(img, 2), 2)
    assert np.abs(back - img).mean() < 0.02
