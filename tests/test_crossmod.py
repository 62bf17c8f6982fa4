import numpy as np
import pytest

from cohft.checks import (check_instance_standardize_moments, check_inter_modality_shape,
                          check_standardize_shift_invariance)
from cohft.crossmod import (IN_EPS, adain, adain_apply, channel_moments, compute_affine,
                            init_adain_weights, init_inter_modality_weights,
                            inter_modality_attention)
from cohft.tensor import ShapeError, Tensor


def test_channel_moments_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 9, 3)) * 2.5 - 1.0
    mu, sigma = channel_moments(Tensor(x))
    assert np.allclose(mu.data, x.mean((0, 1)), atol=1e-12)
    assert np.allclose(sigma.data, np.sqrt(x.var((0, 1)) + IN_EPS), atol=1e-12)


def test_standardize_moments():
    check_instance_standardize_moments(np.random.default_rng(1))


def test_standardize_shift_invariance():
    check_standardize_shift_invariance(np.random.default_rng(2))


def test_alignment_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    x1 = rng.standard_normal((4, 4, 3)) * 1.7 + 0.3
    x2 = rng.standard_normal((8, 8, 3)) * 0.6
    w = init_adain_weights(3, 2, rng)
    out = adain(Tensor(x1), Tensor(x2), w, 2).data
    mu1, sd1 = x1.mean((0, 1)), np.sqrt(x1.var((0, 1)) + IN_EPS)
    mu2, sd2 = x2.mean((0, 1)), np.sqrt(x2.var((0, 1)) + IN_EPS)
    want = (x2 - mu2) / sd2 * sd1 + mu1
    assert np.allclose(out, want, atol=1e-10)


def test_affine_offsets_are_pointwise():
    # gamma[x, y] adds to every channel's sigma at its pixel, around the aligned mean
    rng = np.random.default_rng(5)
    x2_std = Tensor(rng.standard_normal((4, 4, 3)))
    mu1 = Tensor(np.array([1.0, 2.0, 3.0]))
    sigma1 = Tensor(np.array([0.5, 1.0, 1.5]))
    gamma = Tensor(rng.standard_normal((4, 4, 1)))
    out = adain_apply(x2_std, mu1, sigma1, gamma).data
    want = x2_std.data * (sigma1.data + gamma.data) + mu1.data
    assert np.allclose(out, want, atol=1e-12)


def test_affine_shape_error():
    rng = np.random.default_rng(6)
    w = init_adain_weights(3, 2, rng)
    with pytest.raises(ShapeError):
        compute_affine(Tensor(rng.standard_normal((4, 4, 3))),
                       Tensor(rng.standard_normal((6, 6, 3))), w, 2)


def test_nonzero_affine_changes_output():
    rng = np.random.default_rng(7)
    x1 = Tensor(rng.standard_normal((4, 4, 3)))
    x2 = Tensor(rng.standard_normal((8, 8, 3)))
    w0 = init_adain_weights(3, 2, rng)
    w1 = init_adain_weights(3, 2, rng, safe_start=False)
    w1.expand_w, w1.expand_b = w0.expand_w, w0.expand_b
    w1.fuse_w, w1.fuse_b = w0.fuse_w, w0.fuse_b
    a = adain(x1, x2, w0, 2).data
    b = adain(x1, x2, w1, 2).data
    assert np.abs(a - b).max() > 1e-6


def test_inter_modality_safe_start_identity():
    rng = np.random.default_rng(8)
    w = init_inter_modality_weights(4, 2, 2, 2, rng)
    x1 = Tensor(rng.standard_normal((6, 6, 4)))
    x2 = Tensor(rng.standard_normal((12, 12, 4)))
    out = inter_modality_attention(x1, x2, w, 2)
    assert np.array_equal(out.data, x1.data)


def test_inter_modality_output_shape_and_switches():
    rng = np.random.default_rng(9)
    check_inter_modality_shape(rng)
    w = init_inter_modality_weights(4, 2, 2, 2, rng, safe_start=False)
    x1 = Tensor(rng.standard_normal((6, 6, 4)))
    x2 = Tensor(rng.standard_normal((12, 12, 4)))
    base = inter_modality_attention(x1, x2, w, 2)
    no_adain = inter_modality_attention(x1, x2, w, 2, use_adain=False)
    assert np.abs(base.data - no_adain.data).max() > 1e-6
    no_inter_head = inter_modality_attention(x1, x2, w, 2, use_inter_head=False)
    assert np.abs(base.data - no_inter_head.data).max() > 1e-6
