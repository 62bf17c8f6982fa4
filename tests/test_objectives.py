import dataclasses
import math

import numpy as np
import pytest
from scipy.signal import convolve2d

from cohft.checks import check_loss_gradients, finite_diff_check
from cohft.losses import (GRAD_EPS, SSIM_C1, SSIM_C2, SSIM_SIGMA, SSIM_WINDOW, LossConfig,
                          gradient_map, loss_c, loss_in, mse, objective, objective_extents, psnr,
                          ssim)
from cohft.tensor import ShapeError, Tensor


def test_gradient_map_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (9, 7, 1))
    got = gradient_map(Tensor(img)).data
    dy = np.zeros_like(img)
    dy[:-1] = img[1:] - img[:-1]
    dx = np.zeros_like(img)
    dx[:, :-1] = img[:, 1:] - img[:, :-1]
    want = np.sqrt(dx ** 2 + dy ** 2 + GRAD_EPS)
    assert np.allclose(got, want, atol=1e-12)


def ssim_oracle(a, b):
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA ** 2))
    k = np.outer(g, g)
    k /= k.sum()

    def blur(x):
        return convolve2d(x, k[::-1, ::-1], mode="valid")

    mu_a, mu_b = blur(a), blur(b)
    var_a = blur(a * a) - mu_a ** 2
    var_b = blur(b * b) - mu_b ** 2
    cov = blur(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a ** 2 + mu_b ** 2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return (num / den).mean()


def test_ssim_matches_independent_oracle():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 1, (20, 20))
    b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)
    got = ssim(Tensor(a[:, :, None]), Tensor(b[:, :, None])).item()
    assert abs(got - ssim_oracle(a, b)) <= 1e-10


def test_ssim_rejects_small_images():
    with pytest.raises(ShapeError):
        ssim(Tensor(np.zeros((8, 8, 1))), Tensor(np.zeros((8, 8, 1))))


def test_ssim_is_differentiable():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(0.2, 0.8, (16, 16, 1)), requires_grad=True)
    y = Tensor(rng.uniform(0.2, 0.8, (16, 16, 1)))
    finite_diff_check(lambda: ssim(x, y), [("x", x)], 4, rng, tol=1e-4)


def test_mse_and_psnr():
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)
    assert abs(mse(Tensor(a), Tensor(b)).item() - 0.01) <= 1e-15
    assert abs(psnr(a, b) - 20.0) <= 1e-9
    assert psnr(a, a) == math.inf


def test_loss_composition():
    rng = np.random.default_rng(6)
    cfg = LossConfig(alpha=0.95, lam=0.5)
    i_out = Tensor(rng.uniform(0, 1, (16, 16, 1)))
    i_gt = Tensor(rng.uniform(0, 1, (16, 16, 1)))
    r_out = Tensor(rng.uniform(0, 1, (16, 16, 1)))
    li = loss_in(i_out, i_gt, cfg).item()
    lc = loss_c(r_out, gradient_map(i_gt, cfg.epsilon_grad), cfg).item()
    total, li_got, lc_got = (t.item() for t in objective(i_out, r_out, i_gt, cfg))
    assert total == cfg.total(li, lc) == li + 0.5 * lc
    assert (li_got, lc_got) == (li, lc)
    want_li = 0.95 * mse(i_out, i_gt).item() - 0.05 * ssim(i_out, i_gt).item()
    assert abs(li - want_li) <= 1e-12


def test_pure_mse_configuration():
    rng = np.random.default_rng(7)
    cfg = LossConfig(alpha=1.0, lam=0.0)
    a = Tensor(rng.uniform(0, 1, (16, 16, 1)))
    b = Tensor(rng.uniform(0, 1, (16, 16, 1)))
    want = mse(a, b).item() - 0.0 * ssim(a, b).item()
    assert abs(loss_in(a, b, cfg).item() - want) <= 1e-15


def test_total_loss_gradients():
    check_loss_gradients(np.random.default_rng(8))


def test_objective_rejects_ground_truth_of_other_extents():
    out = Tensor(np.zeros((16, 16, 1)))
    for gt in (np.zeros((8, 8, 1)), np.zeros((1, 16, 1))):  # the second would broadcast
        with pytest.raises(ShapeError, match="ground truth"):
            objective(out, out, Tensor(gt))


def test_objective_extents():
    cfg, pure_mse = LossConfig(), LossConfig(alpha=1.0, lam=0.0)
    with pytest.raises(ShapeError) as err:
        objective_extents((24, 24, 1), (1, 48, 1), pure_mse)
    assert str(err.value) == "ground truth extents (1, 48, 1) do not match the output's (24, 24, 1)"
    with pytest.raises(ShapeError, match=r"^ssim needs extents >= 11, got 6x6$"):
        objective_extents((6, 6, 1), (6, 6, 1), cfg)
    objective_extents((6, 6, 1), (6, 6, 1), pure_mse)  # MSE alone needs no window
    objective_extents((24, 24, 1), (24, 24, 1), cfg)


def test_loss_config_fields():
    # the weights are the only settable fields; the gradient-map epsilon is a constant
    assert [f.name for f in dataclasses.fields(LossConfig)] == ["alpha", "lam"]
    assert LossConfig().epsilon_grad == GRAD_EPS
