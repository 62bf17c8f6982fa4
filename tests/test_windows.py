import numpy as np
import pytest

from cohft.attention import AttentionConfig, init_attention_weights
from cohft.checks import check_window_weight_sharing, two_hop_covers_grid
from cohft.tensor import ShapeError, Tensor
from cohft.windows import (WindowPlan, init_mlp_weights, merge, partition,
                           residual_mlp, window_attention)

COMBOS = [(h, w, g) for h in (6, 12, 24) for w in (6, 12, 24) for g in (2, 3, 6)
          if h % g == 0 and w % g == 0]


def test_partition_merge_bijective_all_combos():
    rng = np.random.default_rng(0)
    for h, w, g in COMBOS:
        for mode in ("short", "long"):
            x = Tensor(rng.standard_normal((h, w, 3)))
            wins, plan = partition(x, g, mode)
            assert wins.shape == ((h * w) // (g * g), g, g, 3)
            assert np.array_equal(merge(wins, plan).data, x.data)


def test_index_map_is_a_permutation():
    for h, w, g in COMBOS:
        for mode in ("short", "long"):
            idx = WindowPlan(h, w, g, mode).index_map().reshape(-1, 2)
            seen = {(int(a), int(b)) for a, b in idx}
            assert len(seen) == h * w


def test_short_window_is_contiguous_block():
    plan = WindowPlan(6, 6, 3, "short")
    first = plan.index_map()[0].reshape(-1, 2)
    assert {tuple(map(int, yx)) for yx in first} == {(y, x) for y in range(3) for x in range(3)}


def test_long_window_is_dilated():
    # 4x4 grid, g = 2: stride is 2, first window hits the even lattice
    plan = WindowPlan(4, 4, 2, "long")
    first = plan.index_map()[0].reshape(-1, 2)
    assert {tuple(map(int, yx)) for yx in first} == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_partition_rejects_bad_extents():
    x = Tensor(np.zeros((7, 6, 2)))
    with pytest.raises(ShapeError):
        partition(x, 3, "short")
    with pytest.raises(ValueError):
        partition(Tensor(np.zeros((6, 6, 2))), 3, "diagonal")


def test_merge_rejects_mismatched_windows():
    x = Tensor(np.zeros((6, 6, 2)))
    _, plan = partition(x, 3, "short")
    with pytest.raises(ShapeError):
        merge(Tensor(np.zeros((4, 2, 2, 2))), plan)


def test_two_hop_reachability():
    for h, w, g in COMBOS:
        if g >= max(h, w) / g:
            assert two_hop_covers_grid(h, w, g), f"{h}x{w} g={g}"


def test_residual_mlp_safe_start_identity():
    rng = np.random.default_rng(1)
    w = init_mlp_weights(4, rng)  # second conv starts at zero
    x = Tensor(rng.standard_normal((5, 5, 4)))
    assert np.array_equal(residual_mlp(x, w).data, x.data)
    w2 = init_mlp_weights(4, rng, safe_start=False)
    assert np.abs(residual_mlp(x, w2).data - x.data).max() > 1e-6


def test_window_attention_matches_per_window_loop():
    check_window_weight_sharing(np.random.default_rng(2))


def test_window_attention_safe_start_identity():
    rng = np.random.default_rng(3)
    cfg = AttentionConfig(d=4, M=2, p=1, rho=1)
    aw = init_attention_weights(cfg, rng)
    mw = init_mlp_weights(4, rng)
    x = Tensor(rng.standard_normal((6, 6, 4)))
    for mode in ("short", "long"):
        assert np.array_equal(window_attention(x, 3, mode, aw, mw, cfg).data, x.data)
