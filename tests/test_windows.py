import numpy as np
import pytest

from cohft.attention import init_attention_weights
from cohft import windows
from cohft.checks import (check_two_hop_reachability, check_window_bijectivity,
                          check_window_weight_sharing, window_coords)
from cohft.tensor import ShapeError, Tensor
from cohft.windows import init_mlp_weights, merge, partition, residual_mlp, window_attention

COMBOS = [(h, w, g) for h in (6, 12, 24) for w in (6, 12, 24) for g in (2, 3, 6)
          if h % g == 0 and w % g == 0]


def test_partition_merge_bijective_all_combos():
    rng = np.random.default_rng(0)
    for h, w, g in COMBOS:
        for mode in ("short", "long"):
            x = Tensor(rng.standard_normal((h, w, 3)))
            wins = partition(x, g, mode)
            assert wins.shape == ((h * w) // (g * g), g, g, 3)
            assert np.array_equal(merge(wins, h, w, mode).data, x.data)


def test_window_coords_are_a_permutation():
    for h, w, g in COMBOS:
        for mode in ("short", "long"):
            idx = window_coords(h, w, g, mode).reshape(-1, 2)
            assert len({(int(a), int(b)) for a, b in idx}) == h * w


def slot_offsets(g, dy, dx):
    """[g, g, 2] offsets of each window slot from slot (0, 0), for row and column strides."""
    ys, xs = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    return np.stack([ys * dy, xs * dx], axis=-1)


def test_short_window_is_contiguous_block():
    # window (a, b) is the g x g block whose corner is (a g, b g)
    for h, w, g in COMBOS:
        for n, win in enumerate(window_coords(h, w, g, "short")):
            a, b = divmod(n, w // g)
            assert tuple(win[0, 0]) == (a * g, b * g)
            assert np.array_equal(win - win[0, 0], slot_offsets(g, 1, 1))


def test_long_window_is_dilated():
    # window (a, b) starts at pixel (a, b); its slots lie h/g rows and w/g columns apart
    for h, w, g in COMBOS:
        for n, win in enumerate(window_coords(h, w, g, "long")):
            assert tuple(win[0, 0]) == divmod(n, w // g)
            assert np.array_equal(win - win[0, 0], slot_offsets(g, h // g, w // g))


@pytest.mark.parametrize("mutant, error", [
    (lambda h, w, g: ((h // g, g, w // g, g), (0, 2, 1, 3)), AssertionError),  # long cut like short
    # long strides swapped: on the checks' non-square maps the factors do not fit
    # the axes they split, which rearrange rejects
    (lambda h, w, g: ((g, w // g, g, h // g), (1, 3, 0, 2)), ShapeError),
], ids=["long-as-short", "long-strides-swapped"])
def test_window_checks_catch_a_wrong_long_layout(monkeypatch, mutant, error):
    # the checks read the layout through partition, so a wrong long layout fails
    # both, though merge still undoes partition
    layout = windows._layout
    monkeypatch.setattr(windows, "_layout",
                        lambda h, w, g, mode: mutant(h, w, g) if mode == "long" else layout(h, w, g, mode))
    for check in (check_window_bijectivity, check_two_hop_reachability):
        with pytest.raises(error):
            check(np.random.default_rng(0))


def test_partition_rejects_bad_extents():
    x = Tensor(np.zeros((7, 6, 2)))
    with pytest.raises(ShapeError):
        partition(x, 3, "short")
    with pytest.raises(ValueError):
        partition(Tensor(np.zeros((6, 6, 2))), 3, "diagonal")


def test_merge_rejects_mismatched_windows():
    x = Tensor(np.zeros((6, 6, 2)))
    wins = partition(x, 3, "short")
    assert np.array_equal(merge(wins, 6, 6, "short").data, x.data)
    with pytest.raises(ShapeError):
        merge(Tensor(np.zeros((4, 2, 2, 2))), 6, 6, "short")
    with pytest.raises(ShapeError):
        merge(wins, 6, 3, "short")


def test_two_hop_reachability():
    check_two_hop_reachability(np.random.default_rng(4), COMBOS)


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
    aw = init_attention_weights(4, 2, rng)
    mw = init_mlp_weights(4, rng)
    x = Tensor(rng.standard_normal((6, 6, 4)))
    for mode in ("short", "long"):
        assert np.array_equal(window_attention(x, 3, mode, aw, mw).data, x.data)
