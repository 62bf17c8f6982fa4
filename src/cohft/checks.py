"""Verification suite: every module invariant plus gradient checks, run in-process.

Each check is a named callable that raises AssertionError on failure;
run_all_checks collects results so the CLI can print one line per invariant.
All checks run at 64-bit precision.
"""
from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import basic_attention, init_attention_weights, intra_head_attention
from .crossmod import (IN_EPS, adain, channel_moments, init_adain_weights,
                       init_inter_modality_weights, instance_standardize,
                       inter_modality_attention)
from .data import PhantomSpec, make_pair, synth_phantom
from .losses import (SSIM_SIGMA, SSIM_WINDOW, LossConfig, gaussian_taps, gradient_map, objective,
                     objective_extents, ssim)
from .model import (count_parameters, forward, init_model, named_parameters, preset)
from .resample import bicubic_upsample
from .tensor import Tensor
from .windows import init_mlp_weights, merge, partition, residual_mlp, window_attention


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


FD_STEP = 1e-5  # the central-difference half-step, before it shrinks


def finite_diff_check(loss_fn, params, n_samples, rng, tol=1e-4):
    """Compare tape gradients with central finite differences on sampled entries."""
    with T.Tape() as tape:
        loss = loss_fn()
    grads = T.backward(loss, tape)
    flat = [(name, p) for name, p in params]
    worst = 0.0
    checked = 0
    while checked < n_samples:
        name, p = flat[int(rng.integers(len(flat)))]
        g = grads.get(p)
        assert g is not None, f"no gradient reached parameter {name}"
        idx = tuple(int(rng.integers(s)) for s in p.shape)
        an = g[idx]
        orig = p.data[idx]
        # the step shrinks on disagreement: a piecewise-linear kink inside the
        # central-difference interval biases fd linearly in the step size, so a
        # correct analytic gradient is recovered as the interval tightens
        for h in (FD_STEP, FD_STEP / 10.0, FD_STEP / 100.0):
            p.data[idx] = orig + h
            lp = loss_fn().item()
            p.data[idx] = orig - h
            lm = loss_fn().item()
            p.data[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            # each loss value is rounded to within eps |l|, so fd itself is known
            # only to within eps (|lp| + |lm|) / 2h: a mismatch below that bound
            # is rounding, not a wrong gradient, whatever the gradient's size
            noise = np.finfo(np.float64).eps * (abs(lp) + abs(lm)) / (2.0 * h)
            rel = abs(fd - an) / max(abs(fd), abs(an), noise / tol)
            if rel <= tol:
                break
        worst = max(worst, rel)
        assert rel <= tol, f"gradient mismatch at {name}{idx}: fd={fd:.6g} tape={an:.6g} rel={rel:.3g}"
        checked += 1
    return worst


# ---------------------------------------------------------------------------
# tensor-core


def check_fold_unfold_identity(rng):
    for p in (1, 2, 3):
        x = Tensor(rng.standard_normal((6, 6, 3)))
        assert np.array_equal(T.fold(T.unfold(x, p), p, 6, 6).data, x.data)
        tok = Tensor(rng.standard_normal((36 // (p * p), 3 * p * p)))
        assert np.array_equal(T.unfold(T.fold(tok, p, 6, 6), p).data, tok.data)


def check_pixel_shuffle_bijection(rng):
    x = Tensor(rng.standard_normal((2, 3, 8)))
    y = T.pixel_shuffle(x, 2)
    back = y.data.reshape(2, 2, 3, 2, 2).transpose(0, 2, 4, 1, 3).reshape(2, 3, 8)
    assert np.array_equal(back, x.data)
    assert sorted(y.data.ravel()) == sorted(x.data.ravel())


def check_softmax_properties(rng):
    """attend(x, I, I) = softmax(x): rows sum to 1, shift-invariant, no overflow."""
    def softmax(x):
        eye = Tensor(np.eye(x.shape[-1]))
        return T.attend(Tensor(x), eye, eye).data

    x = rng.standard_normal((7, 9))
    y = softmax(x)
    assert np.all(np.abs(y.sum(-1) - 1.0) <= 1e-6)
    assert np.allclose(softmax(x + 3.7), y, atol=1e-12)
    assert np.array_equal(softmax(np.array([[1000.0, 1001.0]])), softmax(np.array([[0.0, 1.0]])))


def check_primitive_gradients(rng):
    x = Tensor(rng.standard_normal((5, 5, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 2, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    gain = Tensor(rng.standard_normal(2) + 1.0, requires_grad=True)
    shift = Tensor(rng.standard_normal(2), requires_grad=True)

    cases = [
        ("conv2d", lambda: T.tsum(T.square(T.conv2d(x, w, b))), [("x", x), ("w", w), ("b", b)]),
        ("layer_norm", lambda: T.tsum(T.square(T.layer_norm(x, gain, shift))),
         [("x", x), ("gain", gain), ("shift", shift)]),
        ("gelu", lambda: T.tsum(T.square(T.gelu(x))), [("x", x)]),
        ("sigmoid", lambda: T.tsum(T.square(T.sigmoid(x))), [("x", x)]),
        ("unfold/fold", lambda: T.tsum(T.square(T.fold(T.unfold(x * x, 1), 1, 5, 5))), [("x", x)]),
    ]
    for _, fn, params in cases:
        finite_diff_check(fn, params, 4, rng, tol=1e-5)
    # conv2d of channel pieces [x, y], drawn last so the cases above sample as before
    y = Tensor(rng.standard_normal((5, 5, 1)), requires_grad=True)
    wy = Tensor(rng.standard_normal((3, 3, 3, 4)), requires_grad=True)

    def pieces():
        return T.tsum(T.square(T.conv2d([x, y], wy, b)))

    finite_diff_check(pieces, [("x", x), ("w", wy)], 4, rng, tol=1e-5)
    finite_diff_check(pieces, [("y", y)], 4, rng, tol=1e-5)
    # layer_norm's x-gradient on 8 channels: on the 2 of x its output is +-1
    # whatever x is, and dx is too small for the differences to resolve
    z = Tensor(rng.standard_normal((5, 5, 8)), requires_grad=True)
    gain8 = Tensor(rng.standard_normal(8) + 1.0)
    shift8 = Tensor(rng.standard_normal(8))
    finite_diff_check(lambda: T.tsum(T.square(T.layer_norm(z, gain8, shift8))), [("x", z)], 4, rng,
                      tol=1e-5)
    # layouts that are not their own inverse, each read through a fixed random
    # weighting, so that a backward with the forward's permutation is caught here
    u = Tensor(rng.standard_normal((3, 4, 8)), requires_grad=True)
    wu = Tensor(rng.standard_normal((6, 8, 2)))
    finite_diff_check(lambda: T.tsum(T.pixel_shuffle(u, 2) * wu), [("u", u)], 4, rng, tol=1e-5)
    v = Tensor(rng.standard_normal((4, 6, 2)), requires_grad=True)
    wv = Tensor(rng.standard_normal((6, 2, 2, 2)))
    finite_diff_check(lambda: T.tsum(partition(v, 2, "long") * wv), [("v", v)], 4, rng, tol=1e-5)
    # attend, q scaled; q, k and v get draws of their own, so a wrong dQ or dK cannot hide
    q, k, va = (Tensor(rng.standard_normal(shape), requires_grad=True)
                for shape in ((2, 3, 4), (2, 5, 4), (2, 5, 2)))
    wa = Tensor(rng.standard_normal((2, 3, 2)))
    for name, t in (("q", q), ("k", k), ("v", va)):
        finite_diff_check(lambda: T.tsum(T.attend(q * 0.5, k, va) * wa), [(name, t)], 4, rng, tol=1e-5)
    # conv2d on a map that spans two strips at the default strip budget (33 rows,
    # then 32), so the halo rows and the shorter last strip are checked too
    xs = Tensor(rng.standard_normal((65, 62, 8)), requires_grad=True)
    ws = Tensor(rng.standard_normal((3, 3, 8, 4)), requires_grad=True)
    strips, _ = T._strips(1, 65, 3, (62 + 2) * (8 + 4) * xs.data.itemsize)
    assert len(strips) == 2, f"the strip case spans {len(strips)} strips"
    finite_diff_check(lambda: T.tsum(T.square(T.conv2d(xs, ws, b))), [("x", xs), ("w", ws), ("b", b)],
                      4, rng, tol=1e-5)
    # attend's backward turns S into dL in place, so S must be C-ordered.  On q
    # and k laid out as the window attention's, head axis outermost, a plain
    # matmul gives logits in that order, and a [B, N, N'] view would be a copy
    qt, kt = (Tensor(rng.standard_normal((3, 4, 2, n)).transpose(2, 0, 3, 1), requires_grad=True)
              for n in (5, 6))
    vt = Tensor(rng.standard_normal((2, 3, 6, 2)), requires_grad=True)
    wt = Tensor(rng.standard_normal((2, 3, 5, 2)))
    assert not np.matmul(qt.data, kt.data.swapaxes(-1, -2)).flags.c_contiguous, \
        "the transposed attend case has C-ordered logits"
    for name, t in (("q", qt), ("k", kt), ("v", vt)):
        finite_diff_check(lambda: T.tsum(T.attend(qt, kt, vt) * wt), [(name, t)], 4, rng, tol=1e-5)
    # and on an S larger than the strip budget, so that dS is made in several bands
    qb, kb, vb = (Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((1, 150, 4), (1, 250, 4), (1, 250, 2)))
    wb = Tensor(rng.standard_normal((1, 150, 2)))
    strips, _ = T._strips(1, 150, 1, 250 * qb.data.itemsize)
    assert len(strips) > 1, f"the banded attend case spans {len(strips)} strip"
    for name, t in (("q", qb), ("k", kb), ("v", vb)):
        finite_diff_check(lambda: T.tsum(T.attend(qb, kb, vb) * wb), [(name, t)], 4, rng, tol=1e-5)
    # one-channel strips accumulate channel-major (_tap_sum): the c_in = 1
    # forward and the c_out = 1 input gradient, each on a map of two strips
    for c_in, c_out in ((1, 4), (4, 1)):
        xo = Tensor(rng.standard_normal((40, 200, c_in)), requires_grad=True)
        wo = Tensor(rng.standard_normal((3, 3, c_in, c_out)), requires_grad=True)
        bo = Tensor(rng.standard_normal(c_out), requires_grad=True)
        strips, _ = T._strips(1, 40, 3, 202 * (c_in + c_out) * xo.data.itemsize)
        assert len(strips) == 2, f"the one-channel case spans {len(strips)} strips"
        finite_diff_check(lambda: T.tsum(T.square(T.conv2d(xo, wo, bo))),
                          [("x", xo), ("w", wo), ("b", bo)], 4, rng, tol=1e-5)
    # attend on rows of 9 keys: the row max and updates go by columns
    # (_row_update), the row sums stay numpy's
    q9, k9, v9 = (Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((3, 5, 4), (3, 9, 4), (3, 9, 2)))
    w9 = Tensor(rng.standard_normal((3, 5, 2)))
    for name, t in (("q", q9), ("k", k9), ("v", v9)):
        finite_diff_check(lambda: T.tsum(T.attend(q9, k9, v9) * w9), [(name, t)], 4, rng, tol=1e-5)


def check_tape_contract(rng):
    """The tape keeps what backward reads, links producer nodes, and backward consumes it.

    Inside x + 0.2 * conv(x), the conv output is freed once the forward drops
    it, and so is the input of a leaky_relu, while the tape lives.  Node
    inputs are the producing nodes, a leaf standing for itself.  A backward
    consumes everything recorded on its tape before it: a second backward, a
    loss recorded before it, and a later loss that reaches a node recorded
    before it, on the same tape or a new one, raise TapeError.  The next
    record starts an empty list, and a loss recorded from leaves after the
    backward back-propagates.
    """
    x = Tensor(rng.standard_normal((6, 6, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 4, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    with T.Tape() as tape:
        c = T.conv2d(x, w, b)
        watch = weakref.ref(c.data)
        y = x + 0.2 * c
        del c
        assert watch() is None, "the tape keeps the conv output of x + 0.2 * conv(x)"
        a = T.conv2d(y, w, b)
        watch = weakref.ref(a.data)
        z = T.leaky_relu(a)
        del a
        assert watch() is None, "the tape keeps the input of leaky_relu"
        loss = T.tsum(T.square(z))
    conv, scale, add, conv_y, relu, square, total = tape.nodes
    assert [n.op for n in tape.nodes] == ["conv2d", "mul", "add", "conv2d", "leaky_relu",
                                          "square", "sum"]
    assert conv.inputs == (x, w, b) and scale.inputs[0] is conv and add.inputs == (x, scale)
    assert conv_y.inputs == (add, w, b) and relu.inputs == (conv_y,) and total.inputs == (square,)
    assert conv.out is None and add.out is y and total.out is loss
    grads = T.backward(loss, tape)
    assert set(grads) == {x, w, b}, "backward returns a gradient for something other than the leaves"
    assert all(n.backward_fn is None for n in tape.nodes), "backward left a closure on the tape"

    def refused(what, loss, tape):
        try:
            T.backward(loss, tape)
        except T.TapeError:
            return
        raise AssertionError(f"{what} did not raise TapeError")

    refused("a second backward", loss, tape)
    with T.Tape() as tape:
        sq = T.square(x)
        first, second = T.tsum(sq), T.tsum(3.0 * x)
        assert np.array_equal(T.backward(first, tape)[x], 2.0 * x.data), "the first loss"
        refused("a loss recorded before the backward", second, tape)
        third = T.tsum(T.square(x))
        assert [n.op for n in tape.nodes] == ["square", "sum"], \
            "the next record after a backward keeps nodes recorded before it"
        assert np.array_equal(T.backward(third, tape)[x], 2.0 * x.data), \
            "a loss recorded from leaves after the backward"
        refused("a later loss that reaches a consumed node", T.tsum(2.0 * sq), tape)
    with T.Tape() as later:
        refused("a loss on a new tape that reaches a consumed node", T.tsum(3.0 * sq), later)


def check_erf_matches_math_erf(rng):
    """T.erf against the standard library's math.erf, at f64 and at f32 (which it keeps).

    A grid on [-10, 10] plus the edges: signed zero, the smallest subnormal,
    1e-8, the branch point 1 and the clamp point 8 with their neighbours,
    +-30, +-inf and NaN.  erf(+-0) keeps the zero's sign.  Then an array of
    whole ``T._ERF_BLOCK`` blocks and a partial one, so each block's far
    entries (|x| >= 1 or NaN) must be gathered and scattered back within it: a
    block with none, a block of only far entries, and blocks whose one far
    entry is NaN, +inf or -inf.  Its denser near entries meet the rational's
    worst case, 1.5 ulp of 1 at x = +-0.8738, so it is held to 2 ulps of 1.
    """
    edges = [0.0, -0.0, 5e-324, 1e-8, 30.0, -30.0, math.inf, -math.inf, math.nan]
    for v in (1.0, -1.0, 8.0, -8.0):
        edges += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    grid = np.concatenate([np.linspace(-10.0, 10.0, 4001), edges])
    n = T._ERF_BLOCK
    near = np.linspace(-0.999, 0.999, n)
    blocks = [near, np.linspace(1.0, 10.0, n) * np.where(np.arange(n) % 2, -1.0, 1.0)]
    for v in (math.nan, math.inf, -math.inf):
        one = near.copy()
        one[n // 3] = v
        blocks.append(one)
    blocks.append(np.linspace(-3.0, 3.0, 1001))
    for dtype, tol in ((np.float64, 2.3e-16), (np.float32, 2.4e-7)):
        for x, bound in ((grid, tol), (np.concatenate(blocks), 2.0 * np.finfo(dtype).eps)):
            xd = x.astype(dtype)
            got = T.erf(xd)
            assert got.dtype == dtype, (dtype, got.dtype)
            want = np.array([math.erf(v) for v in xd.tolist()])
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), f"erf NaN pattern differs at {dtype.__name__}"
            err = np.abs(got[~nan] - want[~nan]).max()
            assert err <= bound, f"erf differs from math.erf by {err:.3g} at {dtype.__name__}"
        zeros = np.array([0.0, -0.0], dtype=dtype)
        assert np.array_equal(np.signbit(T.erf(zeros)), [False, True]), f"erf(+-0) loses its sign at {dtype.__name__}"


BLUR_SHAPES = ((11, 11, 1), (23, 17, 3), (2, 16, 14, 5))


def check_separable_blur_matches_conv2d(rng, shapes=BLUR_SHAPES):
    """The blur equals conv2d with outer(g, g) on the channel diagonal, value and input gradient.

    The valid-mode blur is the inner crop of the same-padded conv2d; the conv2d
    gradient is taken against a probe that is zero outside that crop.  Runs the
    SSIM window and random (asymmetric) taps on each [.., h, w, c] shape.
    """
    for taps in (gaussian_taps(SSIM_WINDOW, SSIM_SIGMA), rng.uniform(0.0, 1.0, SSIM_WINDOW)):
        m = taps.shape[0] // 2
        for shape in shapes:
            c = shape[-1]
            crop = (Ellipsis, slice(m, shape[-3] - m), slice(m, shape[-2] - m), slice(None))
            x = Tensor(rng.uniform(0.0, 1.0, shape), requires_grad=True)
            probe = np.zeros(shape)
            probe[crop] = rng.standard_normal(probe[crop].shape)
            kern = Tensor(np.outer(taps, taps)[:, :, None, None] * np.eye(c))
            zero_b = Tensor(np.zeros(c))
            runs = []
            for blur, p in ((lambda: T.separable_blur(x, taps), probe[crop]),
                            (lambda: T.conv2d(x, kern, zero_b), probe)):
                with T.Tape() as tape:
                    y = blur()
                    loss = T.tsum(y * p)
                runs.append((y.data, T.backward(loss, tape)[x]))
            (y_sep, g_sep), (y_conv, g_conv) = runs
            y_conv = y_conv[crop]
            assert y_sep.shape == y_conv.shape, (y_sep.shape, y_conv.shape)
            gap = max(np.abs(y_sep - y_conv).max(), np.abs(g_sep - g_conv).max())
            assert gap <= 1e-12, f"separable blur differs from conv2d by {gap:.3g} on {shape}"


def check_forward_determinism(rng):
    # the live model: at safe start every attention block is the identity
    cfg = preset("tiny", r=2)
    state = init_model(cfg, seed=3, safe_start=False)
    pair = make_pair(PhantomSpec(seed=5, side=24), 2)
    a = forward(pair.t2_lr, pair.t2_lr_grad, pair.t1_hr_grad, state, cfg)
    b = forward(pair.t2_lr, pair.t2_lr_grad, pair.t1_hr_grad, state, cfg)
    assert a[0].shape == a[1].shape == pair.t2_hr.shape
    assert np.array_equal(a[0].data, b[0].data) and np.array_equal(a[1].data, b[1].data)


# ---------------------------------------------------------------------------
# attention-core


def check_attention_row_stochastic(rng):
    """Intra-head and (unscaled) head affinities, read as attend of identity values, are row-stochastic."""
    for _ in range(50):
        q = Tensor(rng.standard_normal((6, 4)))
        k = Tensor(rng.standard_normal((5, 4)))
        vt = Tensor(rng.standard_normal((5, 4, 3)))
        for a, shape in ((intra_head_attention(q, k, Tensor(np.eye(5))), (6, 5)),
                         (T.attend(vt, vt, Tensor(np.broadcast_to(np.eye(4), (5, 4, 4)))), (5, 4, 4))):
            assert a.shape == shape, (a.shape, shape)
            assert np.all(a.data >= 0)
            assert np.all(np.abs(a.data.sum(-1) - 1.0) <= 1e-6)


def check_attention_safe_start(rng):
    w = init_attention_weights(4, 2, rng)
    x = Tensor(rng.standard_normal((6, 6, 4)))
    out = basic_attention(x, x, w)
    assert np.array_equal(out.data, x.data)
    assert out.shape == x.shape


def check_attention_permutation_invariance(rng):
    # permuting X2's patches permutes its key/value tokens; softmax sums over
    # them, so the output must not change
    w = init_attention_weights(4, 2, rng, safe_start=False, p=2)
    x1 = Tensor(rng.standard_normal((4, 4, 4)))
    x2 = Tensor(rng.standard_normal((4, 4, 4)))
    out = basic_attention(x1, x2, w, 2)
    # swap the two patch rows of x2 (each patch is 2x2)
    perm = x2.data.reshape(2, 2, 4, 4).copy()[::-1].reshape(4, 4, 4)
    out_p = basic_attention(x1, Tensor(perm), w, 2)
    assert np.allclose(out.data, out_p.data, atol=1e-10)


def check_attention_gradients(rng):
    w = init_attention_weights(4, 2, rng, safe_start=False)
    x = Tensor(rng.standard_normal((6, 6, 4)))
    params = list(named_parameters(w))

    def loss():
        return T.tsum(T.square(basic_attention(x, x, w)))

    finite_diff_check(loss, params, 20, rng, tol=1e-5)
    # the draws above can miss an array: one entry more on each projection and embedding conv
    named = dict(params)
    for name in ("wq", "wk", "wv", "out_w", "embed1.conv_w", "embed2.conv_w"):
        finite_diff_check(loss, [(name, named[name])], 1, rng, tol=1e-5)


# ---------------------------------------------------------------------------
# window-attention


def window_coords(h, w, g, mode):
    """[h w / g^2, g, g, 2]: the (y, x) pixel that partition puts in each window slot."""
    grid = np.stack(np.meshgrid(np.arange(h), np.arange(w), indexing="ij"), axis=-1)
    return partition(Tensor(grid), g, mode).data.astype(int)


WINDOW_MAPS = ((6, 6, 3), (6, 12, 3), (12, 6, 2), (4, 8, 2))


def check_window_bijectivity(rng, maps=WINDOW_MAPS):
    """partition gathers the closed-form windows, and merge undoes it.

    Slot (i, j) of window (a, b), windows in row-major order, holds pixel
    (a g + i, b g + j) in short mode and (a + i h/g, b + j w/g) in long mode,
    on square and rectangular maps.  Each pixel then sits in exactly one slot.
    """
    for h, w, g in maps:
        a, b, i, j = np.meshgrid(np.arange(h // g), np.arange(w // g), np.arange(g), np.arange(g),
                                 indexing="ij")
        closed = {"short": (a * g + i, b * g + j), "long": (a + i * (h // g), b + j * (w // g))}
        for mode, (y, x) in closed.items():
            want = np.stack([y, x], axis=-1).reshape(-1, g, g, 2)
            assert np.array_equal(window_coords(h, w, g, mode), want), \
                f"{mode} windows of {h}x{w}, g={g} differ from the closed form"
            img = Tensor(rng.standard_normal((h, w, 3)))
            assert np.array_equal(merge(partition(img, g, mode), h, w, mode).data, img.data), \
                f"merge does not undo partition ({mode}, {h}x{w}, g={g})"


def two_hop_covers_grid(h, w, g):
    """BFS over short + long window adjacency; True if every pixel reaches all others in two hops."""
    n = h * w
    adj = [set() for _ in range(n)]
    for mode in ("short", "long"):
        for win in window_coords(h, w, g, mode).reshape(-1, g * g, 2):
            flat = [int(y) * w + int(x) for y, x in win]
            for a in flat:
                adj[a].update(flat)
    return len(set().union(*(adj[b] for b in adj[0]))) == n  # two hops from pixel 0


TWO_HOP_MAPS = ((6, 6, 3), (12, 12, 6), (6, 6, 6), (24, 24, 6), (12, 24, 6))


def check_two_hop_reachability(rng, maps=TWO_HOP_MAPS):
    """Where g^2 >= max(h, w), short then long windows link every pixel pair in two hops."""
    for h, w, g in maps:
        if g * g >= max(h, w):
            assert two_hop_covers_grid(h, w, g), f"two-hop coverage failed for {h}x{w}, g={g}"


def check_window_weight_sharing(rng):
    # processing order cannot matter: compare against a per-window loop run in
    # shuffled order, for both partitions
    aw = init_attention_weights(4, 2, rng, safe_start=False)
    mw = init_mlp_weights(4, rng, safe_start=False)
    x = Tensor(rng.standard_normal((6, 6, 4)))
    for mode in ("short", "long"):
        fast = window_attention(x, 3, mode, aw, mw)
        wins = partition(x, 3, mode)
        outs = [None] * wins.shape[0]
        for i in rng.permutation(wins.shape[0]):
            win = Tensor(wins.data[i])
            outs[i] = basic_attention(win, win, aw).data
        slow = residual_mlp(merge(Tensor(np.stack(outs)), 6, 6, mode), mw)
        assert np.allclose(fast.data, slow.data, atol=1e-12), mode


# ---------------------------------------------------------------------------
# cross-modality


def check_instance_standardize_moments(rng):
    x = Tensor(rng.standard_normal((8, 8, 5)) * 2.0 + 1.0)
    y = instance_standardize(x)
    assert np.all(np.abs(y.data.mean(axis=(0, 1))) <= 1e-10)
    v = y.data.var(axis=(0, 1))
    assert np.all(v >= 1.0 - 1e-3) and np.all(v <= 1.0)


def check_adain_alignment(rng):
    for _ in range(20):
        x1 = Tensor(rng.standard_normal((6, 6, 4)) * rng.uniform(0.5, 2.0) + rng.normal())
        x2 = Tensor(rng.standard_normal((12, 12, 4)) * rng.uniform(0.5, 2.0))
        w = init_adain_weights(4, 2, rng)  # the gamma conv starts at zero
        out = adain(x1, x2, w, 2)
        mu1, sigma1 = channel_moments(x1)
        assert np.all(np.abs(out.data.mean(axis=(0, 1)) - mu1.data) <= 1e-4)
        sd = np.sqrt(out.data.var(axis=(0, 1)) + IN_EPS)
        assert np.all(np.abs(sd - sigma1.data) <= 1e-4)


def check_standardize_shift_invariance(rng):
    x = Tensor(rng.standard_normal((8, 8, 3)))
    shift = rng.standard_normal(3)
    a = instance_standardize(x)
    b = instance_standardize(Tensor(x.data + shift))
    assert np.allclose(a.data, b.data, atol=1e-10)


def check_inter_modality_shape(rng):
    w = init_inter_modality_weights(4, 2, 2, 2, rng, safe_start=False)
    x1 = Tensor(rng.standard_normal((6, 6, 4)))
    x2 = Tensor(rng.standard_normal((12, 12, 4)))
    out = inter_modality_attention(x1, x2, w, 2)
    assert out.shape == x1.shape


# ---------------------------------------------------------------------------
# srnet


def tiny_inputs(rng, side=12, r=2):
    i_in = rng.uniform(0, 1, (side, side, 1))
    r_s = gradient_map(Tensor(i_in)).data
    r_c = rng.uniform(0, 1, (r * side, r * side, 1))
    return i_in, r_s, r_c


def check_safe_start_equals_bicubic(rng, r=2):
    cfg = preset("tiny", r=r)
    state = init_model(cfg, seed=11, safe_start=True)
    i_in, r_s, r_c = tiny_inputs(rng, r=r)
    i_out, r_out = forward(i_in, r_s, r_c, state, cfg)
    up = bicubic_upsample(i_in, r)
    assert np.array_equal(i_out.data, up), f"safe-start intensity must equal the bicubic skip at r={r}"
    assert np.array_equal(r_out.data, np.zeros_like(r_out.data)), f"safe-start gradient map at r={r}"
    assert np.all(np.isfinite(i_out.data))


def check_ablation_liveness(rng):
    cfg = preset("tiny", r=2)
    state = init_model(cfg, seed=7, safe_start=False)
    i_in, r_s, r_c = tiny_inputs(rng)
    base = forward(i_in, r_s, r_c, state, cfg)[0].data
    for switch in ("use_short_wa", "use_long_wa", "use_inter_attn", "use_inter_head", "use_adain"):
        alt = preset("tiny", r=2, **{switch: False})
        out = forward(i_in, r_s, r_c, state, alt)[0].data
        diff = np.abs(out - base).max()
        assert diff > 1e-6, f"disabling {switch} did not change the output (max diff {diff:.3g})"


def check_network_gradients(rng, n_samples=100, r=2):
    cfg = preset("tiny", r=r)
    state = init_model(cfg, seed=19, safe_start=False)
    i_in, r_s, r_c = tiny_inputs(rng, r=r)
    gt = rng.uniform(0, 1, (12 * r, 12 * r, 1))
    params = [(f"r={r} {name}", t) for name, t in named_parameters(state)]
    lcfg = LossConfig()

    def loss():
        i_out, r_out = forward(i_in, r_s, r_c, state, cfg)
        return objective(i_out, r_out, Tensor(gt), lcfg)[0]

    return finite_diff_check(loss, params, n_samples, rng, tol=1e-4)


LIVE_GRAD_RATIO = 1e-8


def dead_parameters(state, cfg, rng, side):
    """Names of the arrays whose gradient norm is below LIVE_GRAD_RATIO x the global norm.

    One forward and backward of the objective, default alpha and lam, on random
    side x side inputs at 64-bit precision.  A weight whose effect the math
    cancels (a key bias under the softmax, a channel-constant shift under a
    LayerNorm) gets a gradient at rounding level and is named here.
    """
    i_in, r_s, r_c = tiny_inputs(rng, side, cfg.r)
    gt = Tensor(rng.uniform(0, 1, (cfg.r * side, cfg.r * side, 1)))
    with T.Tape() as tape:
        i_out, r_out = forward(i_in, r_s, r_c, state, cfg)
        loss = objective(i_out, r_out, gt)[0]
    grads = T.backward(loss, tape)
    params = list(named_parameters(state))
    norms = [float(np.linalg.norm(grads[p])) if p in grads else 0.0 for _, p in params]
    floor = LIVE_GRAD_RATIO * math.sqrt(sum(n * n for n in norms))
    return [name for (name, _), n in zip(params, norms) if n < floor]


def check_parameter_liveness(rng):
    """Every parameter array moves the loss: tiny at 12 -> 24 and S at 30 -> 60, all weights live."""
    dead = []
    for name, side in (("tiny", 12), ("S", 30)):
        cfg = preset(name, r=2)
        state = init_model(cfg, seed=29, safe_start=False)
        dead += [f"{name} {p}" for p in dead_parameters(state, cfg, rng, side)]
    assert not dead, f"{len(dead)} parameter arrays get no gradient: {', '.join(dead)}"


def check_parameter_count():
    # regression-locked count for the L preset at r=4.  The paper reports
    # 152.106M parameters; this preset has 12,656,490, about 12x fewer, so it
    # does not match the published model size.  The constant only guards
    # against unintended change.
    state = init_model(preset("L", r=4), seed=0, dtype=np.float32)
    n = count_parameters(state)
    assert n == PARAM_COUNT_L_R4, f"L-preset parameter count changed: {n} != {PARAM_COUNT_L_R4}"
    return n


PARAM_COUNT_L_R4 = 12_656_490  # frozen after first computation; see check_parameter_count


# ---------------------------------------------------------------------------
# objectives


def check_ssim_identities(rng):
    x = Tensor(rng.uniform(0, 1, (16, 16, 1)))
    y = Tensor(rng.uniform(0, 1, (16, 16, 1)))
    assert ssim(x, x).item() == 1.0
    ab = ssim(x, y).item()
    ba = ssim(y, x).item()
    assert ab == ba
    assert -1.0 <= ab <= 1.0


def check_gradient_map_bounds(rng):
    x = Tensor(rng.uniform(0, 1, (10, 10, 1)))
    g = gradient_map(x)
    assert np.all(g.data >= 1e-3)
    g2 = gradient_map(Tensor(x.data + 0.25))
    assert np.allclose(g.data, g2.data, atol=1e-12)
    const = gradient_map(Tensor(np.full((6, 6, 1), 0.4)))
    assert np.all(const.data == 1e-3)


def check_loss_gradients(rng):
    a = Tensor(rng.uniform(0, 1, (12, 12, 1)), requires_grad=True)
    b = Tensor(rng.uniform(0, 1, (12, 12, 1)))
    r = Tensor(rng.uniform(0, 1, (12, 12, 1)), requires_grad=True)

    def loss():
        return objective(a, r, b)[0]

    for name, t in (("i_out", a), ("r_out", r)):
        finite_diff_check(loss, [(name, t)], 5, rng, tol=1e-4)


# ---------------------------------------------------------------------------
# datagen


def check_datagen_determinism(rng):
    spec = PhantomSpec(seed=21, side=48)
    a1, b1 = synth_phantom(spec)
    a2, b2 = synth_phantom(spec)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def check_datagen_preflight(rng):
    cfg = preset("tiny", r=2)
    pair = make_pair(PhantomSpec(seed=1, side=48), 2)
    out = cfg.preflight(pair.t2_lr.shape, pair.t2_lr_grad.shape, pair.t1_hr_grad.shape)
    objective_extents(out, pair.t2_hr.shape, LossConfig())
    assert np.all(pair.t2_lr >= 0) and np.all(pair.t2_hr <= 1)
    assert np.all(pair.t1_hr_grad >= 1e-3)


def at_every_scale(check, *args):
    """A check that runs ``check(rng, *args, r)`` at r = 2, 3 and 4."""
    @functools.wraps(check)
    def run(rng):
        for r in (2, 3, 4):
            check(rng, *args, r)
    return run


ALL_CHECKS = [
    ("tensor-core/fold-unfold-identity", check_fold_unfold_identity),
    ("tensor-core/pixel-shuffle-bijection", check_pixel_shuffle_bijection),
    ("tensor-core/softmax-row-sums-and-shift-invariance", check_softmax_properties),
    ("tensor-core/primitive-finite-difference-gradients", check_primitive_gradients),
    ("tensor-core/tape-keeps-only-what-backward-reads", check_tape_contract),
    ("tensor-core/erf-matches-math-erf", check_erf_matches_math_erf),
    ("tensor-core/separable-blur-matches-conv2d", check_separable_blur_matches_conv2d),
    ("tensor-core/forward-determinism", check_forward_determinism),
    ("attention-core/row-stochasticity", check_attention_row_stochastic),
    ("attention-core/safe-start-identity", check_attention_safe_start),
    ("attention-core/reference-permutation-invariance", check_attention_permutation_invariance),
    ("attention-core/weight-gradients", check_attention_gradients),
    ("window-attention/partition-merge-bijectivity", check_window_bijectivity),
    ("window-attention/two-hop-reachability", check_two_hop_reachability),
    ("window-attention/weight-sharing-order-independence", check_window_weight_sharing),
    ("cross-modality/standardized-moments", check_instance_standardize_moments),
    ("cross-modality/adain-moment-alignment", check_adain_alignment),
    ("cross-modality/mean-shift-invariance", check_standardize_shift_invariance),
    ("cross-modality/output-shape", check_inter_modality_shape),
    ("srnet/safe-start-equals-bicubic", at_every_scale(check_safe_start_equals_bicubic)),
    ("srnet/ablation-switch-liveness", check_ablation_liveness),
    ("srnet/end-to-end-gradient-check", at_every_scale(check_network_gradients, 20)),
    ("srnet/parameter-liveness", check_parameter_liveness),
    ("srnet/parameter-count-regression", lambda rng: check_parameter_count()),
    ("objectives/ssim-identities", check_ssim_identities),
    ("objectives/gradient-map-bounds", check_gradient_map_bounds),
    ("objectives/loss-gradients", check_loss_gradients),
    ("datagen/per-seed-determinism", check_datagen_determinism),
    ("datagen/divisibility-preflight", check_datagen_preflight),
]


def run_all_checks(seed=0):
    results = []
    for name, fn in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        try:
            fn(rng)
            results.append(CheckResult(name, True))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
