import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohft import tensor as T
from cohft.attention import init_attention_weights, tokenize
from cohft.checks import (check_erf_matches_math_erf, check_separable_blur_matches_conv2d,
                          check_softmax_properties, check_tape_contract, finite_diff_check)
from cohft.tensor import ShapeError, Tape, TapeError, Tensor, backward
from cohft.windows import merge, partition


def grad_of(loss_fn, t):
    with Tape() as tape:
        loss = loss_fn()
    return backward(loss, tape)[t]


def test_add_broadcast_gradients():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 1, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(T.square(a + b))
    grads = backward(loss, tape)
    assert grads[a].shape == (3, 1, 4)
    assert grads[b].shape == (5, 4)
    for name, t in (("a", a), ("b", b)):
        finite_diff_check(lambda: T.tsum(T.square(a + b)), [(name, t)], 5, rng, tol=1e-5)


def test_mul_div_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.uniform(0.5, 2.0, (4, 3)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, (4, 3)), requires_grad=True)
    finite_diff_check(lambda: T.tsum(a * b), [("a", a)], 5, rng, tol=1e-5)
    finite_diff_check(lambda: T.tsum(a / b), [("b", b)], 5, rng, tol=1e-5)


def test_sqrt_square_values_and_gradients():
    rng = np.random.default_rng(2)
    a = Tensor(rng.uniform(0.1, 4.0, (6,)), requires_grad=True)
    assert np.allclose(T.sqrt(a).data, np.sqrt(a.data))
    assert np.allclose(T.square(a).data, a.data ** 2)
    finite_diff_check(lambda: T.tsum(T.sqrt(a)), [("a", a)], 5, rng, tol=1e-5)


def test_gelu_matches_exact_form():
    from scipy.special import erf
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20,))
    want = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    got = T.gelu(Tensor(x)).data
    assert np.allclose(got, want, atol=1e-12)
    xt = Tensor(x, requires_grad=True)
    finite_diff_check(lambda: T.tsum(T.gelu(xt)), [("xt", xt)], 5, rng, tol=1e-5)
    x32 = Tensor(x.astype(np.float32), requires_grad=True)
    assert T.gelu(x32).dtype == np.float32
    assert grad_of(lambda: T.tsum(T.gelu(x32)), x32).dtype == np.float32


def test_erf_matches_math_erf():
    check_erf_matches_math_erf(np.random.default_rng(0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_in_place_passes_write_only_their_own_buffers(dtype):
    # erf writes its blocks into its output, gelu forms Phi in place and its
    # gradient runs in one fresh buffer: the input, the forward output and the
    # Phi the backward holds keep every byte, over several erf blocks
    rng = np.random.default_rng(29)
    x = (3.0 * rng.standard_normal(2 * T._ERF_BLOCK + 7)).astype(dtype)
    x[:3] = [0.0, -0.0, np.nan]
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = T.gelu(xt)
        loss = T.tsum(y * Tensor(rng.standard_normal(x.shape).astype(dtype)))
    held = [a for a in closure_arrays(tape.nodes[0].backward_fn) if a is not xt.data]
    arrays = (xt.data, y.data, *held)
    before = [a.copy() for a in arrays]
    grad = backward(loss, tape)[xt]
    assert grad.dtype == dtype and held
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()


def test_sigmoid_leaky_relu():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((15,))
    assert np.allclose(T.sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)))
    xt = Tensor(x + 0.05, requires_grad=True)  # keep away from the kink
    finite_diff_check(lambda: T.tsum(T.square(T.leaky_relu(xt))), [("xt", xt)], 5, rng, tol=1e-5)
    finite_diff_check(lambda: T.tsum(T.square(T.sigmoid(xt))), [("xt", xt)], 5, rng, tol=1e-5)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-40, -1e-40])
    x = np.concatenate([x, edges])
    g = rng.standard_normal(x.size)
    for dtype in (np.float64, np.float32):
        xd = x.astype(dtype)
        with Tape() as tape:
            y = T.leaky_relu(Tensor(xd, requires_grad=True)).data
        # the np.maximum forward is bit for bit the select form, signed zeros and NaN included
        want = np.where(xd >= 0, xd, 0.2 * xd)
        assert y.dtype == dtype
        assert np.array_equal(y, want, equal_nan=True)
        assert np.array_equal(np.signbit(y), np.signbit(want))
        (gx,) = tape.nodes[-1].backward_fn(g.astype(dtype))
        assert gx.dtype == dtype
        # bit for bit the gradient of the f64 slope mask cast to the dtype
        assert np.array_equal(gx, g.astype(dtype) * np.where(xd >= 0, 1.0, 0.2).astype(dtype))


def test_leaky_relu_backward_is_the_select_bit_for_bit():
    # the backward multiplies by a slope of exactly 1 or LEAKY_SLOPE: the same
    # bits as selecting g or LEAKY_SLOPE * g, signed zeros, infinities and NaN included
    rng = np.random.default_rng(26)
    g_vals = np.concatenate([rng.standard_normal(8),
                             [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-40, 3e38]])
    ad_vals = np.concatenate([rng.standard_normal(4), [0.0, -0.0, np.inf, -np.inf, np.nan]])
    g_grid, ad_grid = np.meshgrid(g_vals, ad_vals)
    for dtype in (np.float64, np.float32):
        g, ad = g_grid.astype(dtype), ad_grid.astype(dtype)
        with Tape() as tape:
            T.leaky_relu(Tensor(ad, requires_grad=True))
        (gx,) = tape.nodes[-1].backward_fn(g)
        want = np.where(ad >= 0, g, T.LEAKY_SLOPE * g)
        assert gx.dtype == want.dtype == dtype
        assert np.array_equal(gx, want, equal_nan=True)
        assert np.array_equal(np.signbit(gx), np.signbit(want))


def test_sum_mean_axes():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4, 5))
    assert np.allclose(T.tsum(Tensor(x), axis=1).data, x.sum(1))
    assert np.allclose(T.tmean(Tensor(x), axis=(0, 1)).data, x.mean((0, 1)))
    assert T.tsum(Tensor(x), axis=0, keepdims=True).shape == (1, 4, 5)
    xt = Tensor(x, requires_grad=True)
    finite_diff_check(lambda: T.tsum(T.square(T.tmean(xt, axis=2))), [("xt", xt)], 5, rng, tol=1e-5)
    x32 = Tensor(x.astype(np.float32), requires_grad=True)
    assert grad_of(lambda: T.tsum(T.tmean(x32, axis=(0, 1))), x32).dtype == np.float32


def test_reshape_transpose():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    assert np.array_equal(T.reshape(x, (6, 4)).data, x.data.reshape(6, 4))
    assert np.array_equal(T.transpose(x, (2, 0, 1)).data, x.data.transpose(2, 0, 1))
    finite_diff_check(lambda: T.tsum(T.square(T.transpose(x, (1, 0, 2)))), [("x", x)], 5, rng,
                      tol=1e-5)


def test_einsum_matches_numpy():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    assert np.allclose(T.einsum("nd,de->ne", a, b).data, np.einsum("nd,de->ne", a.data, b.data))
    for name, t in (("a", a), ("b", b)):
        finite_diff_check(lambda: T.tsum(T.square(T.einsum("nd,de->ne", a, b))), [(name, t)], 5,
                          rng, tol=1e-5)


def test_einsum_with_batch_ellipsis():
    rng = np.random.default_rng(8)
    a = Tensor(rng.standard_normal((6, 2, 4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
    out = T.einsum("...nd,mde->...mne", T.transpose(a, (0, 2, 1, 3)), w)
    want = np.einsum("...nd,mde->...mne", a.data.transpose(0, 2, 1, 3), w.data)
    assert np.allclose(out.data, want)
    def loss():
        return T.tsum(T.square(T.einsum("...nd,mde->...mne", T.transpose(a, (0, 2, 1, 3)), w)))
    for name, t in (("a", a), ("w", w)):
        finite_diff_check(loss, [(name, t)], 5, rng, tol=1e-5)


def test_softmax_rows_shift_and_overflow():
    check_softmax_properties(np.random.default_rng(10))


def attend_oracle(q, k, v, g):
    """softmax(q k^T) v and its q, k, v gradients against upstream g, in f64.

    The softmax Jacobian is written out per row, diag(p) - p p^T.
    """
    logits = np.einsum("...ne,...me->...nm", q, k)
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    jac = np.einsum("...ij,jk->...ijk", p, np.eye(p.shape[-1])) - p[..., :, None] * p[..., None, :]
    dlogits = np.einsum("...ijk,...ik->...ij", jac, np.einsum("...nf,...mf->...nm", g, v))
    return (np.einsum("...nm,...mf->...nf", p, v), np.einsum("...nm,...me->...ne", dlogits, k),
            np.einsum("...nm,...ne->...me", dlogits, q), np.einsum("...nm,...nf->...mf", p, g))


@given(lead=st.sampled_from([(), (2,), (3, 2)]), n=st.integers(1, 6), n_k=st.integers(1, 6),
       e=st.integers(1, 5), f=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_attend_matches_numpy_oracle(lead, n, n_k, e, f, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(lead + (n, e))
    k = rng.standard_normal(lead + (n_k, e))
    v = rng.standard_normal(lead + (n_k, f))
    g = rng.standard_normal(lead + (n, f))
    # the last query's logits sit near 1000, where an exp taken before the max would overflow
    q[..., -1, 0] = 1000.0
    k[..., 0] = 1.0 + 1e-3 * k[..., 0]
    tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
    with Tape() as tape:
        out = T.attend(tq, tk, tv)
        loss = T.tsum(out * g)
    grads = backward(loss, tape)
    for name, got, want in zip(("out", "dq", "dk", "dv"),
                               (out.data, grads[tq], grads[tk], grads[tv]),
                               attend_oracle(q, k, v, g)):
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), name
    misfits = [
        (lead + (n, e + 1), lead + (n_k, e), lead + (n_k, f)),                  # q and k widths
        (lead + (n, e), lead + (n_k + 1, e), lead + (n_k, f)),                  # k and v tokens
        ((4,) + lead + (n, e), (1,) + lead + (n_k, e), (1,) + lead + (n_k, f)),  # leading axes
        ((2,) + lead + (n, e), lead + (n_k, e), lead + (n_k, f)),               # ranks
        ((e,), (e,), (f,)),                                                     # rank below 2
    ]
    for shapes in misfits:
        with pytest.raises(ShapeError):
            T.attend(*(Tensor(np.zeros(shape)) for shape in shapes))


def test_layer_norm_moments_and_gradients():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 6, 4)) * 3.0 + 2.0
    gain = Tensor(np.ones(4), requires_grad=True)
    shift = Tensor(np.zeros(4), requires_grad=True)
    y = T.layer_norm(Tensor(x), gain, shift).data
    assert np.all(np.abs(y.mean(-1)) <= 1e-10)
    assert np.all(np.abs(y.var(-1) - 1.0) <= 1e-3)  # eps-regularized variance
    xt = Tensor(x, requires_grad=True)
    # a fixed random weighting: the sum of squares of a unit-gain output is
    # constant in x up to eps, which leaves dx near zero
    weight = Tensor(rng.standard_normal(x.shape))
    def loss():
        return T.tsum(T.layer_norm(xt, gain, shift) * weight)
    for name, t in (("xt", xt), ("gain", gain), ("shift", shift)):
        finite_diff_check(loss, [(name, t)], 5, rng, tol=1e-5)


def test_layer_norm_matches_two_pass_reference():
    rng = np.random.default_rng(21)
    for lead, d, transposed in itertools.product([(), (3,), (2, 5)], [1, 2, 4, 16], [False, True]):
        if transposed:  # a non-contiguous input: the last axis has stride > itemsize
            x = rng.standard_normal((d,) + lead[::-1]).T * 3.0 + 2.0
        else:
            x = rng.standard_normal(lead + (d,)) * 3.0 + 2.0
        gain, shift, g = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(x.shape)
        ts = [Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True),
              Tensor(shift, requires_grad=True)]
        with Tape() as tape:
            y = T.layer_norm(*ts)
        grads = tape.nodes[-1].backward_fn(g)
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + T.LN_EPS)
        xhat = (x - mu) * inv
        dxhat = g * gain
        sum_axes = tuple(range(x.ndim - 1))
        want = [xhat * gain + shift,
                inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                       - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)),
                (g * xhat).sum(axis=sum_axes), g.sum(axis=sum_axes)]
        for got, ref in zip([y.data, *grads], want):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12, (lead, d, transposed)


def test_constant_operands_get_no_gradient():
    # a scalar or other constant operand gets None from backward_fn; the other
    # operand's gradient is bit for bit the one computed beside the constant's
    rng = np.random.default_rng(22)
    x = Tensor(rng.uniform(0.5, 2.0, (4, 3)), requires_grad=True)
    g = rng.standard_normal((4, 3))
    for op, c in ((T.mul, 2.0), (T.add, 1e-6), (T.sub, 0.5), (T.div, 3.0)):
        for const_first in (False, True):
            grads = []
            for c_t in (c, Tensor(np.asarray(c), requires_grad=True)):
                operands = (c_t, x) if const_first else (x, c_t)
                with Tape() as tape:
                    op(*operands)
                gx_gc = tape.nodes[-1].backward_fn(g)
                grads.append(gx_gc[::-1] if const_first else gx_gc)
            (gx, gc), (gx_ref, gc_ref) = grads
            assert gc is None and gc_ref is not None
            assert np.array_equal(gx, gx_ref), (op.__name__, const_first)


def test_conv2d_skips_gradient_of_constant_input():
    rng = np.random.default_rng(23)
    for k in CONV_CASES:
        x, w, b = conv_inputs(k, (2,), np.float64, 23)
        g = rng.standard_normal(x.shape[:-1] + (2,))
        grads = []
        for x_t in (Tensor(x.data), x):
            with Tape() as tape:
                T.conv2d(x_t, w, b)
            grads.append(tape.nodes[-1].backward_fn(g))
        (dx, dw, db), (dx_ref, dw_ref, db_ref) = grads
        assert dx is None and dx_ref is not None
        assert np.array_equal(dw, dw_ref) and np.array_equal(db, db_ref), k


def conv_oracle(x, w, b, stride=1, pad=None):
    """Direct cross-correlation of one [h, w, c_in] map; "same" padding by default."""
    h, wd, cin = x.shape
    k, _, _, cout = w.shape
    if pad is None:
        pad = (k - 1) // 2
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((oh, ow, cout))
    for i in range(oh):
        for j in range(ow):
            patch = xp[i * stride:i * stride + k, j * stride:j * stride + k, :]
            out[i, j] = np.tensordot(patch, w, axes=([0, 1, 2], [0, 1, 2])) + b
    return out


# kernel sides, each "same"-padded: 1x1 (MLP, token embeddings, AdaIN expand),
# 3x3 (RRDB trunk, gates, attention output) and 11x11, nearly as wide as the
# 12x14 input
CONV_CASES = [1, 3, 11]
CONV_TOL = {np.float64: 1e-12, np.float32: 1e-4}


def conv_inputs(k, lead, dtype, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(lead + (12, 14, 3)).astype(dtype), requires_grad=True)
    w = Tensor(rng.standard_normal((k, k, 3, 2)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(2).astype(dtype), requires_grad=True)
    return x, w, b


def test_conv2d_matches_oracle():
    # one test over all cases (not pytest-parametrized) keeps its test id
    for k, lead, dtype in itertools.product(CONV_CASES, [(), (2,)], CONV_TOL):
        x, w, b = conv_inputs(k, lead, dtype, 12)
        got = T.conv2d(x, w, b).data
        assert got.dtype == dtype
        xs = x.data.reshape((-1,) + x.shape[-3:])
        want = np.stack([conv_oracle(xi.astype(np.float64), w.data.astype(np.float64),
                                     b.data.astype(np.float64)) for xi in xs])
        assert np.allclose(got.reshape(want.shape), want, rtol=0, atol=CONV_TOL[dtype])


def test_conv2d_batched_equals_loop():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 6, 6, 2))
    w = Tensor(rng.standard_normal((3, 3, 2, 3)))
    b = Tensor(rng.standard_normal(3))
    batched = T.conv2d(Tensor(x), w, b).data
    for i in range(4):
        single = T.conv2d(Tensor(x[i]), w, b).data
        assert np.array_equal(batched[i], single)


def test_conv2d_pieces_equal_concatenated_input():
    # channel pieces read as their concatenation: the same values, and each
    # piece's gradient is its channel slice of the whole input's gradient
    rng = np.random.default_rng(24)
    widths = [2, 1, 3]
    for k, lead, dtype in itertools.product([1, 3], [(), (2,)], [np.float32, np.float64]):
        arrays = [rng.standard_normal(lead + (5, 7, c)).astype(dtype) for c in widths]
        w = Tensor(rng.standard_normal((k, k, sum(widths), 4)).astype(dtype), requires_grad=True)
        b = Tensor(rng.standard_normal(4).astype(dtype), requires_grad=True)
        g = rng.standard_normal(lead + (5, 7, 4)).astype(dtype)
        whole = Tensor(np.concatenate(arrays, axis=-1), requires_grad=True)
        # the middle piece needs no gradient, as a raw input image would not
        pieces = [Tensor(a, requires_grad=i != 1) for i, a in enumerate(arrays)]
        with Tape() as tape:
            want = T.conv2d(whole, w, b)
            got = T.conv2d(pieces, w, b)
        dx, dw, db = tape.nodes[0].backward_fn(g)
        *dxs, dw_p, db_p = tape.nodes[1].backward_fn(g)
        assert tape.nodes[1].inputs == (*pieces, w, b)
        assert got.dtype == dtype and np.array_equal(got.data, want.data), (k, lead, dtype)
        assert np.array_equal(dw_p, dw) and np.array_equal(db_p, db)
        assert len(dxs) == 3 and dxs[1] is None
        for dx_p, c0, c1 in zip(dxs, [0, 2, 3], [2, 3, 6]):
            if dx_p is not None:
                assert dx_p.dtype == dtype and np.array_equal(dx_p, dx[..., c0:c1])


def test_conv2d_gradients():
    rng = np.random.default_rng(14)
    for k, lead in itertools.product(CONV_CASES, [(), (2,)]):
        x, w, b = conv_inputs(k, lead, np.float64, 14)
        def loss():
            return T.tsum(T.square(T.conv2d(x, w, b)))
        for name, t in (("x", x), ("w", w), ("b", b)):
            finite_diff_check(loss, [(name, t)], 5, rng, tol=1e-5)
        # f32 keeps its dtype and agrees with the finite-difference-checked f64 gradient
        x32, w32, b32 = (Tensor(t.data.astype(np.float32), requires_grad=True) for t in (x, w, b))
        with Tape() as tape:
            loss32 = T.tsum(T.square(T.conv2d(x32, w32, b32)))
        grads32 = backward(loss32, tape)
        for t, t32 in ((x, x32), (w, w32), (b, b32)):
            g64, g32 = grad_of(loss, t), grads32[t32]
            assert g32.dtype == np.float32
            assert np.allclose(g32, g64, rtol=1e-4, atol=1e-4 * np.abs(g64).max())


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((6, 6, 2)))
    with pytest.raises(ShapeError):  # even k has no "same" padding
        T.conv2d(x, Tensor(np.zeros((4, 4, 2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.zeros((3, 3, 5, 3))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.zeros((3, 3, 2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):  # an empty extent, as from an empty image file
        T.conv2d(Tensor(np.zeros((0, 6, 2))), Tensor(np.zeros((3, 3, 2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):  # pieces with different [h, w]
        T.conv2d([x, Tensor(np.zeros((6, 5, 1)))], Tensor(np.zeros((3, 3, 3, 3))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):  # pieces whose channels do not add up to c_in
        T.conv2d([x, Tensor(np.zeros((6, 6, 1)))], Tensor(np.zeros((3, 3, 2, 3))), Tensor(np.zeros(3)))


def closure_arrays(fn):
    """Every array a callable reaches through its closure cells."""
    seen, found, stack = set(), [], [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
    return found


@pytest.mark.parametrize("k", CONV_CASES)
def test_conv2d_tape_keeps_no_patch_buffer(k):
    x, w, b = conv_inputs(k, (2,), np.float64, 19)
    with Tape() as tape:
        T.conv2d(x, w, b)
    (node,) = tape.nodes
    n, h, wd, c = x.shape
    pad = (k - 1) // 2
    padded = x.data.itemsize * n * (h + 2 * pad) * (wd + 2 * pad) * c
    held = [a.nbytes for a in closure_arrays(node.backward_fn)
            if a is not w.data and a is not b.data]
    assert held and max(held) <= padded
    # two pieces (2 + 1 channels): the tape keeps the pieces, not their join
    pieces = [Tensor(x.data[..., :2].copy(), requires_grad=True),
              Tensor(x.data[..., 2:].copy(), requires_grad=True)]
    with Tape() as tape:
        T.conv2d(pieces, w, b)
    (node,) = tape.nodes
    held = [a for a in closure_arrays(node.backward_fn) if a is not w.data and a is not b.data]
    assert held and all(a.shape[-1] != c for a in held)


# strip budgets, each a function of (h, padded width bytes of one row, halo rows)
STRIP_BUDGETS = {
    "1 row": lambda h, row, halo: 1,
    "2 rows": lambda h, row, halo: (2 + halo) * row,
    "3 rows": lambda h, row, halo: (3 + halo) * row,
    "2 images": lambda h, row, halo: 2 * (h + halo) * row,
}


@settings(max_examples=60)
@given(k=st.sampled_from([1, 3]), dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.sampled_from([(), (1,), (3,)]), widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       h=st.integers(1, 8), w=st.integers(1, 6), budget=st.sampled_from(sorted(STRIP_BUDGETS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conv2d_strips_property(k, dtype, lead, widths, h, w, budget, seed):
    # conv2d with the strip budget cut to a few rows or images, so one call
    # walks many strips, halo rows and uneven last strips included
    rng = np.random.default_rng(seed)
    c_in, c_out = sum(widths), 2
    arrays = [rng.standard_normal(lead + (h, w, c)).astype(dtype) for c in widths]
    wt = Tensor(rng.standard_normal((k, k, c_in, c_out)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(c_out).astype(dtype), requires_grad=True)
    g = rng.standard_normal(lead + (h, w, c_out)).astype(dtype)
    row = (w + k - 1) * (c_in + c_out) * np.dtype(dtype).itemsize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_STRIP_BYTES", STRIP_BUDGETS[budget](h, row, k - 1))
        pieces = [Tensor(a, requires_grad=True) for a in arrays]
        whole = Tensor(np.concatenate(arrays, axis=-1), requires_grad=True)
        with Tape() as tape:
            got = T.conv2d(pieces, wt, b)
            want = T.conv2d(whole, wt, b)
        *dxs, dw, db = tape.nodes[0].backward_fn(g)
        dx_w, dw_w, db_w = tape.nodes[1].backward_fn(g)
        # the values are the direct correlation's
        xs = whole.data.reshape((-1, h, w, c_in)).astype(np.float64)
        oracle = np.stack([conv_oracle(xi, wt.data.astype(np.float64), b.data.astype(np.float64))
                           for xi in xs])
        assert np.allclose(got.data.reshape(oracle.shape), oracle, rtol=0, atol=CONV_TOL[dtype])
        # pieces are their join, bit for bit, values and gradients
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(dw, dw_w) and np.array_equal(db, db_w)
        assert np.array_equal(np.concatenate(dxs, axis=-1), dx_w)
        # a batch is its images one by one, bit for bit
        for i, xi in enumerate(whole.data.reshape((-1, h, w, c_in))):
            single = T.conv2d(Tensor(xi), wt, b).data
            assert np.array_equal(single, got.data.reshape((-1, h, w, c_out))[i])
        if dtype == np.float64:
            def loss():
                return T.tsum(T.square(T.conv2d(pieces, wt, b)))
            params = [(f"x{i}", p) for i, p in enumerate(pieces)] + [("w", wt), ("b", b)]
            finite_diff_check(loss, params, 6, rng, tol=1e-5)


def test_conv2d_strips_cover_the_output_once():
    # every output row lies in exactly one strip, whole images or a band of one
    for m, h, k, row in itertools.product([1, 3, 7], [1, 5, 12], [1, 3, 11], [1, 7, 100, 5000, 10 ** 6]):
        strips, rows = T._strips(m, h, k, row)
        covered = np.zeros((m, h), dtype=int)
        for b0, b1, y0, y1 in strips:
            assert b0 < b1 and y0 < y1
            assert (b1 - b0) * (y1 - y0 + k - 1) <= rows
            assert b1 - b0 == 1 or (y0, y1) == (0, h)
            covered[b0:b1, y0:y1] += 1
        assert (covered == 1).all(), (m, h, k, row)
        # within the budget, unless one row and its halo exceed it
        assert rows * row <= max(T._STRIP_BYTES, k * row), (m, h, k, row)


def test_conv2d_forward_memory_is_its_output_and_strips():
    # the forward allocates its output and strip-sized buffers, no whole-map
    # padded copy, accumulator or per-tap product (14.3 MiB here when it did)
    rng = np.random.default_rng(25)
    pieces = [Tensor(rng.standard_normal((240, 240, c)).astype(np.float32)) for c in (16, 8, 8)]
    w = Tensor(rng.standard_normal((3, 3, 32, 16)).astype(np.float32))
    b = Tensor(rng.standard_normal(16).astype(np.float32))
    tracemalloc.start()
    try:
        out = T.conv2d(pieces, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + 4 * T._STRIP_BYTES, peak


def test_attend_backward_scratch_is_one_strip():
    # the backward turns S into dL in place and makes dS a strip of rows at a
    # time: beside dO and the gradients it allocates strip-sized buffers, not
    # two more [.., N, N'] arrays (5.2 and 19.3 MiB above its start when it did),
    # on the global attention of tiny at LR 48 and on S's windows at LR 120
    rng = np.random.default_rng(26)
    for shape in ((2, 576, 8), (400, 4, 36, 4)):
        q, k, v = (Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        w = Tensor(rng.standard_normal(shape).astype(np.float32))
        with Tape() as tape:
            loss = T.tsum(T.attend(q, k, v) * w)
        tracemalloc.start()
        try:
            grads = backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dO is w times the ones of tsum's backward
        bound = sum(grads[t].nbytes for t in (q, k, v)) + w.data.nbytes + 2 * T._STRIP_BYTES
        assert peak < bound, (shape, peak, bound)


@settings(max_examples=60)
@given(one=st.sampled_from(["c_in", "c_out"]), c=st.integers(1, 5), k=st.sampled_from([1, 3, 5]),
       dtype=st.sampled_from([np.float32, np.float64]), lead=st.sampled_from([(), (1,), (3,)]),
       h=st.integers(1, 9), w=st.integers(1, 7), budget=st.sampled_from(sorted(STRIP_BUDGETS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_channel_conv2d_matches_scipy_correlate(one, c, k, dtype, lead, h, w, budget, seed):
    # a c_in = 1 forward and a c_out = 1 input gradient run on one-channel
    # strips; with the strip budget cut to a few rows or images, one call
    # walks many strips, halo rows and uneven last strips included
    from scipy.signal import convolve, correlate
    rng = np.random.default_rng(seed)
    c_in, c_out = (1, c) if one == "c_in" else (c, 1)
    x = Tensor(rng.standard_normal(lead + (h, w, c_in)).astype(dtype), requires_grad=True)
    wt = Tensor(rng.standard_normal((k, k, c_in, c_out)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(c_out).astype(dtype), requires_grad=True)
    g = rng.standard_normal(lead + (h, w, c_out)).astype(dtype)
    row = (w + k - 1) * (c_in + c_out) * np.dtype(dtype).itemsize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_STRIP_BYTES", STRIP_BUDGETS[budget](h, row, k - 1))
        with Tape() as tape:
            out = T.conv2d(x, wt, b)
        dx = tape.nodes[0].backward_fn(g)[0]
    xs, gs = (a.reshape((-1, h, w, a.shape[-1])).astype(np.float64) for a in (x.data, g))
    w64 = wt.data.astype(np.float64)
    # "same" correlation of the odd kernel; its adjoint is the "same" convolution
    want = np.stack([[sum(correlate(xi[..., ci], w64[..., ci, co], mode="same") for ci in range(c_in))
                      + b.data[co] for co in range(c_out)] for xi in xs])
    want_dx = np.stack([[sum(convolve(gi[..., co], w64[..., ci, co], mode="same") for co in range(c_out))
                         for ci in range(c_in)] for gi in gs])
    assert out.dtype == dtype and dx.dtype == dtype
    for got, ref in ((out.data, want), (dx, want_dx)):
        got = got.reshape((-1, h, w, ref.shape[1])).transpose(0, 3, 1, 2)
        assert np.allclose(got, ref, rtol=0, atol=CONV_TOL[dtype])


@settings(max_examples=60)
@given(widths=st.sampled_from([(1,), (2,), (5,), (1, 1), (3, 2), (1, 2, 2)]), c_out=st.sampled_from([1, 3, 8]),
       k=st.sampled_from([1, 3]), dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.sampled_from([(), (1,), (3,), (2, 2)]), h=st.integers(1, 8), w=st.integers(1, 7),
       budget=st.sampled_from(sorted(STRIP_BUDGETS)), seed=st.integers(0, 2 ** 32 - 1))
def test_conv2d_bias_add_is_the_bias_free_conv_plus_bias(widths, c_out, k, dtype, lead, h, w, budget, seed):
    # the forward adds the bias tiled along whole strip rows, or as is on a
    # one-channel strip (widths (1,)) or to one output channel: bit for bit the
    # bias-free conv plus the broadcast bias, on one piece or several, with the
    # strip budget cut to a few rows or images
    rng = np.random.default_rng(seed)
    c_in = sum(widths)
    arrays = [rng.standard_normal(lead + (h, w, c)).astype(dtype) for c in widths]
    wt = Tensor(rng.standard_normal((k, k, c_in, c_out)).astype(dtype))
    b = rng.standard_normal(c_out).astype(dtype)
    row = (w + k - 1) * (c_in + c_out) * np.dtype(dtype).itemsize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_STRIP_BYTES", STRIP_BUDGETS[budget](h, row, k - 1))
        pieces = [Tensor(a) for a in arrays]
        got = T.conv2d(pieces, wt, Tensor(b)).data
        plain = T.conv2d(pieces, wt, Tensor(np.zeros_like(b))).data
    assert got.dtype == dtype and got.shape == lead + (h, w, c_out)
    assert np.array_equal(got, plain + b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_short_softmax_rows_are_numpy_bit_for_bit(dtype):
    # attend's row max, row sum, subtract and divide (_row_update) against
    # numpy's reduce and broadcast, for every row length by columns and past
    # them, with the entries that decide signs and NaNs: every bit, sign bits too
    rng = np.random.default_rng(28)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)
    bits = f"u{np.dtype(dtype).itemsize}"

    def take(_, r, out):  # writes each row's r over the row, to read r itself
        out[...] = r

    with np.errstate(all="ignore"):
        for n in range(1, 21):
            s = rng.standard_normal((3, 50, n)).astype(dtype)
            mask = rng.random(s.shape) < 0.3
            s[mask] = rng.choice(special, mask.sum())
            s[:, 0] = -0.0  # rows of -0: numpy's sum is +0, the max -0
            s[:, 1] = np.where(np.arange(n) % 2, 0.0, -0.0)
            for reduce, r in ((np.maximum, s.max(-1, keepdims=True)), (np.add, s.sum(-1, keepdims=True))):
                for op, want in ((take, np.broadcast_to(r, s.shape)), (np.subtract, s - r),
                                 (np.divide, s / r)):
                    got = s.copy()
                    T._row_update(op, got, reduce, s)
                    assert np.array_equal(got.view(bits), want.view(bits)), (n, reduce, op)


@given(h=st.integers(11, 40), w=st.integers(11, 40), c=st.integers(1, 5),
       lead=st.sampled_from([(), (1,), (3,)]), seed=st.integers(0, 2 ** 32 - 1))
def test_separable_blur_matches_conv2d_property(h, w, c, lead, seed):
    check_separable_blur_matches_conv2d(np.random.default_rng(seed), [lead + (h, w, c)])


def test_separable_blur_gradients():
    # asymmetric taps of even length: a backward that reversed the taps or
    # swapped the passes would pass with the symmetric SSIM window
    rng = np.random.default_rng(20)
    taps = rng.uniform(-1.0, 1.0, 4)
    x = Tensor(rng.standard_normal((2, 7, 9, 3)), requires_grad=True)
    finite_diff_check(lambda: T.tsum(T.square(T.separable_blur(x, taps))), [("x", x)], 10, rng,
                      tol=1e-5)
    y = T.separable_blur(Tensor(x.data.astype(np.float32)), taps)
    assert y.shape == (2, 4, 6, 3) and y.dtype == np.float32


def test_separable_blur_shape_errors():
    x = Tensor(np.zeros((10, 12, 1)))
    with pytest.raises(ShapeError):
        T.separable_blur(x, np.ones(11))
    with pytest.raises(ShapeError):
        T.separable_blur(x, np.ones((3, 3)))
    with pytest.raises(ShapeError):
        T.separable_blur(Tensor(np.zeros((12, 12))), np.ones(3))


def test_unfold_fold_identity():
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((6, 6, 3)))
    for p in (1, 2, 3):
        tok = T.unfold(x, p)
        assert tok.shape == (36 // (p * p), 3 * p * p)
        assert np.array_equal(T.fold(tok, p, 6, 6).data, x.data)
    # p = 1 unfold is a plain flatten
    assert np.array_equal(T.unfold(x, 1).data, x.data.reshape(36, 3))


def test_pixel_shuffle_oracle():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 3, 8))
    y = T.pixel_shuffle(Tensor(x), 2).data
    assert y.shape == (4, 6, 2)
    # channel c r^2 + dy r + dx lands at (r y + dy, r x + dx, c)
    want = x.reshape(2, 3, 2, 2, 2).transpose(0, 3, 1, 4, 2).reshape(4, 6, 2)
    assert np.array_equal(y, want)
    with pytest.raises(ShapeError):
        T.pixel_shuffle(Tensor(np.zeros((2, 2, 7))), 2)


def test_rearrange_carries_leading_axes():
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((2, 3, 4, 6)), requires_grad=True)
    # [.., 4, 6] -> split 6 as (2, 3), order (3, 4, 2), merge the first two
    y = T.rearrange(x, ((4,), (2, 3)), (2, 0, 1), (12, 2))
    want = x.data.reshape(2, 3, 4, 2, 3).transpose(0, 1, 4, 2, 3).reshape(2, 3, 12, 2)
    assert np.array_equal(y.data, want)
    wy = Tensor(rng.standard_normal(y.shape))
    finite_diff_check(lambda: T.tsum(T.rearrange(x, ((4,), (2, 3)), (2, 0, 1), (12, 2)) * wy),
                      [("x", x)], 5, rng, tol=1e-5)
    for split in (((4,), (5,)), ((2, 3, 4, 6, 1, 1),) * 5):
        with pytest.raises(ShapeError):
            T.rearrange(x, split, (1, 0), (6, 4))
    with pytest.raises(ShapeError):  # the 24 entries of a [4, 6] slice do not fill [12, 3]
        T.rearrange(x, ((4,), (2, 3)), (2, 0, 1), (12, 3))


@given(h=st.integers(1, 12), w=st.integers(1, 12), p=st.sampled_from([2, 3]), d=st.integers(1, 3))
def test_layouts_reject_indivisible_extents(h, w, p, d):
    # rearrange is the one extent check: every layout over extents that p does not
    # divide raises ShapeError, never a numpy error, also where the tokens or
    # windows fill the floors h // p and w // p
    assume(h % p or w % p)
    x = Tensor(np.zeros((h, w, d)))
    n = (h // p) * (w // p)
    weights = init_attention_weights(d, 1, np.random.default_rng(0), p=p, rho=p)
    layouts = [
        lambda: T.unfold(x, p),
        lambda: T.fold(Tensor(np.zeros((n, p * p * d))), p, h, w),
        # channels that p^2 does not divide
        lambda: T.pixel_shuffle(Tensor(np.zeros((2, 3, p * p * d + (h % p or w % p)))), p),
        lambda: tokenize(x, weights.embed1, p),
        lambda: tokenize(x, weights.embed2, 1),  # k = rho = p
    ]
    for mode in ("short", "long"):
        layouts.append(lambda mode=mode: partition(x, p, mode))
        layouts.append(lambda mode=mode: merge(Tensor(np.zeros((n, p, p, d))), h, w, mode))
    for layout in layouts:
        with pytest.raises(ShapeError):
            layout()


def test_each_layout_records_one_rearrange_node():
    # each with a leading batch axis: [2, 6, 6, 4] maps, [2, 4, 36] tokens, [2, 4, 3, 3, 4] windows
    x, tokens, wins = (Tensor(np.zeros(shape), requires_grad=True)
                       for shape in ((2, 6, 6, 4), (2, 4, 36), (2, 4, 3, 3, 4)))
    layouts = {
        "unfold": lambda: T.unfold(x, 3),
        "fold": lambda: T.fold(tokens, 3, 6, 6),
        "pixel_shuffle": lambda: T.pixel_shuffle(x, 2),
        "transpose": lambda: T.transpose(x, (0, 2, 3, 1)),
    }
    for mode in ("short", "long"):
        layouts[f"partition-{mode}"] = lambda mode=mode: partition(x, 3, mode)
        layouts[f"merge-{mode}"] = lambda mode=mode: merge(wins, 6, 6, mode)
    for name, fn in layouts.items():
        with Tape() as tape:
            fn()
        assert [node.op for node in tape.nodes] == ["rearrange"], name
    # a layout that moves only unit axes keeps the data in order: a reshape, or no node at all
    with Tape() as tape:
        T.unfold(x, 1)
    assert [node.op for node in tape.nodes] == ["reshape"]
    emb = init_attention_weights(4, 2, np.random.default_rng(0)).embed1
    with Tape() as tape:
        tokenize(x, emb, 1)
    assert "rearrange" not in [node.op for node in tape.nodes]


def test_backward_rejects_foreign_and_nonscalar_losses():
    x = Tensor(np.ones((3, 3)), requires_grad=True)
    with Tape() as tape:
        y = T.square(x)
        scalar = T.tsum(y)
    with pytest.raises(TapeError):
        backward(y, tape)  # not a scalar
    with Tape() as other:
        z = T.tsum(T.square(x))
    del z
    with pytest.raises(TapeError):
        backward(scalar, other)  # loss lives on a different tape


def test_tape_keeps_only_what_backward_reads():
    check_tape_contract(np.random.default_rng(25))


def test_tensor_dtype_contract():
    # integer input is promoted; float32 is kept as-is
    assert Tensor(np.zeros(3, dtype=np.int64)).dtype == np.float64
    assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32
    assert Tensor([1.0, 2.0]).dtype == np.float64
