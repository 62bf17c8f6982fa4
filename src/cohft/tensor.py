"""Dense channel-last tensors and reverse-mode differentiation over a recorded tape.

All forward primitives are pure functions on immutable tensors.  When a Tape is
active (``with Tape() as tape:``), every primitive application with an input that
requires a gradient is recorded so the adjoint pass can later walk the records in
reverse order.  Layout is row-major with channel-last feature maps [h, w, d]; most
primitives also accept one or more leading batch axes.

What the tape keeps: a node links the nodes that produced its inputs (a leaf
tensor stands for itself), holds its output only weakly, and its backward
closure captures only the arrays its gradient formula reads.  So a forward
intermediate that no formula reads, such as a residual term or a
pre-activation conv output, is freed as soon as the forward drops it.

One rule: a ``backward`` consumes everything recorded on its tape before it.
It clears each closure it calls, and the tape's next record starts an empty
list.  A second ``backward`` before that record, or a loss that reaches a
node recorded before the last ``backward`` (on this tape or another), raises
``TapeError`` rather than lose a gradient.
"""
from __future__ import annotations

import itertools
import math
import weakref

import numpy as np

LN_EPS = 1e-5
LEAKY_SLOPE = 0.2  # the RRDB activation's negative slope

_TAPE_STACK: list["Tape"] = []


class ShapeError(ValueError):
    """Raised when operand extents are inconsistent with an operation."""


class TapeError(RuntimeError):
    """Raised when the adjoint pass is asked for a value its tape does not hold:
    one recorded on another tape, or before the tape's last adjoint pass."""


class Tensor:
    # node: the tape node that produced this tensor, or None for a leaf
    __slots__ = ("data", "requires_grad", "node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all routed through the recorded primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)


class Node:
    """One recorded primitive application.

    ``inputs`` holds, per operand, the node that produced it, or else the
    operand tensor itself (a leaf).  The output is held weakly, so it lives
    only as long as the forward keeps it.  ``backward_fn`` is None once a
    backward has called it.
    """
    __slots__ = ("op", "inputs", "_out", "backward_fn")
    requires_grad = True  # a node is recorded only when its output needs a gradient

    def __init__(self, op, inputs, out, backward_fn):
        self.op = op
        self.inputs = inputs
        self._out = weakref.ref(out)
        self.backward_fn = backward_fn

    @property
    def out(self):
        """The output tensor while something else keeps it alive, else None."""
        return self._out()


class Tape:
    """Ordered record of primitive applications.

    A ``backward`` consumes every node on it.  ``nodes`` still lists what it
    walked until the next record (the benchmark's tracer counts them there),
    which starts an empty list.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.spent = False  # a backward ran since the last record

    def record(self, node):
        if self.spent:
            self.nodes.clear()
            self.spent = False
        self.nodes.append(node)

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _record(op, out_data, inputs, backward_fn):
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    # a node no gradient can reach is not kept, nor is the closure it holds
    if out.requires_grad and _TAPE_STACK:
        out.node = Node(op, tuple(t.node or t for t in inputs), out, backward_fn)
        _TAPE_STACK[-1].record(out.node)
    return out


def backward(loss, tape):
    """Adjoint pass: gradients of a scalar tape output w.r.t. requires_grad leaves.

    Visits nodes in strict reverse recording order (reverse topological order by
    construction), dropping each backward closure once called, and consumes
    the whole tape.  Raises ``TapeError`` if the tape is already spent, or if
    the loss reaches a node the tape does not hold: one from another tape, or
    one recorded before its last backward.  Returns {leaf Tensor: gradient array}.
    """
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if loss.node is None:
        raise TapeError("loss tensor was not produced on a tape")
    if tape.spent:
        raise TapeError("backward already ran over this tape since its last record")

    tape.spent = True
    # keyed by node, or by leaf tensor; every node key is popped on its visit
    grads = {loss.node: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node, None)
        if g is None:
            continue
        fn, node.backward_fn = node.backward_fn, None
        for src, ig in zip(node.inputs, fn(g)):
            if ig is None or not src.requires_grad:
                continue
            if src in grads:
                grads[src] = grads[src] + ig
            else:
                grads[src] = ig
    if any(isinstance(key, Node) for key in grads):  # not on this tape since its last backward
        raise TapeError("loss reaches a node recorded on another tape or before its last backward")
    return grads


def _unbroadcast(g, shape):
    """Sum a gradient over axes that were broadcast in the forward direction."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        return (_unbroadcast(g, sa) if need_a else None,
                _unbroadcast(g, sb) if need_b else None)

    return _record("add", out, (a, b), bw)


def sub(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = a.data - b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        return (_unbroadcast(g, sa) if need_a else None,
                _unbroadcast(-g, sb) if need_b else None)

    return _record("sub", out, (a, b), bw)


def mul(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    sa, sb = a.data.shape, b.data.shape
    # each operand is kept only for the other operand's gradient
    ad = a.data if need_b else None
    bd = b.data if need_a else None

    def bw(g):
        return (_unbroadcast(g * bd, sa) if need_a else None,
                _unbroadcast(g * ad, sb) if need_b else None)

    return _record("mul", out, (a, b), bw)


def div(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    ad, bd = a.data, b.data
    out = ad / bd
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (_unbroadcast(g / bd, ad.shape) if need_a else None,
                _unbroadcast(-g * ad / (bd * bd), bd.shape) if need_b else None)

    return _record("div", out, (a, b), bw)


def sqrt(a):
    out = np.sqrt(a.data)

    def bw(g):
        return (g * (0.5 / out),)

    return _record("sqrt", out, (a,), bw)


def square(a):
    ad = a.data
    return _record("square", ad * ad, (a,), lambda g: (g * (2.0 * ad),))


# erf from the rational approximations of Cephes ndtr.c (after Cody 1969,
# "Rational Chebyshev approximations for the error function"), highest power
# first; _ERF_U and _ERF_Q are monic, their leading 1 is written out
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)


# erf makes about 50 elementwise passes; run block by block, its temporaries
# stay in a core's L2 cache (on a whole 240x240x16 map the passes were
# memory-bound and took twice as long)
_ERF_BLOCK = 1 << 15


def _polyval(x, coefs):
    acc = x * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _erf_block(x, out):
    small = np.clip(x, -1.0, 1.0)  # the |x| >= 1 entries are overwritten; clipped, they cannot overflow
    z = small * small
    lo = _polyval(z, _ERF_T)
    lo *= small
    np.divide(lo, _polyval(z, _ERF_U), out=out)
    far = np.flatnonzero(~(np.abs(x) < 1.0))  # NaN is far, as it fails a < 1
    xf = x[far]
    a = np.abs(xf)
    np.minimum(a, 8.0, out=a)
    hi = _polyval(a, _ERF_P)
    hi /= _polyval(a, _ERF_Q)
    np.square(a, out=a)
    np.negative(a, out=a)
    hi *= np.exp(a, out=a)
    np.subtract(1.0, hi, out=hi)
    out[far] = np.copysign(hi, xf, out=hi)


def erf(x):
    """Error function of a float array, evaluated in its dtype.

    x T(x^2)/U(x^2) for |x| < 1, else sign(x) (1 - exp(-a^2) P(a)/Q(a)) with
    a = min(|x|, 8), beyond which erf is 1 at f64.  Each block computes the
    near rational on every entry, then the far branch only on the entries
    where |x| >= 1 or x is NaN, gathered and scattered back: about 15% of a
    GELU's inputs are far, and with most entries far the gather measured no
    slower than running the far branch over every entry.  Each entry gets
    the operations of its own branch, so its bits do not depend on its
    neighbours.  erf(+-inf) = +-1, erf(+-0) = +-0 and NaN stays NaN.
    """
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    for i in range(0, flat.size, _ERF_BLOCK):
        _erf_block(flat[i:i + _ERF_BLOCK], out[i:i + _ERF_BLOCK])
    return out.reshape(x.shape)


def _gelu_grad(x, phi):
    # phi + x pdf(x), pdf(x) = exp(-x x / 2) / sqrt(2 pi), formed in place in one
    # fresh buffer; math.sqrt, not np.sqrt: a NumPy scalar would promote f32 arrays to f64
    d = np.multiply(x, -0.5, out=np.empty_like(x))
    d *= x
    np.exp(d, out=d)
    d /= math.sqrt(2.0 * math.pi)
    d *= x
    d += phi
    return d


def gelu(a):
    """Exact-erf Gaussian error linear unit, x * Phi(x)."""
    ad = a.data
    phi = erf(ad / math.sqrt(2.0))  # a fresh array, so Phi is formed in place
    phi += 1.0
    phi *= 0.5
    out = ad * phi

    def bw(g):
        return (g * _gelu_grad(ad, phi),)

    return _record("gelu", out, (a,), bw)


def sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        return (g * out * (1.0 - out),)

    return _record("sigmoid", out, (a,), bw)


def leaky_relu(a):
    ad = a.data
    # the same array as np.where(ad >= 0, ad, LEAKY_SLOPE * ad), without a mask
    out = np.maximum(ad, LEAKY_SLOPE * ad)
    # the backward reads only the sign mask, one byte an entry, not the input
    keep = ad >= 0

    def bw(g):
        # each entry's slope, exactly 1 or LEAKY_SLOPE in g's dtype, so one
        # multiply is bit for bit the select np.where(keep, g, LEAKY_SLOPE * g)
        slope = keep.astype(g.dtype)
        slope *= 1 - LEAKY_SLOPE
        slope += LEAKY_SLOPE
        return (g * slope,)

    return _record("leaky_relu", out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and rearrangements


def tsum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record("sum", out, (a,), bw)


def tmean(a, axis=None):
    out = a.data.mean(axis=axis)
    # a Python int, so that the gradient keeps the input's dtype
    denom = a.data.size if axis is None else math.prod(
        a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,)))
    shape = a.data.shape

    def bw(g):
        gg = g / denom
        if axis is not None:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _record("mean", out, (a,), bw)


def reshape(a, shape):
    """``a`` viewed with another shape; to its own shape it is ``a`` itself, and records nothing."""
    shape = tuple(shape)
    src = a.data.shape
    if shape == src:
        return a
    return _record("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(src),))


def rearrange(x, split, perm, shape):
    """Reshape -> transpose -> reshape of the trailing axes of x as one node.

    ``split`` gives each trailing axis the extents it splits into, ``perm``
    orders the split axes and ``shape`` is the trailing result; leading axes
    ride along.  The backward runs the inverse and holds only shapes.  A
    permutation that moves only unit axes keeps the data in order: that is a
    ``reshape``, which records nothing when the shape does not change.  The
    one extent check of every layout: each trailing axis must split into its
    extents, and ``shape`` must hold the split's entries, else ``ShapeError``.
    """
    src = x.data.shape
    nb = len(src) - len(split)
    lead, flat = src[:nb], tuple(n for parts in split for n in parts)
    if nb < 0 or any(math.prod(parts) != n for parts, n in zip(split, src[nb:])) \
            or math.prod(shape) != math.prod(flat):
        raise ShapeError(f"rearrange: {src} does not split into {split} and merge into {tuple(shape)}")
    order = [i for i in perm if flat[i] != 1]
    if order == sorted(order):
        return reshape(x, lead + tuple(shape))
    axes = tuple(range(nb)) + tuple(nb + i for i in perm)
    moved, inv = lead + tuple(flat[i] for i in perm), tuple(np.argsort(axes))
    out = x.data.reshape(lead + flat).transpose(axes).reshape(lead + tuple(shape))
    return _record("rearrange", out, (x,), lambda g: (g.reshape(moved).transpose(inv).reshape(src),))


def transpose(a, axes):
    return rearrange(a, tuple((n,) for n in a.shape), axes, tuple(a.shape[i] for i in axes))


def einsum(subscripts, a, b):
    """Two-operand einsum with the transposed-subscript gradient rule.

    Every index of each operand must appear in the output or in the other
    operand (no forward-summed singleton indices).  Forward and backward let
    numpy hand the contraction to BLAS where the subscripts allow it; indices
    shared by both operands and the output (a batch axis) do not, and such
    contractions run faster through ``np.matmul``.
    """
    in_subs, out_sub = subscripts.split("->")
    sa, sb = in_subs.split(",")
    for sub, other in ((sa, sb), ((sb, sa))):
        for ch in sub.replace("...", ""):
            if ch not in out_sub and ch not in other:
                raise ShapeError(f"einsum '{subscripts}': index '{ch}' is not differentiable here")

    out = np.einsum(subscripts, a.data, b.data, optimize=True)
    ad, bd = a.data, b.data

    def bw(g):
        ga = np.einsum(f"{out_sub},{sb}->{sa}", g, bd, optimize=True)
        gb = np.einsum(f"{out_sub},{sa}->{sb}", g, ad, optimize=True)
        return ga, gb

    return _record("einsum:" + subscripts, out, (a, b), bw)


# ---------------------------------------------------------------------------
# attention and normalization


# the max of a row of at most this many entries is taken, and the row updated,
# column by column: along so short a last axis numpy runs one loop per row
_SHORT_ROW = 16


def _row_update(op, s, reduce, src):
    """``op(s, r, out=s)`` with r each last-axis row of ``src`` reduced by
    ``reduce`` (np.maximum or np.add): bit for bit numpy's
    ``op(s, reduce.reduce(src, axis=-1, keepdims=True), out=s)``.

    Short rows go column by column, so every pass runs across the rows: a max
    of at most ``_SHORT_ROW`` entries, as the max and the elementwise op are
    exact in any order, and a sum of fewer than 8, as numpy's pairwise sum adds
    such a row in order.  Other rows keep numpy's reduce and broadcast.
    """
    n = src.shape[-1]
    if n > _SHORT_ROW or (reduce is np.add and n >= 8):
        op(s, reduce.reduce(src, axis=-1, keepdims=True), out=s)
        return
    # a sum starts from 0, as numpy's does: a row of -0 sums to +0
    r = src[..., 0] + 0 if reduce is np.add else src[..., 0].copy()
    for j in range(1, n):
        reduce(r, src[..., j], out=r)
    for j in range(n):
        op(s[..., j], r, out=s[..., j])


def attend(q, k, v):
    """softmax(q k^T) v over the last two axes: q [.., N, e], k [.., N', e], v [.., N', f].

    Leading axes must be equal, none broadcast; the caller scales q.  The
    row-max-shifted softmax S overwrites the logits, and the forward keeps S
    alone.  Backward (Dao et al. 2022, "FlashAttention"): dV = S^T dO,
    dS = dO V^T, dL = S (dS - rowsum(dS S)), dQ = dL K, dK = dL^T Q.  After
    dV, S's buffer turns into dL in place, and dS exists one strip of rows at
    a time (``_strips``, within ``_STRIP_BYTES``), so the backward adds no
    [.., N, N'] array.  Every row max, row sum and row-wise subtract or divide
    goes through ``_row_update``: rows of a few keys (a 3x3 window, the
    inter-head remix) run column by column, with numpy's bits.  Inputs are
    recorded as (v, q, k): one tensor passed as all three sums dV + dQ + dK.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim < 2 or kd.ndim != qd.ndim or vd.shape[:-1] != kd.shape[:-1] \
            or kd.shape[:-2] + kd.shape[-1:] != qd.shape[:-2] + qd.shape[-1:]:
        raise ShapeError(f"attend needs q [.., N, e], k [.., N', e] and v [.., N', f] with equal "
                         f"leading axes, got {qd.shape}, {kd.shape} and {vd.shape}")
    # into a C-ordered buffer: on transposed q and k, matmul's own output is
    # not, and the backward's [B, N, N'] view of it would be a copy
    s = np.matmul(qd, kd.swapaxes(-1, -2), out=np.empty(qd.shape[:-1] + kd.shape[-2:-1],
                                                        dtype=np.result_type(qd, kd)))
    _row_update(np.subtract, s, np.maximum, s)
    np.exp(s, out=s)
    _row_update(np.divide, s, np.add, s)

    def bw(g):
        dv = np.matmul(s.swapaxes(-1, -2), g)
        n, n2 = s.shape[-2:]
        sf = s.reshape(-1, n, n2)
        gf, vf = g.reshape(-1, n, g.shape[-1]), vd.reshape(-1, n2, vd.shape[-1])
        strips, rows = _strips(len(sf), n, 1, n2 * s.itemsize)
        buf = np.empty(rows * n2, dtype=np.result_type(g, vd))
        for b0, b1, y0, y1 in strips:
            ds = buf[:(b1 - b0) * (y1 - y0) * n2].reshape(b1 - b0, y1 - y0, n2)
            np.matmul(gf[b0:b1, y0:y1], vf[b0:b1].swapaxes(-1, -2), out=ds)
            _row_update(np.subtract, ds, np.add, ds * sf[b0:b1, y0:y1])
            sf[b0:b1, y0:y1] *= ds
        # s now holds dL.  dK as (Q^T dL)^T: BLAS sums dL^T Q in another order,
        # which moves the last bits
        return dv, np.matmul(s, kd), np.matmul(qd.swapaxes(-1, -2), s).swapaxes(-1, -2)

    return _record("attend", np.matmul(s, vd), (v, q, k), bw)


def layer_norm(a, gain, shift):
    """Normalize each last-axis slice to mean 0 / variance 1, then affine."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeError(f"layer_norm affine must have shape ({d},), got "
                         f"{gain.data.shape} / {shift.data.shape}")

    # every sum runs as a GEMV on the [n, d] rows: a row sum against ones(d),
    # a column sum (dgain, dshift) as ones(n) against the rows
    xf = a.data.reshape(-1, d)
    ones_d = np.ones(d, dtype=xf.dtype)
    xhat = xf - ((xf @ ones_d) / d)[:, None]
    var = (np.square(xhat) @ ones_d) / d
    inv = (1.0 / np.sqrt(var + LN_EPS))[:, None]
    xhat *= inv
    gd = gain.data
    out = xhat * gd
    out += shift.data

    def bw(g):
        gf = g.reshape(-1, d)
        ones_n = np.ones(gf.shape[0], dtype=gf.dtype)
        gx = gf * xhat
        dgain = ones_n @ gx
        dshift = ones_n @ gf
        # with dxhat = g * gain: dx = inv (dxhat - mean(dxhat) - xhat mean(dxhat xhat))
        m1 = (gf @ gd) / d
        m2 = (gx @ gd) / d
        dx = xhat * m2[:, None]
        dx += m1[:, None]
        np.multiply(gf, gd, out=gx)
        np.subtract(gx, dx, out=dx)
        dx *= inv
        return dx.reshape(g.shape), dgain, dshift

    return _record("layer_norm", out.reshape(a.data.shape), (a, gain, shift), bw)


# ---------------------------------------------------------------------------
# convolution


# conv2d walks its output in strips whose padded input rows and accumulator
# rows take at most this many bytes, so a strip stays in a core's L2 cache
# (256 KiB-2 MiB on current x86) across its k*k tap GEMMs; with whole-map
# buffers every tap streamed through memory (a 240x240, 16+8+8->16 conv took
# 1.5x as long and allocated four times its output)
_STRIP_BYTES = 1 << 18


def _even(n, most):
    """The part size that cuts n into the fewest parts of at most ``most``, the last no larger."""
    return -(-n // -(-n // most))


def _strips(m, h, k, row_bytes):
    """Output strips (b0, b1, y0, y1) of a k x k conv over m maps of h rows, and
    the padded rows of the largest (the first).

    A strip holds as many padded rows of ``row_bytes`` as ``_STRIP_BYTES``
    allows: an even run of whole images when one image fits, else an even
    band of rows of one image (at least one row, plus k - 1 halo rows).
    """
    hp = h + k - 1
    fit = _STRIP_BYTES // row_bytes
    if fit >= hp:
        step = _even(max(m, 1), fit // hp)
        return [(b, min(b + step, m), 0, h) for b in range(0, m, step)], step * hp
    step = _even(h, max(1, fit - (k - 1)))
    return [(b, b + 1, y, min(y + step, h)) for b in range(m) for y in range(0, h, step)], step + k - 1


def _padded_strips(arrays, spans, k, strips, rows):
    """Each strip's padded input, flattened to [rows, c_in]: rows y0 - pad ..
    y1 + pad of images b0 .. b1 of the channel pieces' join, with pad zero
    columns on each side and zero rows outside the maps.

    One buffer of ``rows`` padded rows serves every strip, so each array is
    overwritten by the next.  With nothing to pad or join, the rows are read
    in place.
    """
    h, w = arrays[0].shape[1:3]
    c_in = spans[-1][1]
    pad = (k - 1) // 2
    if not pad and len(arrays) == 1:
        for b0, b1, y0, y1 in strips:
            yield arrays[0][b0:b1, y0:y1].reshape(-1, c_in)
        return
    # zeroed once: only map columns are written, so the pad columns stay zero
    buf = np.zeros((rows, w + 2 * pad, c_in), dtype=np.result_type(*arrays))
    for b0, b1, y0, y1 in strips:
        xp = buf[:(b1 - b0) * (y1 - y0 + 2 * pad)].reshape((b1 - b0, -1) + buf.shape[1:])
        lo, hi = max(y0 - pad, 0), min(y1 + pad, h)
        top, bottom = lo - y0 + pad, hi - y0 + pad
        if y1 - y0 < h:  # a band's halo rows off the map may hold an earlier band's rows
            xp[:, :top] = 0
            xp[:, bottom:] = 0
        for a, (c0, c1) in zip(arrays, spans):
            xp[:, top:bottom, pad:pad + w, c0:c1] = a[b0:b1, lo:hi]
        yield xp.reshape(-1, c_in)


def _tap_sum(xf, taps, strip, w, k, acc, part):
    """One strip of a "same" correlation: the sum, in the order of ``taps``
    [(i, j, matrix)], of the GEMMs of the padded strip rows ``xf`` shifted by
    i*wp + j with each tap's matrix, accumulated in ``acc`` with ``part`` as
    scratch.  Returns the strip's valid outputs, a view of ``acc``.

    The strip's last (k - 1)(wp + 1) rows hold no valid output and are left out.

    A one-channel strip (a c_in = 1 forward, a c_out = 1 input gradient) makes
    one-column GEMMs: each tap is an outer product, one rounded product per
    entry.  Those accumulate channel-major, in [c, n] views of ``acc``'s and
    ``part``'s memory, so every multiply and add runs along the strip rather
    than one c-entry inner loop per pixel, and the same bits come back as a
    strided view.
    """
    b0, b1, y0, y1 = strip
    wp = w + k - 1
    n = len(xf) - (k - 1) * (wp + 1)
    c = acc.shape[1]
    one = xf.shape[1] == 1
    dst, tmp = ((a.reshape(-1)[:c * n].reshape(c, n) for a in (acc, part)) if one
                else (acc[:n], part[:n]))
    for t, (i, j, wt) in enumerate(taps):
        off = i * wp + j
        if one:
            np.multiply(wt.T, xf[off:off + n, 0], out=tmp if t else dst)
        else:
            np.matmul(xf[off:off + n], wt, out=tmp if t else dst)
        if t:
            dst += tmp
    if one:  # output (b, y, x) of channel ch sits at dst[ch, (b hp + y) wp + x], below n
        hp, s = y1 - y0 + k - 1, dst.itemsize
        return np.lib.stride_tricks.as_strided(dst, (b1 - b0, y1 - y0, w, c),
                                               (hp * wp * s, wp * s, s, n * s), writeable=False)
    return acc[:len(xf)].reshape(b1 - b0, -1, wp, c)[:, :y1 - y0, :w]


def conv2d(xs, weights, bias):
    """Stride-1 cross-correlation with "same" zero padding; channel-last [.., h, w, c_in].

    ``xs`` is a tensor or a sequence of channel pieces with equal [.., h, w],
    read as their channel concatenation: each piece is copied into its channel
    slice of each padded strip, and the backward returns one gradient per
    piece (None where none is needed), so there is no concat primitive.
    Weights are [k, k, c_in, c_out] with odd k.

    No patch matrix and no whole-map buffer is made.  The output is computed
    in strips of rows, runs of whole images or bands of one image's rows,
    whose padded input and accumulator fit ``_STRIP_BYTES``: one GEMM per
    kernel tap on a row shift of the padded strip.  The input gradient is the
    same strip correlation of the output gradient with the flipped,
    channel-swapped kernel; the kernel gradient sums per-tap GEMMs of the
    padded input and gradient rows over the same strips.
    """
    pieces = (xs,) if isinstance(xs, Tensor) else tuple(xs)
    wd = weights.data
    if wd.ndim != 4 or wd.shape[0] != wd.shape[1] or not wd.shape[0] % 2:
        raise ShapeError(f"conv2d weights must be [k,k,c_in,c_out] with odd k, got {wd.shape}")
    k, _, c_in, c_out = wd.shape
    if not pieces or pieces[0].data.ndim < 3:
        raise ShapeError(f"conv2d input must be at least [h,w,c], got {[p.data.shape for p in pieces]}")
    extents = pieces[0].data.shape[:-1]
    if any(p.data.shape[:-1] != extents for p in pieces):
        raise ShapeError(f"conv2d pieces differ in [.., h, w]: {[p.data.shape for p in pieces]}")
    lead, (h, w) = extents[:-2], extents[-2:]
    if not h or not w:  # "same" padding fits every other extent
        raise ShapeError(f"conv2d extents {h}x{w} are empty")
    ends = list(itertools.accumulate(p.data.shape[-1] for p in pieces))
    if ends[-1] != c_in:
        raise ShapeError(f"conv2d channel mismatch: input has {ends[-1]}, weights expect {c_in}")
    if bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d bias must have shape ({c_out},), got {bias.data.shape}")
    spans = list(zip([0] + ends[:-1], ends))
    # no gradient for an operand that needs none, such as a raw input image
    need_x, need_w, need_b = [p.requires_grad for p in pieces], weights.requires_grad, bias.requires_grad
    any_x = any(need_x)
    # the lead axes fold into one image axis
    arrays = [p.data.reshape((-1, h, w, p.data.shape[-1])) for p in pieces]
    m = arrays[0].shape[0]
    out = np.empty((m, h, w, c_out), dtype=np.result_type(*arrays, wd, bias.data))
    wp = w + k - 1
    # the forward, dx and dw strips hold the same c_in + c_out channels a row
    strips, rows = _strips(m, h, k, wp * (c_in + c_out) * out.itemsize)
    acc = np.empty((rows * wp, c_out), dtype=np.result_type(*arrays, wd))
    part = np.empty_like(acc)
    taps = [(i, j, wd[i, j]) for i in range(k) for j in range(k)]
    # the bias tiled over a row's w pixels: its [w, c_out] axes merge with the
    # strip view's, so the add runs along whole rows, not one c_out-entry loop
    # per pixel.  A one-channel strip's view is channel-major, and a c_out = 1
    # bias is a scalar along the row: both take the bias as is
    row_bias = bias.data if 1 in (c_in, c_out) else np.tile(bias.data, (w, 1))
    for strip, xf in zip(strips, _padded_strips(arrays, spans, k, strips, rows)):
        b0, b1, y0, y1 = strip
        np.add(_tap_sum(xf, taps, strip, w, k, acc, part), row_bias, out=out[b0:b1, y0:y1])
    if not need_w:  # the pieces are read only for dw
        arrays = None

    def bw(g):
        dxs = [None] * len(spans)
        dw = db = None
        if need_b:
            db = g.sum(axis=tuple(range(g.ndim - 1)))
        if not (need_w or any_x):
            return (*dxs, dw, db)
        gs = g.reshape(m, h, w, c_out)
        gfs = _padded_strips([gs], [(0, c_out)], k, strips, rows)
        xfs = _padded_strips(arrays, spans, k, strips, rows) if need_w else itertools.repeat(None)
        if any_x:
            dx = np.empty((m, h, w, c_in), dtype=g.dtype)
            acc = np.empty((rows * wp, c_in), dtype=np.result_type(g, wd))
            part = np.empty_like(acc)
            # the flipped, channel-swapped kernel, its taps visited in reverse so
            # they add up in the order of the forward's; contiguous, as BLAS runs
            # these narrow GEMMs faster than on transposed views
            wf = np.ascontiguousarray(wd[::-1, ::-1].swapaxes(2, 3))
            flipped = [(i, j, wf[i, j]) for i in reversed(range(k)) for j in reversed(range(k))]
        if need_w:
            dw = np.zeros(wd.shape, dtype=np.result_type(*arrays, g))
            # g's padded rows shifted by pad*wp + pad line up with the input rows
            # of the forward's accumulator, its pad columns with no valid output
            shift, n_off = (k - 1) // 2 * (wp + 1), (k - 1) * (wp + 1)
        for strip, gf, xf in zip(strips, gfs, xfs):
            b0, b1, y0, y1 = strip
            if any_x:
                dx[b0:b1, y0:y1] = _tap_sum(gf, flipped, strip, w, k, acc, part)
            if need_w:
                n = len(xf) - n_off
                for i in range(k):
                    for j in range(k):
                        off = i * wp + j
                        dw[i, j] += xf[off:off + n].T @ gf[shift:shift + n]
        if any_x:
            dx = dx.reshape(lead + (h, w, c_in))
            dxs = [dx[..., c0:c1] if need else None for need, (c0, c1) in zip(need_x, spans)]
        return (*dxs, dw, db)

    return _record("conv2d", out.reshape(lead + (h, w, c_out)), (*pieces, weights, bias), bw)


def separable_blur(x, taps):
    """Valid-mode blur of each channel of [.., h, w, c] with the kernel outer(taps, taps).

    Equal to the inner crop of ``conv2d`` with that kernel on the diagonal of
    [k, k, c, c], but runs k shifted multiply-adds along the rows, then k along
    the columns.  The taps are a constant: the backward returns only the input gradient,
    the same passes transposed (scatter-adds with the same taps).
    """
    taps = np.asarray(taps, dtype=x.dtype)
    if taps.ndim != 1 or x.data.ndim < 3:
        raise ShapeError(f"separable_blur needs 1-D taps and [..,h,w,c], got "
                         f"{taps.shape} and {x.data.shape}")
    k = taps.shape[0]
    h, w = x.data.shape[-3:-1]
    if h < k or w < k:
        raise ShapeError(f"separable_blur extents {h}x{w} smaller than k={k}")
    ho, wo = h - k + 1, w - k + 1

    def along(axis, i, n):
        # index of the extent-n slice that starts at i on spatial axis -3 or -2
        return (Ellipsis, slice(i, i + n)) + (slice(None),) * (-axis - 1)

    def correlate(a, axis, n):
        acc = taps[0] * a[along(axis, 0, n)]
        for i in range(1, k):
            acc += taps[i] * a[along(axis, i, n)]
        return acc

    def correlate_t(g, axis, n):
        full = list(g.shape)
        full[axis] += k - 1
        acc = np.zeros(full, dtype=g.dtype)
        for i in range(k):
            acc[along(axis, i, n)] += taps[i] * g
        return acc

    out = correlate(correlate(x.data, -3, ho), -2, wo)

    def bw(g):
        return (correlate_t(correlate_t(g, -2, wo), -3, ho),)

    return _record("separable_blur", out, (x,), bw)


# ---------------------------------------------------------------------------
# patch tokenization and pixel shuffle


def unfold(x, p):
    """Non-overlapping p x p patches -> [.., N, d p^2]; exact inverse of fold.

    Patches are in row-major patch order; within a patch the flattening runs
    row, then column, then channel.
    """
    h, w, d = x.shape[-3:]
    return rearrange(x, ((h // p, p), (w // p, p), (d,)), (0, 2, 1, 3, 4),
                     ((h // p) * (w // p), p * p * d))


def fold(tokens, p, h, w):
    """Inverse of unfold: [.., N, d p^2] -> [.., h, w, d]."""
    d = tokens.shape[-1] // (p * p)
    return rearrange(tokens, ((h // p, w // p), (p, p, d)), (0, 2, 1, 3, 4), (h, w, d))


def pixel_shuffle(x, r):
    """[.., h, w, d r^2] -> [.., r h, r w, d]; channel c r^2 + dy r + dx goes to (r y + dy, r x + dx, c)."""
    h, w, c = x.shape[-3:]
    d = c // (r * r)
    return rearrange(x, ((h,), (w,), (d, r, r)), (0, 3, 1, 4, 2), (r * h, r * w, d))
