"""Correctness checks on what the cohft CLI wrote.

Each check returns a list of failure messages; an empty list means it passed.
Expected values come from properties of the method (safe start reproduces
bicubic) and from ``oracle``, which is written apart from cohft.  Only the
finite-difference check runs cohft's own forward, to judge its backward.
"""
from __future__ import annotations

import csv
import math

import numpy as np

import oracle

# f32 forward against a float64 oracle, logged with 8 decimals
FIRST_LOSS_RTOL = 1e-5
LOG_ATOL = 1e-8
# metrics.csv prints 6 decimals
PSNR_COLUMN_ATOL = 1e-5
# a safe-start model emits f32 bicubic; the bicubic column is float64
SAFE_PSNR_ATOL = 1e-3
LIVE_PSNR_MIN_GAP = 1e-2
FD_STEP = 1e-6
FD_RTOL = 1e-4
FD_ATOL = 2e-10
# one parameter from each part: trunk conv, window attention, cross-modality
# attention and AdaIN
FD_PARAMETERS = ("gate_main.lift.w", "short_attn.wq", "inter.attn.wk", "inter.adain.fuse_w")


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def first_batch_ids(ids, seed, batch_size):
    """Samples of the first train step: cohft train shuffles with default_rng(seed)."""
    order = np.random.default_rng(seed).permutation(len(ids))
    return [ids[i] for i in order[:batch_size]]


def safe_start_first_loss(pairs, r, alpha, lam):
    """Mean oracle objective of a safe-start network over the given pairs."""
    values, scales = zip(*(oracle.safe_start_objective(p.t2_lr[:, :, 0], p.t2_hr[:, :, 0],
                                                        r, alpha, lam) for p in pairs))
    return float(np.mean(values)), float(np.mean(scales))


def check_train_log(rows, expected_first, scale):
    """Every logged loss is finite; the first equals the safe-start objective."""
    failures = []
    if not rows:
        return ["train_log.csv has no steps"]
    for row in rows:
        for key in ("total", "loss_in", "loss_c"):
            if not math.isfinite(float(row[key])):
                failures.append(f"step {row['step']}: {key} = {row[key]} is not finite")
    first = float(rows[0]["total"])
    tol = FIRST_LOSS_RTOL * scale + LOG_ATOL
    if not abs(first - expected_first) <= tol:
        failures.append(f"first-step loss {first!r} != safe-start bicubic objective "
                        f"{expected_first!r} (|diff| {abs(first - expected_first):.3g} > {tol:.3g})")
    return failures


def check_eval_rows(rows, pairs_by_id, r, live):
    """Bicubic column against the oracle; model values finite; model vs bicubic PSNR.

    ``live``: the checkpoint has every weight non-zero, so the model must
    differ from bicubic.  Otherwise it is a safe-start checkpoint and must
    equal bicubic.
    """
    failures = []
    if not rows:
        return ["metrics.csv has no rows"]
    for row in rows:
        sid = row["sample_id"]
        pair = pairs_by_id[sid]
        want = oracle.psnr(oracle.bicubic_upsample(pair.t2_lr[:, :, 0], r), pair.t2_hr[:, :, 0])
        got = float(row["psnr_bicubic"])
        if not abs(got - want) <= PSNR_COLUMN_ATOL:
            failures.append(f"{sid}: psnr_bicubic {got!r} != oracle bicubic PSNR {want!r}")
        for key in ("psnr_db", "ssim", "loss_in", "loss_c", "total"):
            if not math.isfinite(float(row[key])):
                failures.append(f"{sid}: model {key} = {row[key]} is not finite")
        gap = abs(float(row["psnr_db"]) - got)
        if live and not gap > LIVE_PSNR_MIN_GAP:
            failures.append(f"{sid}: model PSNR {row['psnr_db']} equals bicubic {got!r}; "
                            "the attention path is not live")
        if not live and not gap <= SAFE_PSNR_ATOL:
            failures.append(f"{sid}: safe-start model PSNR {row['psnr_db']} != bicubic {got!r}")
    return failures


def pick_fd_entries(state, seed):
    """[(name, Tensor, flat index)] for the parameters in FD_PARAMETERS."""
    from cohft.model import named_parameters

    rng = np.random.default_rng(seed)
    params = list(named_parameters(state))
    picks = []
    for key in FD_PARAMETERS:
        match = [(n, t) for n, t in params if key in n]
        if not match:
            raise LookupError(f"no model parameter name contains {key!r}")
        name, t = match[0]
        picks.append((name, t, int(rng.integers(t.size))))
    return picks


def fd_failures(loss_of, grads, picks, h=FD_STEP):
    """Compare backward's gradient entries with central differences of loss_of()."""
    failures = []
    for name, t, flat in picks:
        arr = t.data.reshape(-1)
        saved = float(arr[flat])
        arr[flat] = saved + h
        up = loss_of()
        arr[flat] = saved - h
        down = loss_of()
        arr[flat] = saved
        fd = (up - down) / (2.0 * h)
        g = float(np.asarray(grads[t]).reshape(-1)[flat]) if t in grads else 0.0
        if not abs(g - fd) <= FD_RTOL * max(abs(g), abs(fd)) + FD_ATOL:
            failures.append(f"{name}[{flat}]: backward {g!r} != finite difference {fd!r}")
    return failures


def gradient_check(state, mc, pair, alpha, lam, seed):
    """Finite-difference check of tensor.backward at float64 on one sample."""
    from cohft import tensor as T
    from cohft.losses import LossConfig, gradient_map, loss_c, loss_in
    from cohft.model import forward

    lcfg = LossConfig(alpha=alpha, lam=lam)
    gt = T.Tensor(np.asarray(pair.t2_hr, dtype=np.float64))
    grad_gt = gradient_map(gt, lcfg.epsilon_grad)

    def objective():
        i_out, r_out = forward(pair.t2_lr, pair.t2_lr_grad, pair.t1_hr_grad, state, mc)
        return loss_in(i_out, gt, lcfg) + lam * loss_c(r_out, grad_gt, lcfg)

    with T.Tape() as tape:
        loss = objective()
    grads = T.backward(loss, tape)
    picks = pick_fd_entries(state, seed)
    return fd_failures(lambda: objective().item(), grads, picks)
