"""Command-line entry point: gen-data, train, eval, infer, check."""
from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import chft
from . import tensor as T
from .checks import run_all_checks
from .config import ConfigError, RunConfig, load_config
from .data import PhantomSpec, generate_dataset, load_inputs, load_pair, read_manifest
from .losses import LossConfig, objective, objective_extents, psnr, ssim
from .model import (count_parameters, forward, init_model, load_state_arrays,
                    named_parameters, preset, state_arrays)
from .optim import AdamW
from .resample import bicubic_upsample
from .tensor import Tensor


def _dtype(cfg: RunConfig):
    return np.float32 if cfg.precision == "f32" else np.float64


def _model(cfg: RunConfig):
    mc = preset(cfg.preset, r=cfg.r)
    state = init_model(mc, seed=cfg.seed, dtype=_dtype(cfg))
    return mc, state


def _out_dir(cfg: RunConfig):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.echo(out / "config_echo.txt")
    return out


def cmd_gen_data(cfg: RunConfig):
    spec = PhantomSpec(**{f.name: getattr(cfg, f.name) for f in fields(PhantomSpec)})
    ids = generate_dataset(cfg.data_dir, cfg.samples, cfg.r, spec)
    _out_dir(cfg)
    print(f"wrote {len(ids)} samples to {cfg.data_dir}")
    return 0


def _forward(pair, state, mc):
    """One sample's outputs and its ground truth in their dtype: (i_out, r_out, gt)."""
    i_out, r_out = forward(pair.t2_lr, pair.t2_lr_grad, pair.t1_hr_grad, state, mc)
    return i_out, r_out, Tensor(np.asarray(pair.t2_hr, dtype=i_out.data.dtype))


@contextlib.contextmanager
def _naming(sid):
    """Prefix a ShapeError raised inside with the id of the sample it concerns."""
    try:
        yield
    except T.ShapeError as exc:
        raise T.ShapeError(f"{sid}: {exc}") from None


class Diverged(ArithmeticError):
    """A sample's loss was non-finite; args[0] is its id.  No gradient was taken from it."""


def train_step(batch, state, mc, lcfg):
    """One step over (sample id, pair) items: (summed parameter gradients, logged terms).

    The batch is the step's own: losses.objective takes one sample.  The
    gradients are those of the batch total (1/B) sum(L_in + lam L_c).  The
    logged terms are (total, mean L_in, mean L_c): each mean is summed in
    sample order from the detached terms, and the total is LossConfig.total
    of the means.  Raises Diverged, naming the first sample visited whose
    loss is non-finite, before its backward runs.
    """
    share = 1.0 / len(batch)
    grads, terms = {}, [None] * len(batch)
    # Each sample's forward is followed at once by the backward of its share
    # of the batch total.  That backward consumes everything on the tape, and
    # the next sample's first record starts it empty, so the tape holds one
    # sample's activations at a time.  Samples run last-first: one backward
    # over the whole batch's tape sums each parameter's gradient in that
    # order, last sample first, so the sums, added in place into one set,
    # match it bit for bit.  The step keeps one tape, because the benchmark
    # times a train step from Tape.__enter__.
    with T.Tape() as tape:
        for k in reversed(range(len(batch))):
            sid, pair = batch[k]
            total, li, lc = objective(*_forward(pair, state, mc), lcfg)
            if not np.isfinite(total.item()):
                raise Diverged(sid)
            for param, g in T.backward(total * share, tape).items():
                if param in grads:
                    np.add(grads[param], g, out=grads[param])
                else:  # a copy: a closure may return one array for two inputs
                    grads[param] = np.array(g, copy=True)
            terms[k] = Tensor(li.data), Tensor(lc.data)
    li_mean, lc_mean = (share * sum(col[1:], col[0]) for col in zip(*terms))
    return grads, (lcfg.total(li_mean, lc_mean), li_mean, lc_mean)


def cmd_train(cfg: RunConfig):
    ids = read_manifest(cfg.data_dir)
    pairs = [(sid, load_pair(cfg.data_dir, sid)) for sid in ids]
    mc, state = _model(cfg)
    lcfg = LossConfig(alpha=cfg.alpha, lam=cfg.lam)
    for sid, pair in pairs:  # every sample, before --out is touched
        with _naming(sid):
            shape = mc.preflight(pair.t2_lr.shape, pair.t2_lr_grad.shape, pair.t1_hr_grad.shape)
            objective_extents(shape, pair.t2_hr.shape, lcfg)
    out = _out_dir(cfg)
    opt = AdamW(named_parameters(state), lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    ckpt_path = out / "checkpoint.chft"

    step = 0
    stop = False
    with open(out / "train_log.csv", "w", newline="") as logf:
        log = csv.writer(logf)
        log.writerow(["step", "total", "loss_in", "loss_c"])
        for epoch in range(cfg.epochs):
            opt.lr = cfg.lr * 0.5 ** (epoch // cfg.lr_halve_epochs)
            order = rng.permutation(len(pairs))
            for start in range(0, len(order), cfg.batch_size):
                batch = [pairs[i] for i in order[start:start + cfg.batch_size]]
                try:
                    grads, (total, li_mean, lc_mean) = train_step(batch, state, mc, lcfg)
                except Diverged as exc:
                    print(f"training diverged: non-finite loss at step {step + 1} in {exc}",
                          file=sys.stderr)
                    return 1
                opt.step(grads)
                del grads  # the step's one gradient set dies before the next forward
                step += 1
                log.writerow([step, f"{total.item():.8f}",
                              f"{li_mean.item():.8f}", f"{lc_mean.item():.8f}"])
                if cfg.steps and step >= cfg.steps:
                    stop = True
                    break
            chft.save_container(ckpt_path, state_arrays(state))
            if stop:
                break
    if not cfg.epochs:  # every epoch ends with a write; without one, write the initial state
        chft.save_container(ckpt_path, state_arrays(state))
    print(f"trained {step} steps ({count_parameters(state)} parameters); "
          f"checkpoint at {ckpt_path}")
    return 0


def _load_checkpoint(cfg, path):
    mc, state = _model(cfg)
    load_state_arrays(state, chft.load_container(path))
    return mc, state


def cmd_eval(cfg: RunConfig, checkpoint):
    mc, state = _load_checkpoint(cfg, checkpoint)
    lcfg = LossConfig(alpha=cfg.alpha, lam=cfg.lam)
    ids = read_manifest(cfg.data_dir)
    rows = []
    for sid in ids:  # one sample loaded at a time; --out is touched after the last
        pair = load_pair(cfg.data_dir, sid)
        with _naming(sid):
            i_out, r_out, gt = _forward(pair, state, mc)
            _, li, lc = objective(i_out, r_out, gt, lcfg)
            li, lc = li.item(), lc.item()  # the total column is summed at f64
            up = bicubic_upsample(pair.t2_lr.astype(np.float64), cfg.r)
            rows.append([
                sid,
                psnr(i_out.data, pair.t2_hr),
                ssim(Tensor(i_out.data.astype(np.float64)), Tensor(pair.t2_hr)).item(),
                li, lc, lcfg.total(li, lc),
                psnr(up, pair.t2_hr),
                ssim(Tensor(up), Tensor(pair.t2_hr)).item(),
            ])
    path = _out_dir(cfg) / "metrics.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sample_id", "psnr_db", "ssim", "loss_in", "loss_c", "total",
                    "psnr_bicubic", "ssim_bicubic"])
        for row in rows:
            w.writerow([row[0]] + [f"{v:.6f}" for v in row[1:]])
    mean_psnr = float(np.mean([r[1] for r in rows]))
    mean_bic = float(np.mean([r[6] for r in rows]))
    print(f"evaluated {len(rows)} samples: mean PSNR {mean_psnr:.3f} dB "
          f"(bicubic {mean_bic:.3f} dB); report at {path}")
    return 0


def cmd_infer(cfg: RunConfig, checkpoint, t2_lr_path, t1_hr_path):
    mc, state = _load_checkpoint(cfg, checkpoint)
    inputs = load_inputs(t2_lr_path, t1_hr_path)
    with np.errstate(all="ignore"):  # an overflow shows in the outputs, which are checked here
        i_out, r_out = forward(*inputs, state, mc)
    for name, t in (("i_out", i_out), ("r_out", r_out)):  # refused before anything is written
        chft.require_finite(t.data, f"output {name}")
    out = _out_dir(cfg)
    chft.save_tensor(out / "i_out.chft", i_out.data)
    chft.save_tensor(out / "r_out.chft", r_out.data)
    print(f"wrote {out / 'i_out.chft'} and {out / 'r_out.chft'}")
    return 0


def cmd_check(cfg: RunConfig):
    results = run_all_checks(cfg.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="cohft",
                                     description="guided MR super-resolution reference implementation")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="plain-text key=value configuration file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="override one configuration key (repeatable)")
    parser.add_argument("--out", metavar="DIR", default=None, help="output directory")
    parser.add_argument("--seed", metavar="N", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", help="generate a synthetic paired dataset")
    sub.add_parser("train", help="train from the configured dataset")
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the dataset")
    p_eval.add_argument("checkpoint")
    p_infer = sub.add_parser("infer", help="super-resolve one sample")
    p_infer.add_argument("checkpoint")
    p_infer.add_argument("t2_lr")
    p_infer.add_argument("t1_hr")
    sub.add_parser("check", help="run the invariant and gradient verification suite")
    args = parser.parse_args(argv)

    overrides = list(args.overrides)
    if args.out is not None:
        overrides.append(f"out_dir={args.out}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "infer":
            return cmd_infer(cfg, args.checkpoint, args.t2_lr, args.t1_hr)
        if args.command == "check":
            return cmd_check(cfg)
    except (ConfigError, T.ShapeError, chft.FormatError, OSError) as exc:
        # bad configuration, input extents, files or paths: one line, no traceback
        print(f"cohft: error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
