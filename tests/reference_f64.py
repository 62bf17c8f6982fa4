"""Pinned f64 numerics: the values that ``tests/data/reference_f64.chft`` holds.

``test_reference.py`` recomputes every entry and compares it with the file,
so a change that moves any f64 output, loss term or gradient by more than
1e-12 of its scale fails there with the names of the entries that moved.

Regenerate the file with

    PYTHONPATH=src python tests/reference_f64.py

only when the numbers are meant to change (a new phantom blur, a changed
loss), and say why in CHANGES.md: a refactor never regenerates it.
"""
from __future__ import annotations

import csv
import tempfile
import zlib
from pathlib import Path

import numpy as np

from cohft import chft, cli
from cohft import tensor as T
from cohft.checks import tiny_inputs
from cohft.data import load_pair, read_manifest
from cohft.losses import LossConfig, objective
from cohft.model import forward, init_model, named_parameters, preset
from cohft.tensor import Tensor

PATH = Path(__file__).parent / "data" / "reference_f64.chft"
TOLERANCE = 1e-12
N_PROJECTIONS = 4
# (preset, r, LR side)
CASES = (("tiny", 2, 12), ("tiny", 4, 12), ("S", 2, 30))
# a 3-step f64 tiny run over 3 samples at batch 2: a partial batch and an epoch boundary
TRAIN_ARGS = ("--seed", "5", "--set", "samples=3", "--set", "side=24", "--set", "batch_size=2",
              "--set", "steps=3", "--set", "precision=f64")


def sketch(name, a):
    """[projections; scales] of ``a``: its dot products with 4 fixed random
    vectors v_i seeded by ``name``, over ||a|| ||v_i||, the scale each is compared at."""
    a = np.asarray(a, dtype=np.float64).ravel()
    v = np.random.default_rng(zlib.crc32(name.encode())).standard_normal((N_PROJECTIONS, a.size))
    return np.stack([v @ a, np.linalg.norm(a) * np.linalg.norm(v, axis=1)])


def network_case(name, r, side):
    """i_out, r_out, the loss terms and a sketch of each parameter gradient, with all weights live."""
    cfg = preset(name, r=r)
    state = init_model(cfg, seed=31, safe_start=False)
    rng = np.random.default_rng(37)
    i_in, r_s, r_c = tiny_inputs(rng, side, r)
    gt = Tensor(rng.uniform(0, 1, (r * side, r * side, 1)))
    with T.Tape() as tape:
        i_out, r_out = forward(i_in, r_s, r_c, state, cfg)
        total, li, lc = objective(i_out, r_out, gt, LossConfig())
    grads = T.backward(total, tape)
    prefix = f"{name}-r{r}/"
    yield prefix + "i_out", i_out.data
    yield prefix + "r_out", r_out.data
    yield prefix + "loss", np.array([total.item(), li.item(), lc.item()])
    for pname, p in named_parameters(state):
        yield f"{prefix}grad/{pname}.sketch", sketch(pname, grads[p])


def train_case(workdir):
    """A sketch of the first generated sample, and the log and final weights of a 3-step train."""
    data, out = Path(workdir, "data"), Path(workdir, "out")
    common = ("--out", str(out), "--set", f"data_dir={data}") + TRAIN_ARGS
    for command in ("gen-data", "train"):
        if cli.main([*common, command]):
            raise RuntimeError(f"cohft {command} failed")
    pair = load_pair(data, read_manifest(data)[0])
    for field in ("t2_lr", "t2_lr_grad", "t1_hr_grad", "t2_hr"):
        yield f"gen-data/{field}.sketch", sketch(field, getattr(pair, field))
    with open(out / "train_log.csv") as f:
        rows = list(csv.reader(f))[1:]
    yield "train/log", np.array([[float(v) for v in row[1:]] for row in rows])
    for pname, arr in chft.load_container(out / "checkpoint.chft").items():
        yield f"train/state/{pname}.sketch", sketch(pname, arr)


def compute(workdir):
    """Every (name, array) the reference file holds, in its order."""
    for case in CASES:
        yield from network_case(*case)
    yield from train_case(workdir)


def moved(reference, current):
    """Names of the reference entries that are missing or moved by more than
    TOLERANCE of their scale, and of any entry the reference lacks.

    A sketch's projections and norms are compared at ||a|| ||v_i||, so
    |<delta, v_i>| <= 1e-12 ||a|| ||v_i||; any other array at its largest magnitude.
    """
    names = [name for name in current if name not in reference]
    for name, ref in reference.items():
        new = current.get(name)
        if new is None or new.shape != ref.shape:
            names.append(name)
            continue
        scale = ref[1] if name.endswith(".sketch") else np.abs(ref).max()
        if not np.all(np.abs(new - ref) <= TOLERANCE * scale):
            names.append(name)
    return names


def main():
    with tempfile.TemporaryDirectory() as workdir:
        entries = list(compute(workdir))
    PATH.parent.mkdir(exist_ok=True)
    chft.save_container(PATH, entries)
    print(f"wrote {len(entries)} entries, {PATH.stat().st_size} bytes, to {PATH}")


if __name__ == "__main__":
    main()
