import ast
import csv
import os
import shlex
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import cohft
from cohft import checks, chft, cli
from cohft import tensor as T
from cohft.checks import ALL_CHECKS, CheckResult
from cohft.config import load_config
from cohft.data import (PhantomSpec, load_pair, read_manifest, sample_images, save_images,
                        write_manifest)
from cohft.losses import LossConfig, gradient_map, loss_c, objective, ssim
from cohft.model import init_model, named_parameters, preset, state_arrays
from cohft.optim import AdamW
from cohft.resample import bicubic_upsample
from cohft.tensor import Tensor


def run(args):
    return cli.main(args)


def gen(tmp_path, samples=2, side=24):
    data = tmp_path / "data"
    out = tmp_path / "out"
    rc = run(["--set", f"data_dir={data}", "--set", f"samples={samples}",
              "--set", f"side={side}", "--out", str(out), "--seed", "0", "gen-data"])
    assert rc == 0
    return data, out


def test_gen_data(tmp_path):
    data, out = gen(tmp_path)
    ids = read_manifest(data)
    assert ids == ["sample_00000", "sample_00001"]
    pair = load_pair(data, ids[0])
    assert pair.t2_lr.shape == (12, 12, 1)
    assert (out / "config_echo.txt").exists()


def test_train_writes_log_and_checkpoint(tmp_path):
    data, out = gen(tmp_path)
    rc = run(["--set", f"data_dir={data}", "--set", "steps=2", "--set", "batch_size=2",
              "--out", str(out), "--seed", "0", "train"])
    assert rc == 0
    with open(out / "train_log.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["step"] for r in rows] == ["1", "2"]
    assert all(np.isfinite(float(r["total"])) for r in rows)
    assert (out / "checkpoint.chft").exists()


def test_f32_train_writes_f32_checkpoint(tmp_path):
    # the first step's update must not promote parameters, so step 2 runs in f32 too
    data, out = gen(tmp_path)
    rc = run(["--set", f"data_dir={data}", "--set", "steps=2", "--set", "batch_size=2",
              "--set", "precision=f32", "--out", str(out), "--seed", "0", "train"])
    assert rc == 0
    saved = chft.load_container(out / "checkpoint.chft")
    assert saved and {name: arr.dtype for name, arr in saved.items()} == \
        {name: np.dtype(np.float32) for name in saved}


def test_zero_epoch_checkpoint_equals_init(tmp_path):
    data, out = gen(tmp_path)
    rc = run(["--set", f"data_dir={data}", "--set", "epochs=0",
              "--out", str(out), "--seed", "3", "train"])
    assert rc == 0
    saved = chft.load_container(out / "checkpoint.chft")
    init = init_model(preset("tiny", r=2), seed=3, dtype=np.float32)
    for name, arr in state_arrays(init):
        assert np.array_equal(saved[name], arr), name


def test_each_checkpoint_state_is_written_once(tmp_path, monkeypatch):
    # 4 samples at batch 2 are two steps an epoch: the first epoch ends at
    # step 2, and the steps=3 stop ends the run in the middle of the second
    data, out = gen(tmp_path, samples=4)
    writes = []
    save = chft.save_container

    def counting_save(path, arrays):
        writes.append({name: arr.copy() for name, arr in arrays})
        return save(path, arrays)

    monkeypatch.setattr(chft, "save_container", counting_save)
    rc = run(["--set", f"data_dir={data}", "--set", "steps=3", "--set", "batch_size=2",
              "--out", str(out), "--seed", "0", "train"])
    assert rc == 0
    assert len(writes) == 2
    saved = chft.load_container(out / "checkpoint.chft")
    assert all(np.array_equal(saved[name], arr) for name, arr in writes[-1].items())
    assert not all(np.array_equal(saved[name], arr) for name, arr in writes[0].items())


def test_failed_checkpoint_write_leaves_the_previous_checkpoint(tmp_path, monkeypatch, capsys):
    # 2 samples at batch 2 are one step an epoch; the second epoch's write fails
    # partway, at its fourth entry, as on a full disk
    data, out = gen(tmp_path)
    entries = len(state_arrays(init_model(preset("tiny", r=2))))
    writes, encoded = [], []
    save, encode = chft.save_container, chft._encode

    def copying_save(path, arrays):
        writes.append({name: arr.copy() for name, arr in arrays})
        return save(path, arrays)

    def failing_encode(arr):
        encoded.append(arr.shape)
        if len(encoded) == entries + 4:
            raise OSError(28, "No space left on device")
        return encode(arr)

    monkeypatch.setattr(chft, "save_container", copying_save)
    monkeypatch.setattr(chft, "_encode", failing_encode)
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--set", "steps=2", "--set", "batch_size=2",
                                   "--out", str(out), "--seed", "0", "train"], "No space left on device")
    assert len(writes) == 2
    saved = chft.load_container(out / "checkpoint.chft")
    assert saved.keys() == writes[0].keys()
    assert all(np.array_equal(saved[name], arr) for name, arr in writes[0].items())
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.chft", "config_echo.txt", "train_log.csv"]


def test_learning_rate_halves_every_lr_halve_epochs(tmp_path, monkeypatch):
    # 2 samples at batch 2 are one step an epoch, so steps 3 and 5 each open a halving period
    data, out = gen(tmp_path)
    lrs, step = [], AdamW.step

    def noting_step(self, grads):
        lrs.append(self.lr)
        return step(self, grads)

    monkeypatch.setattr(AdamW, "step", noting_step)
    rc = run(["--set", f"data_dir={data}", "--set", "steps=5", "--set", "batch_size=2",
              "--set", "lr=3e-3", "--set", "lr_halve_epochs=2", "--out", str(out), "--seed", "0", "train"])
    assert rc == 0
    assert lrs == [3e-3 * f for f in (1, 1, 0.5, 0.5, 0.25)]


@pytest.mark.parametrize("alpha,lam,on_tape", [(1.0, 0.0, False), (0.95, 0.5, True)])
def test_zero_weighted_terms_stay_off_the_tape(tmp_path, monkeypatch, alpha, lam, on_tape):
    data, out = gen(tmp_path, samples=1)
    tapes, outputs = [], []
    backward, forward = T.backward, cli.forward

    def keep_tape(loss, tape):
        tapes.append(tape)
        return backward(loss, tape)

    def keep_outputs(*args):
        outputs.append(forward(*args))
        return outputs[-1]

    monkeypatch.setattr(T, "backward", keep_tape)
    monkeypatch.setattr(cli, "forward", keep_outputs)
    rc = run(["--set", f"data_dir={data}", "--set", "steps=1", "--set", "batch_size=1",
              "--set", f"alpha={alpha}", "--set", f"lam={lam}",
              "--out", str(out), "--seed", "0", "train"])
    assert rc == 0
    (_, r_out), = outputs
    nodes = tapes[0].nodes
    assert any(node.op == "separable_blur" for node in nodes) == on_tape
    # at lam = 0 the gradient-domain term reads a detached copy of r_out; node
    # inputs link the node that produced r_out, not the tensor
    assert any(t is r_out.node for node in nodes for t in node.inputs) == on_tape
    # the log still shows loss_c, computed as it would be directly
    pair = load_pair(data, read_manifest(data)[0])
    lcfg = LossConfig(alpha=alpha, lam=lam)
    gt = Tensor(np.asarray(pair.t2_hr, dtype=r_out.dtype))
    want = loss_c(Tensor(r_out.data), gradient_map(gt, lcfg.epsilon_grad), lcfg).item()
    with open(out / "train_log.csv") as f:
        (row,) = list(csv.DictReader(f))
    assert row["loss_c"] == f"{want:.8f}"


def test_train_step_calls_every_primitive(tmp_path, monkeypatch, tape_primitives):
    # a primitive that one f64 train step with both loss terms never calls has
    # no caller left, and goes
    data, out = gen(tmp_path, samples=1)
    called = set()

    def counted(name, fn):
        def primitive(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return primitive

    for name in tape_primitives:
        monkeypatch.setattr(T, name, counted(name, getattr(T, name)))
    assert run(["--set", f"data_dir={data}", "--set", "steps=1", "--set", "batch_size=1",
                "--set", "precision=f64", "--set", "alpha=0.95", "--set", "lam=0.5",
                "--out", str(out), "--seed", "0", "train"]) == 0
    assert "attend" in tape_primitives and "conv2d" in tape_primitives
    missed = sorted(set(tape_primitives) - called)
    assert not missed, f"no train step calls {missed}"


def test_eval_report(tmp_path):
    data, out = gen(tmp_path)
    run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"])
    rc = run(["--set", f"data_dir={data}", "--out", str(out), "eval",
              str(out / "checkpoint.chft")])
    assert rc == 0
    with open(out / "metrics.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(read_manifest(data))
    for row in rows:
        pair = load_pair(data, row["sample_id"])
        up = bicubic_upsample(pair.t2_lr[:, :, 0].astype(np.float64), 2)[:, :, None]
        want = 10.0 * np.log10(1.0 / np.mean((up - pair.t2_hr) ** 2))
        assert abs(float(row["psnr_bicubic"]) - want) <= 1e-4
        assert abs(float(row["ssim_bicubic"])
                   - ssim(Tensor(up), Tensor(pair.t2_hr)).item()) <= 1e-4
        # safe-start checkpoint: the model output is the bicubic baseline
        # (up to 32-bit rounding of the skip connection)
        assert abs(float(row["psnr_db"]) - float(row["psnr_bicubic"])) <= 1e-3


def test_infer_safe_start_equals_bicubic(tmp_path):
    data, out = gen(tmp_path)
    run(["--set", f"data_dir={data}", "--set", "epochs=0", "--set", "precision=f64",
         "--out", str(out), "train"])
    sid = read_manifest(data)[0]
    rc = run(["--set", "precision=f64", "--out", str(out), "infer",
              str(out / "checkpoint.chft"),
              str(data / f"{sid}.t2_lr.chft"),
              str(data / f"{sid}.t1_hr.chft")])
    assert rc == 0
    # each file replaced its temporary twin whole: none is left beside it
    assert sorted(p.name for p in out.iterdir()) == \
        ["checkpoint.chft", "config_echo.txt", "i_out.chft", "r_out.chft", "train_log.csv"]
    i_out = chft.load_tensor(out / "i_out.chft")
    r_out = chft.load_tensor(out / "r_out.chft")
    pair = load_pair(data, sid)
    up = bicubic_upsample(pair.t2_lr[:, :, 0], 2)[:, :, None]
    assert np.array_equal(i_out, up)
    assert np.array_equal(r_out, np.zeros_like(r_out))


def test_divergence_guard(tmp_path, monkeypatch, capsys):
    data, out = gen(tmp_path, samples=3)
    bad = load_pair(data, "sample_00001").t2_lr
    forward, backward = cli.forward, T.backward
    losses = []

    def poisoned(i_in, *args):
        i_out, r_out = forward(i_in, *args)
        return (i_out * np.nan if np.array_equal(i_in, bad) else i_out), r_out

    def keep_loss(loss, tape):
        losses.append(loss.item())
        return backward(loss, tape)

    monkeypatch.setattr(cli, "forward", poisoned)
    monkeypatch.setattr(T, "backward", keep_loss)
    rc = run(["--set", f"data_dir={data}", "--set", "steps=1", "--out", str(out), "train"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "diverged" in err and "sample_00001" in err, err
    assert all(np.isfinite(losses)), "the poisoned sample's backward ran"
    assert (out / "train_log.csv").read_text().splitlines() == ["step,total,loss_in,loss_c"]
    assert not (out / "checkpoint.chft").exists()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("alpha,lam", [(0.95, 0.5), (1.0, 0.0)])
def test_train_step_gradients_equal_one_batch_tape(tmp_path, dtype, alpha, lam):
    # per-sample backwards, last sample first, sum to the batch tape's gradients bit for bit
    data, _ = gen(tmp_path, samples=3)
    batch = [(sid, load_pair(data, sid)) for sid in read_manifest(data)]
    mc = preset("tiny")
    state = init_model(mc, seed=3, dtype=dtype, safe_start=False)
    lcfg = LossConfig(alpha=alpha, lam=lam)
    grads, logged = cli.train_step(batch, state, mc, lcfg)
    # the reference: one tape over the whole batch, each mean (1/B) sum in sample order
    with T.Tape() as tape:
        li, lc = zip(*(objective(*cli._forward(pair, state, mc), lcfg)[1:] for _, pair in batch))
        li_mean, lc_mean = ((1 / len(batch)) * sum(t[1:], t[0]) for t in (li, lc))
        want = (li_mean + lam * lc_mean, li_mean, lc_mean)
    want_grads = T.backward(want[0], tape)
    assert set(grads) == set(want_grads)
    for name, t in named_parameters(state):
        if t in want_grads:
            assert np.array_equal(grads[t], want_grads[t]), name
    assert all(got.data.tobytes() == w.data.tobytes() for got, w in zip(logged, want))


def test_train_drops_each_gradient_set_before_the_next_step(tmp_path, monkeypatch):
    # the arrays AdamW.step reads are dead when the next step's tape opens
    data, out = gen(tmp_path)
    step, enter = cli.AdamW.step, T.Tape.__enter__
    received, alive = [], []

    def keep_weakrefs(opt, grads):
        received.append([weakref.ref(g) for g in grads.values()])
        return step(opt, grads)

    def count_alive(tape):
        if received:
            alive.append(sum(ref() is not None for ref in received[-1]))
        return enter(tape)

    monkeypatch.setattr(cli.AdamW, "step", keep_weakrefs)
    monkeypatch.setattr(T.Tape, "__enter__", count_alive)
    rc = run(["--set", f"data_dir={data}", "--set", "steps=3", "--set", "batch_size=2",
              "--out", str(out), "train"])
    assert rc == 0
    assert len(received) == 3 and all(received)
    assert alive == [0, 0]


def test_train_step_memory_does_not_grow_with_batch(tmp_path):
    # the tape holds one sample's activations at a time
    data, _ = gen(tmp_path, samples=4, side=48)
    peaks = {}
    for batch_size in (1, 4):
        tracemalloc.start()
        try:
            rc = run(["--set", f"data_dir={data}", "--set", "steps=1",
                      "--set", f"batch_size={batch_size}",
                      "--out", str(tmp_path / f"out{batch_size}"), "train"])
            peaks[batch_size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
    assert peaks[4] < 1.5 * peaks[1], peaks


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    # every command of the README's Quick start, made small by overrides before its subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start\n", 1)[1].split("```\n")[1].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line and not line.startswith("#")]
    assert [argv[0] for argv in commands] == ["cohft"] * 5, commands
    small = ["--set", "samples=2", "--set", "side=24", "--set", "steps=2", "--set", "batch_size=2"]
    monkeypatch.chdir(tmp_path)
    # `cohft check` need only parse and report here: the check_run fixture runs the suite itself
    monkeypatch.setattr(checks, "run_all_checks",
                        lambda seed: [CheckResult(name, True) for name, _ in ALL_CHECKS])
    for argv in commands:
        at = next(i for i, arg in enumerate(argv) if arg in ("gen-data", "train", "eval", "infer", "check"))
        assert run(argv[1:at] + small + argv[at:]) == 0, argv


def test_check_command_passes(check_run):
    rc, out, _ = check_run
    assert rc == 0
    assert "[FAIL]" not in out
    assert "29/29 checks passed" in out and "[PASS] srnet/parameter-liveness" in out, out


def test_check_detects_injected_gradient_fault(tmp_path, monkeypatch, capsys):
    # corrupt the gelu derivative hook; the finite-difference checks must notice
    monkeypatch.setattr(T, "_gelu_grad", lambda x, phi: phi)
    rc = run(["--out", str(tmp_path / "out"), "check"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]" in out


def assert_one_line_error(capsys, args, needle):
    rc = run(args)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert err.startswith("cohft: error: ") and err.count("\n") == 1, err
    assert needle in err, err


@pytest.mark.parametrize("args, needle", [
    (["--set", "batch_size=0", "train"], "batch_size"),
    (["--set", "lr_halve_epochs=0", "train"], "lr_halve_epochs"),
    (["--set", "r=0", "gen-data"], "r must be at least 1"),
    (["--set", "steps=-1", "train"], "steps"),
    (["--set", "lr=-1", "train"], "lr must be at least 0, got -1.0"),
    (["--set", "lam=-2", "train"], "lam must be at least 0, got -2.0"),
    (["--set", "weight_decay=-1", "train"], "weight_decay must be at least 0, got -1.0"),
    (["--set", "alpha=1.5", "train"], "alpha must lie in [0, 1], got 1.5"),
    (["--set", "alpha=-0.5", "gen-data"], "alpha must lie in [0, 1], got -0.5"),
    (["--set", "lr=-1", "gen-data"], "lr must be at least 0"),
    # the ellipses rule is a config rule, so train rejects it too
    (["--set", "ellipses_min=9", "--set", "ellipses_max=3", "train"],
     "between 0 and ellipses_max (3), got 9"),
    # a negative ellipses_max used to pass that rule, which runs only above 0, and draw no ellipse
    (["--set", "ellipses_max=-3", "gen-data"], "ellipses_max must be at least 0, got -3"),
    *((["--seed", "-1", *command], "seed must be at least 0, got -1")
      for command in (["gen-data"], ["train"], ["check"], ["eval", "ckpt.chft"],
                      ["infer", "ckpt.chft", "a.chft", "b.chft"])),
])
def test_bad_config_is_one_line_error(tmp_path, capsys, args, needle):
    # rejected as the configuration loads: gen-data writes no sample, train no run
    data, out = tmp_path / "data", tmp_path / "out"
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), *args], needle)
    assert not data.exists() and not out.exists()


def test_unknown_preset_is_one_line_error(tmp_path, capsys):
    assert_one_line_error(capsys, ["--set", "preset=XL", "--out", str(tmp_path / "out"), "eval",
                                   str(tmp_path / "ckpt.chft")], "preset 'XL'")


def test_missing_files_are_one_line_errors(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert_one_line_error(capsys, ["--set", f"data_dir={tmp_path / 'nowhere'}", "--out", out,
                                   "train"], "manifest.txt")
    assert_one_line_error(capsys, ["--out", out, "eval", str(tmp_path / "missing.chft")],
                          "missing.chft")


def test_checkpoint_missing_a_parameter_is_one_line_error(tmp_path, capsys):
    data, out = gen(tmp_path, samples=1)
    ckpt = tmp_path / "partial.chft"
    state = init_model(preset("tiny", r=2), seed=0, dtype=np.float32)
    chft.save_container(ckpt, state_arrays(state)[1:])
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), "eval", str(ckpt)],
                          "checkpoint is missing parameter 'gate_main.lift.w'")


def test_checkpoint_entry_name_not_utf8_is_one_line_error(tmp_path, capsys):
    data, out = gen(tmp_path, samples=1)
    ckpt = tmp_path / "bad_name.chft"
    ckpt.write_bytes(struct.pack("<H", 2) + b"\xff\xfe" + chft._encode(np.ones(2, dtype=np.float32)))
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), "eval", str(ckpt)],
                          "entry name at byte 2 is not UTF-8")


def test_indivisible_extents_are_one_line_error(tmp_path, capsys):
    # preset S needs LR sides divisible by p_inter = 5; gen-data defaults give 48
    data, out = gen(tmp_path, samples=1, side=96)
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--set", "preset=S",
                                   "--out", str(out), "train"], "p_inter=5")


def infer_args(data, out, sid, **paths):
    """Arguments of `cohft infer` on one sample; ``paths`` replaces some of its images."""
    return ["--set", f"data_dir={data}", "--out", str(out), "infer", str(out / "checkpoint.chft"),
            *(str(paths.get(field, data / f"{sid}.{field}.chft"))
              for field in ("t2_lr", "t1_hr"))]


def test_non_finite_input_is_one_line_error(tmp_path, capsys):
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    (sid,) = read_manifest(data)
    nan_lr = tmp_path / "nan.t2_lr.chft"
    chft.save_tensor(nan_lr, np.full((12, 12, 1), np.nan, dtype=np.float32))
    assert_one_line_error(capsys, infer_args(data, out, sid, t2_lr=nan_lr),
                          "t2_lr " + str(nan_lr) + " holds 144 non-finite values")
    assert not (out / "i_out.chft").exists()
    # an infinite T1 pixel in the dataset stops train and eval alike
    path = data / f"{sid}.t1_hr.chft"
    guide = chft.load_tensor(path)
    guide[3, 5, 0] = np.inf
    chft.save_tensor(path, guide)
    for command in (["train"], ["eval", str(out / "checkpoint.chft")]):
        assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), *command],
                              "t1_hr " + str(path) + " holds 1 non-finite")


def test_infer_refuses_non_finite_outputs(tmp_path, capsys):
    # a finite LR image scaled by 1e20 overflows the safe-start network to NaN everywhere
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    (sid,) = read_manifest(data)
    huge = tmp_path / "huge.t2_lr.chft"
    chft.save_tensor(huge, 1e20 * chft.load_tensor(data / f"{sid}.t2_lr.chft"))
    echo = (out / "config_echo.txt").read_bytes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_one_line_error(capsys, infer_args(data, out, sid, t2_lr=huge),
                              "output i_out holds 576 non-finite values")
    assert not caught, [str(w.message) for w in caught]  # numpy's warnings would print first
    assert not (out / "i_out.chft").exists() and not (out / "r_out.chft").exists()
    assert (out / "config_echo.txt").read_bytes() == echo


@pytest.mark.parametrize("command", ["train", "eval", "infer"])
def test_overflowing_gradient_map_is_one_line_error(tmp_path, capsys, command):
    # a finite T1 image x 1e200 squares its differences to inf: refused by name, before --out
    data, out = gen(tmp_path, samples=2)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    sid = read_manifest(data)[1]
    path = data / f"{sid}.t1_hr.chft"
    huge = 1e200 * chft.load_tensor(path)
    assert np.isfinite(huge).all()
    chft.save_tensor(path, huge)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    args = {"train": ["--set", f"data_dir={data}", "--out", str(out), "train"],
            "eval": ["--set", f"data_dir={data}", "--out", str(out), "eval",
                     str(out / "checkpoint.chft")],
            "infer": infer_args(data, out, sid)}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_one_line_error(capsys, args, f"gradient map of t1_hr {path} holds ")
    assert not caught, [str(w.message) for w in caught]  # numpy's warnings would print first
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_dataset_of_stored_gradient_maps_is_one_line_error(tmp_path, capsys):
    # the old layout stored both maps and no T1 image; the maps are derived now, and never read
    data, out = gen(tmp_path, samples=1)
    (sid,) = read_manifest(data)
    pair = load_pair(data, sid)
    for field in ("t2_lr_grad", "t1_hr_grad"):
        chft.save_tensor(data / f"{sid}.{field}.chft", getattr(pair, field))
    (data / f"{sid}.t1_hr.chft").unlink()
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), "train"],
                          f"{sid}.t1_hr.chft")


@pytest.mark.parametrize("rows, cols", [(12, 12), (1, 24)])
def test_ground_truth_of_other_extents_is_one_line_error(tmp_path, capsys, rows, cols):
    # 12x12 is the LR extent; a 1x24 ground truth would broadcast against the 24x24 output
    # a one-step run first: its train_log.csv holds a row that a rewrite would lose
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "steps=1", "--out", str(out), "train"]) == 0
    (sid,) = read_manifest(data)
    path = data / f"{sid}.t2_hr.chft"
    chft.save_tensor(path, chft.load_tensor(path)[:rows, :cols])
    before = [(out / name).read_bytes() for name in ("train_log.csv", "checkpoint.chft")]
    for command in (["train"], ["--set", "alpha=1.0", "--set", "lam=0.0", "train"],
                    ["eval", str(out / "checkpoint.chft")]):
        assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), *command],
                              f"ground truth extents ({rows}, {cols}, 1) do not match")
    # train checks every sample before it writes, so the earlier run in --out stays whole
    assert [(out / name).read_bytes() for name in ("train_log.csv", "checkpoint.chft")] == before


def test_bad_sample_anywhere_stops_train_before_it_writes(tmp_path, capsys):
    # the fifth sample's 10 px LR side is not divisible by the tiny preset's g=3
    data, _ = gen(tmp_path, samples=4)
    save_images(data, "sample_odd", sample_images(PhantomSpec(seed=9, side=20), 2))
    write_manifest(data, read_manifest(data) + ["sample_odd"])
    out = tmp_path / "run"
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--set", "steps=2", "--out", str(out),
                                   "train"], "extents 10x10 not divisible by window side g=3")
    assert not out.exists()


@pytest.mark.parametrize("field, reshape, needle", [
    ("t2_lr", lambda a: a[:, :, 0], "LR input must be [h, w, 1], got shape (12, 12)"),
    ("t2_lr", lambda a: np.concatenate([a, a], axis=2),
     "LR input must be [h, w, 1], got shape (12, 12, 2)"),
    ("t1_hr", lambda a: np.concatenate([a, a], axis=2),
     "guidance must be [r h, r w, 1], got shape (24, 24, 2)"),
    # an image of rank 1 has no gradient map: the guidance is rejected by its shape
    ("t2_lr", np.ravel, "LR input must be [h, w, 1], got shape (144,)"),
    ("t1_hr", np.ravel, "guidance must be [r h, r w, 1], got shape (576,)"),
    # an empty extent is named before any compute reads it
    ("t2_lr", lambda a: a[:0, :0], "LR input extents 0x0 are empty"),
    ("t2_lr", lambda a: a[:0, :6], "LR input extents 0x6 are empty"),
    ("t1_hr", lambda a: a[:0, :0], "guidance extents 0x0 are empty"),
], ids=["lr-2d", "lr-2-channels", "guidance-2-channels", "lr-1d", "guidance-1d", "lr-0x0", "lr-0x6",
        "guidance-0x0"])
def test_image_of_other_rank_or_channels_is_one_line_error(tmp_path, capsys, field, reshape, needle):
    # the second of two samples is bad; an earlier run in --out stays whole
    data, out = gen(tmp_path, samples=2)
    assert run(["--set", f"data_dir={data}", "--set", "steps=1", "--out", str(out), "train"]) == 0
    sid = read_manifest(data)[1]
    path = data / f"{sid}.{field}.chft"
    chft.save_tensor(path, reshape(chft.load_tensor(path)))
    names = ("train_log.csv", "checkpoint.chft", "config_echo.txt")
    before = [(out / name).read_bytes() for name in names]
    for command in (["train"], ["eval", str(out / "checkpoint.chft")]):
        assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), *command],
                              f"{sid}: {needle}")
    assert [(out / name).read_bytes() for name in names] == before
    assert_one_line_error(capsys, infer_args(data, out, sid), needle)
    assert not (out / "i_out.chft").exists()


def test_train_error_names_the_bad_sample(tmp_path, capsys):
    data, out = gen(tmp_path, samples=2)
    path = data / "sample_00001.t2_lr.chft"
    a = chft.load_tensor(path)
    chft.save_tensor(path, np.concatenate([a, a], axis=2))
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), "train"],
                          "sample_00001: LR input must be [h, w, 1], got shape (12, 12, 2)")


def test_non_finite_checkpoint_is_one_line_error(tmp_path, capsys):
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    ckpt = out / "checkpoint.chft"
    arrays = chft.load_container(ckpt)
    arrays["head_intensity.w"][1, 2, 3, 0] = np.nan
    chft.save_container(ckpt, list(arrays.items()))
    (sid,) = read_manifest(data)
    for args in (["--set", f"data_dir={data}", "--out", str(out), "eval", str(ckpt)],
                 infer_args(data, out, sid)):
        assert_one_line_error(capsys, args, "checkpoint parameter 'head_intensity.w' holds 1 non-finite")
    assert not (out / "metrics.csv").exists() and not (out / "i_out.chft").exists()


def test_checkpoint_naming_a_parameter_twice_is_one_line_error(tmp_path, capsys):
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    ckpt = out / "checkpoint.chft"
    entries = list(chft.load_container(ckpt).items())
    chft.save_container(ckpt, entries + [e for e in entries if e[0] == "head_intensity.w"])
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), "eval", str(ckpt)],
                          "entry 'head_intensity.w' at byte")
    assert not (out / "metrics.csv").exists()


def test_eval_writes_nan_as_nan(tmp_path, monkeypatch):
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    real = cli.forward
    monkeypatch.setattr(cli, "forward", lambda *args: tuple(
        Tensor(np.full_like(t.data, np.nan)) for t in real(*args)))
    assert run(["--set", f"data_dir={data}", "--out", str(out), "eval",
                str(out / "checkpoint.chft")]) == 0
    with open(out / "metrics.csv") as f:
        (row,) = csv.DictReader(f)
    assert [row[k] for k in ("psnr_db", "ssim", "loss_in", "total")] == ["nan"] * 4
    assert row["psnr_bicubic"] != "nan"


def test_gen_data_side_not_divisible_by_r_is_one_line_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--set", "side=97",
                                   "--out", str(tmp_path / "out"), "gen-data"],
                          "extents 97x97 not divisible by r=2")
    assert not data.exists()


@pytest.mark.parametrize("low", [9, -1])
def test_gen_data_ellipses_min_out_of_range_is_one_line_error(tmp_path, capsys, low):
    data = tmp_path / "data"
    args = ["--set", f"data_dir={data}", "--set", "samples=1", "--set", "side=24",
            "--out", str(tmp_path / "out")]
    assert_one_line_error(capsys, [*args, "--set", f"ellipses_min={low}", "--set", "ellipses_max=3",
                                   "gen-data"], f"between 0 and ellipses_max (3), got {low}")
    assert not data.exists()
    # with ellipses_max = 0 a phantom has no ellipses, whatever ellipses_min says
    assert run([*args, "--set", "ellipses_min=9", "--set", "ellipses_max=0", "gen-data"]) == 0


def test_hr_smaller_than_the_ssim_window_stops_train_before_it_writes(tmp_path, capsys):
    # at r = 1 a 6 px sample fits tiny's windows, but not the 11 px SSIM window
    data, out = tmp_path / "data", tmp_path / "out"
    args = ["--set", f"data_dir={data}", "--set", "r=1", "--out", str(out)]
    assert run([*args, "--set", "samples=2", "--set", "side=6", "gen-data"]) == 0
    # MSE alone needs no window, so that objective trains on the same data
    assert run([*args, "--set", "alpha=1", "--set", "lam=0", "--set", "steps=1", "train"]) == 0
    names = ("train_log.csv", "checkpoint.chft", "config_echo.txt")
    before = [(out / name).read_bytes() for name in names]
    assert_one_line_error(capsys, [*args, "train"], "sample_00000: ssim needs extents >= 11, got 6x6")
    assert [(out / name).read_bytes() for name in names] == before


def assert_eval_stops_naming(capsys, args, checkpoint, out, line):
    # eval streams the samples and writes --out after the last, so a failing one leaves nothing
    assert_one_line_error(capsys, [*args, "--out", str(out), "eval", str(checkpoint)], line)
    assert not (out / "metrics.csv").exists() and not (out / "config_echo.txt").exists()


def test_eval_names_the_sample_under_the_ssim_window(tmp_path, capsys):
    # at r = 1 a 6 px sample trains on MSE alone, but eval reports SSIM, which needs 11 px
    data, run_dir = tmp_path / "data", tmp_path / "run"
    args = ["--set", f"data_dir={data}", "--set", "r=1"]
    assert run([*args, "--set", "samples=2", "--set", "side=6", "--out", str(run_dir), "gen-data"]) == 0
    assert run([*args, "--set", "alpha=1", "--set", "lam=0", "--set", "steps=1", "--out", str(run_dir),
                "train"]) == 0
    assert_eval_stops_naming(capsys, args, run_dir / "checkpoint.chft", tmp_path / "eval",
                             "cohft: error: sample_00000: ssim needs extents >= 11, got 6x6\n")


def test_eval_names_the_sample_with_a_ground_truth_of_other_extents(tmp_path, capsys):
    data, run_dir = gen(tmp_path, samples=2)
    assert run(["--set", f"data_dir={data}", "--set", "steps=1", "--out", str(run_dir), "train"]) == 0
    path = data / "sample_00001.t2_hr.chft"  # the first sample evaluates, the second stops eval
    chft.save_tensor(path, chft.load_tensor(path)[:12, :12])
    assert_eval_stops_naming(capsys, ["--set", f"data_dir={data}"], run_dir / "checkpoint.chft",
                             tmp_path / "eval", "cohft: error: sample_00001: ground truth extents "
                             "(12, 12, 1) do not match the output's (24, 24, 1)\n")


@pytest.mark.parametrize("setting", ["noise_sigma=inf", "blur_sigma=nan", "lr=nan", "alpha=-inf"])
def test_non_finite_config_value_is_one_line_error(tmp_path, capsys, setting):
    # rejected as the configuration loads: gen-data writes no sample, train no run
    data, _ = gen(tmp_path, samples=1)
    fresh, out = tmp_path / "fresh", tmp_path / "run"
    needle = f"{setting.split('=')[0]} must be finite"
    assert_one_line_error(capsys, ["--set", f"data_dir={fresh}", "--set", setting, "--out", str(out),
                                   "gen-data"], needle)
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--set", setting, "--out", str(out),
                                   "train"], needle)
    assert not fresh.exists() and not out.exists()


@pytest.mark.parametrize("key", ["blur_sigma", "noise_sigma"])
def test_gen_data_negative_sigma_is_one_line_error(tmp_path, capsys, key):
    data = tmp_path / "data"
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--set", "samples=1", "--set", "side=24",
                                   "--set", f"{key}=-1", "--out", str(tmp_path / "out"), "gen-data"],
                          f"{key} must be at least 0, got -1.0")
    assert not data.exists()


def test_failing_eval_and_infer_leave_the_run_config_echo(tmp_path, capsys):
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "steps=1", "--out", str(out), "train"]) == 0
    (sid,) = read_manifest(data)
    echo = (out / "config_echo.txt").read_bytes()
    # the tiny checkpoint does not fit preset S, so both commands stop at its load
    for args in (["--set", f"data_dir={data}", "--out", str(out), "eval", str(out / "checkpoint.chft")],
                 infer_args(data, out, sid)):
        assert_one_line_error(capsys, ["--set", "preset=S", *args],
                              "parameter 'gate_main.lift.w': checkpoint shape")
        assert (out / "config_echo.txt").read_bytes() == echo, args


def test_checkpoint_of_a_larger_preset_is_one_line_error(tmp_path, capsys):
    # every S parameter has its shape in M, so only M's extra modules tell the two apart
    data, out = gen(tmp_path, samples=1, side=60)
    (sid,) = read_manifest(data)
    chft.save_container(out / "checkpoint.chft",
                        state_arrays(init_model(preset("M", r=2), dtype=np.float32)))
    for args in (["--set", f"data_dir={data}", "--out", str(out), "eval", str(out / "checkpoint.chft")],
                 infer_args(data, out, sid)):
        assert_one_line_error(capsys, ["--set", "preset=S", *args],
                              "checkpoint entry 'gate_main.rrdb.rdbs.2.convs.0.w' names no parameter")


def test_huge_extents_are_one_line_error(tmp_path, capsys):
    # four extents of 2^31 wrap an int64 element count to 0
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    (sid,) = read_manifest(data)
    huge = tmp_path / "huge.t2_lr.chft"
    huge.write_bytes(b"CHFT" + struct.pack("<HBB4I", 1, 0, 4, *[2 ** 31] * 4) + bytes(8))
    assert_one_line_error(capsys, infer_args(data, out, sid, t2_lr=huge), f"{huge}: truncated payload")
    # a checkpoint given as an image is named too
    ckpt = out / "checkpoint.chft"
    assert_one_line_error(capsys, infer_args(data, out, sid, t2_lr=ckpt), f"{ckpt}: bad magic bytes")
    assert not (out / "i_out.chft").exists()


@pytest.mark.parametrize("command, broken", [("eval", "checkpoint"), ("infer", "checkpoint"),
                                             ("infer", "image")])
def test_header_numpy_cannot_take_is_one_line_error(tmp_path, capsys, command, broken):
    # a first entry of 70 dimensions, past numpy's 64, and a 20-byte empty image
    # whose other two extents numpy cannot index
    data, out = gen(tmp_path, samples=1)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    (sid,) = read_manifest(data)
    ckpt = out / "checkpoint.chft"
    if broken == "checkpoint":
        path, raw = ckpt, bytearray(ckpt.read_bytes())
        raw[2 + struct.unpack_from("<H", raw)[0] + 7] = 70  # after the name, magic, version, dtype
        needle = "70 dimensions exceed numpy's 64"
    else:
        path = tmp_path / "empty.t2_lr.chft"
        raw = b"CHFT" + struct.pack("<HBB3I", 1, 0, 3, 0, 4 * 10 ** 9, 4 * 10 ** 9)
        needle = "extents (0, 4000000000, 4000000000) exceed what numpy can index"
    path.write_bytes(raw)
    images = {"t2_lr": path} if broken == "image" else {}
    args = {"eval": ["--set", f"data_dir={data}", "--out", str(out), "eval", str(ckpt)],
            "infer": infer_args(data, out, sid, **images)}[command]
    assert_one_line_error(capsys, args, f"{path}: {needle}")


@pytest.mark.parametrize("command, broken", [("train", "image"), ("eval", "image"), ("infer", "image"),
                                             ("eval", "checkpoint"), ("infer", "checkpoint")])
def test_truncated_file_is_one_line_error_naming_it(tmp_path, capsys, command, broken):
    data, out = gen(tmp_path)
    assert run(["--set", f"data_dir={data}", "--set", "epochs=0", "--out", str(out), "train"]) == 0
    sid = read_manifest(data)[-1]
    ckpt = out / "checkpoint.chft"
    path = ckpt if broken == "checkpoint" else data / f"{sid}.t1_hr.chft"
    path.write_bytes(path.read_bytes()[:-4])
    args = {"train": ["--set", f"data_dir={data}", "--out", str(out), "train"],
            "eval": ["--set", f"data_dir={data}", "--out", str(out), "eval", str(ckpt)],
            "infer": infer_args(data, out, sid)}[command]
    assert_one_line_error(capsys, args, f"{path}: truncated payload")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_manifest_is_one_line_error(tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.txt").write_text("\n")
    ckpt = tmp_path / "ckpt.chft"
    chft.save_container(ckpt, state_arrays(init_model(preset("tiny", r=2), dtype=np.float32)))
    args = {"train": ["train"], "eval": ["eval", str(ckpt)]}[command]
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(tmp_path / "out"), *args],
                          "manifest.txt lists no samples")


def test_undecodable_manifest_is_one_line_error(tmp_path, capsys):
    data, out = gen(tmp_path, samples=1)
    manifest = data / "manifest.txt"
    manifest.write_bytes(b"sample_00000\n\xff\n")
    ckpt = tmp_path / "ckpt.chft"
    chft.save_container(ckpt, state_arrays(init_model(preset("tiny", r=2), dtype=np.float32)))
    assert_one_line_error(capsys, ["--set", f"data_dir={data}", "--out", str(out), "eval", str(ckpt)],
                          f"{manifest}: byte 13 is not UTF-8")


def test_undecodable_config_file_is_one_line_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"seed = 1\n# \xff\n")
    assert_one_line_error(capsys, ["--config", str(config), "--out", str(tmp_path / "out"), "check"],
                          f"{config}: byte 11 is not UTF-8")


def test_cli_import_loads_no_checks_numpy_random_or_scipy_ndimage():
    # only `cohft check` needs the suite, and only drawing commands need numpy.random
    src = str(Path(cohft.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, cohft.cli; "
            "print([m for m in ('cohft.checks', 'numpy.random', 'scipy.ndimage') if m in sys.modules])")
    run_ = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run_.returncode == 0, run_.stderr
    assert run_.stdout.strip() == "[]"


def test_eval_and_infer_restore_a_checkpoint_without_drawing(tmp_path, monkeypatch):
    data, out = gen(tmp_path, samples=1)
    saved = state_arrays(init_model(preset("tiny", r=2), seed=5, dtype=np.float32, safe_start=False))
    ckpt = out / "checkpoint.chft"
    chft.save_container(ckpt, saved)

    def no_generator(*args, **kwargs):
        raise AssertionError("a checkpoint's model was drawn")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    _, state = cli._load_checkpoint(load_config(), ckpt)
    loaded = state_arrays(state)
    assert [name for name, _ in loaded] == [name for name, _ in saved]
    for (name, got), (_, want) in zip(loaded, saved):
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert run(["--set", f"data_dir={data}", "--out", str(out), "eval", str(ckpt)]) == 0
    assert run(infer_args(data, out, read_manifest(data)[0])) == 0


def test_train_eval_infer_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency, so a process that generates data,
    # trains, evaluates and infers ends with no scipy module loaded
    src = str(Path(cohft.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    data, out = tmp_path / "data", tmp_path / "out"
    code = textwrap.dedent("""
        import sys
        from cohft import cli
        data, out = sys.argv[1:]
        common = ["--set", f"data_dir={data}", "--out", out]
        ckpt = f"{out}/checkpoint.chft"
        sample = f"{data}/sample_00000"
        assert cli.main(common + ["--set", "samples=2", "--set", "side=24", "--seed", "0", "gen-data"]) == 0
        assert cli.main(common + ["--set", "steps=2", "--set", "batch_size=2", "train"]) == 0
        assert cli.main(common + ["eval", ckpt]) == 0
        assert cli.main(common + ["infer", ckpt, f"{sample}.t2_lr.chft", f"{sample}.t1_hr.chft"]) == 0
        print(sorted(name for name in sys.modules if name.startswith("scipy")))
    """)
    runs = subprocess.run([sys.executable, "-c", code, str(data), str(out)],
                          env=env, capture_output=True, text=True)
    assert runs.returncode == 0, runs.stderr
    assert runs.stdout.splitlines()[-1] == "[]", runs.stdout


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency, so no cohft command can load scipy
    for path in sorted(Path(cohft.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "scipy" not in (name.split(".")[0] for name in names), f"{path}:{node.lineno}"
