"""End-to-end acceptance suite.

One test per shipped guarantee: gradient fidelity, attention algebra, window
partitioning, reference-stream alignment, structural identities, safe-start
equivalence, toy-training improvement over the bicubic baseline, and ablation
switch liveness.
"""
import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cohft
from cohft import tensor as T
from cohft.attention import intra_head_attention, remix_heads
from cohft.checks import (check_ablation_liveness, check_adain_alignment,
                          check_attention_row_stochastic, check_fold_unfold_identity,
                          check_gradient_map_bounds, check_network_gradients,
                          check_pixel_shuffle_bijection, check_primitive_gradients,
                          check_ssim_identities, check_two_hop_reachability,
                          check_window_bijectivity)
from cohft.losses import gradient_map
from cohft.model import (conv, forward, init_model, input_gate, output_gate, preset,
                         rrdb, state_arrays)
from cohft import chft
from cohft.resample import bicubic_upsample
from cohft.tensor import Tensor


def test_gradient_fidelity():
    # finite differences at 64-bit, step 1e-5, over every primitive and the
    # full tiny network on a 12x12 input; at least 100 sampled parameters
    start = time.time()
    rng = np.random.default_rng(0)
    check_primitive_gradients(rng)
    worst = check_network_gradients(np.random.default_rng(1), n_samples=100)
    elapsed = time.time() - start
    assert worst <= 1e-4
    assert elapsed <= 120.0, f"gradient fidelity suite took {elapsed:.1f}s"


def test_attention_algebra():
    rng = np.random.default_rng(2)
    check_attention_row_stochastic(rng)

    # single head: the head affinity is 1, so mixing doubles the values
    v = Tensor(rng.standard_normal((8, 1, 5)))
    assert np.array_equal(remix_heads(v).data, 2.0 * v.data)

    # hand-checked scalar: keys [1,0] and [0,0] against query [1,0] in d' = 2,
    # read through identity values
    s = intra_head_attention(Tensor(np.array([[1.0, 0.0]])),
                             Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])), Tensor(np.eye(2)))
    want = math.exp(2 ** -0.5) / (1.0 + math.exp(2 ** -0.5))  # 0.66976...
    assert abs(s.data[0, 0] - want) <= 1e-4
    assert abs(s.data[0, 1] - (1.0 - want)) <= 1e-4

    # hand-checked two-head case: orthonormal heads have unscaled logits [1, 0],
    # so head m gets sigma = e / (e + 1) of itself and 1 - sigma of the other,
    # plus the plain head sum [1, 1]
    u = remix_heads(Tensor(np.eye(2)[None]))
    sigma = math.e / (math.e + 1.0)
    assert np.abs(u.data[0] - [[1.0 + sigma, 2.0 - sigma], [2.0 - sigma, 1.0 + sigma]]).max() <= 1e-12


def test_window_partitioning():
    # on every map of the grid, partition gathers the closed-form short and long
    # windows and merge undoes it; where g >= max(h, w) / g the two modes
    # cascade to the whole grid in two hops
    maps = [(h, w, g) for h in (6, 12, 24) for w in (6, 12, 24) for g in (2, 3, 6)
            if h % g == 0 and w % g == 0]
    check_window_bijectivity(np.random.default_rng(3), maps)
    check_two_hop_reachability(np.random.default_rng(3), maps)


def test_reference_alignment():
    # zero affine offsets: output channel moments match the target stream's
    check_adain_alignment(np.random.default_rng(4))


def test_structural_identities():
    rng = np.random.default_rng(5)
    check_fold_unfold_identity(rng)
    check_pixel_shuffle_bijection(rng)
    check_ssim_identities(rng)
    check_gradient_map_bounds(rng)


def test_safe_start_equivalence(tmp_path):
    # 64-bit safe start through the command line: output equals bicubic bit-for-bit
    from cohft import cli
    from cohft.data import load_pair, read_manifest

    data = tmp_path / "data"
    out = tmp_path / "out"
    assert cli.main(["--set", f"data_dir={data}", "--set", "samples=1",
                     "--set", "side=24", "--out", str(out), "gen-data"]) == 0
    cfg = preset("tiny", r=2)
    state = init_model(cfg, seed=0, dtype=np.float64, safe_start=True)
    ckpt = out / "init.chft"
    chft.save_container(ckpt, state_arrays(state))
    sid = read_manifest(data)[0]
    assert cli.main(["--set", "precision=f64", "--out", str(out), "infer", str(ckpt),
                     str(data / f"{sid}.t2_lr.chft"), str(data / f"{sid}.t1_hr.chft")]) == 0
    pair = load_pair(data, sid)
    up = bicubic_upsample(pair.t2_lr[:, :, 0], 2)[:, :, None]
    assert np.array_equal(chft.load_tensor(out / "i_out.chft"), up)

    # with every attention switch off the network must equal the conv-only path
    cfg_off = preset("tiny", r=2, use_short_wa=False, use_long_wa=False,
                     use_inter_attn=False)
    state2 = init_model(cfg_off, seed=9, dtype=np.float64, safe_start=False)
    rng = np.random.default_rng(6)
    for _ in range(10):
        i_in = rng.uniform(0, 1, (12, 12, 1))
        r_s = gradient_map(Tensor(i_in)).data
        r_c = rng.uniform(0, 1, (24, 24, 1))
        got = forward(i_in, r_s, r_c, state2, cfg_off)

        f_i, p_i, _ = input_gate(Tensor(i_in), Tensor(r_s), Tensor(r_c), state2, cfg_off)
        for stage in state2.stages:
            e_i = f_i
            for w in stage.rrdbs:
                e_i = rrdb(e_i, w)
            fbar = conv(e_i, stage.struct_conv)
            p_i = conv([p_i, fbar], stage.fuse_conv)
            t_i = T.sigmoid(conv(fbar, stage.select_conv))
            f_i = e_i + t_i * p_i
        up2 = Tensor(bicubic_upsample(i_in[:, :, 0], 2)[:, :, None])
        want = output_gate(f_i, p_i, state2, 2, up2)
        assert np.array_equal(got[0].data, want[0].data)
        assert np.array_equal(got[1].data, want[1].data)


def test_toy_training_improves_over_bicubic(tmp_path):
    # tiny preset, 8 synthetic 48 -> 96 pairs, 200 steps on a single CPU thread; scored on
    # the training set and on 8 held-out phantoms from disjoint seeds
    src = str(Path(cohft.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[key] = "1"
    out = tmp_path / "out"
    recipe = ["--set", "blur_sigma=0.6", "--set", "lr=3e-3",
              "--set", "alpha=1.0", "--set", "lam=0.0", "--set", "batch_size=4"]

    def cohft_run(data, seed, *args):
        run = subprocess.run([sys.executable, "-m", "cohft.cli", "--set", f"data_dir={data}",
                              "--out", str(out), "--seed", str(seed), *recipe, *args],
                             env=env, capture_output=True)
        assert run.returncode == 0, run.stderr.decode()

    def mean_psnr(data):
        cohft_run(data, 0, "eval", str(out / "checkpoint.chft"))
        with open(out / "metrics.csv") as f:
            metrics = list(csv.DictReader(f))
        return tuple(np.mean([float(r[key]) for r in metrics]) for key in ("psnr_db", "psnr_bicubic"))

    data, held_out = tmp_path / "data", tmp_path / "held_out"
    for where, seed in ((data, 0), (held_out, 100)):
        cohft_run(where, seed, "--set", "samples=8", "--set", "side=96", "gen-data")

    start = time.time()
    cohft_run(data, 0, "--set", "steps=200", "train")
    train_time = time.time() - start
    assert train_time <= 600.0, f"training took {train_time:.0f}s"

    with open(out / "train_log.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 200
    first, last = float(rows[0]["total"]), float(rows[-1]["total"])
    assert last < 0.5 * first, f"loss went {first:.6f} -> {last:.6f}"

    for where in (data, held_out):
        model_psnr, bicubic_psnr = mean_psnr(where)
        assert model_psnr >= bicubic_psnr + 1.0, \
            f"{where.name}: model {model_psnr:.3f} dB vs bicubic {bicubic_psnr:.3f} dB"


def test_ablation_liveness():
    check_ablation_liveness(np.random.default_rng(7))
