"""Tests of the benchmark itself: every correctness check fails on a wrong output,
the tracer puts cohft back as it found it, and the report line parses.

Run with: PYTHONPATH=src python3 -m pytest -q benchmark
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if not any(Path(p).resolve() == ROOT / "src" for p in sys.path if p):
    sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from cohft import cli, resample  # noqa: E402
from cohft import tensor as T  # noqa: E402
from cohft.data import PhantomSpec, load_pair, make_pair, read_manifest  # noqa: E402
from cohft.model import init_model, preset  # noqa: E402

SEED = 3


def _sets(data, preset_name, alpha, lam):
    return ["--set", f"data_dir={data}", "--set", f"preset={preset_name}", "--set", "r=2",
            "--set", f"alpha={alpha}", "--set", f"lam={lam}", "--seed", str(SEED)]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A real two-step tiny training run on 24x24 phantoms."""
    tmp = tmp_path_factory.mktemp("train")
    data, out = tmp / "data", tmp / "out"
    assert cli.main(["--set", f"data_dir={data}", "--set", "samples=4", "--set", "side=24",
                     "--seed", str(SEED), "--out", str(out), "gen-data"]) == 0
    assert cli.main(_sets(data, "tiny", 0.95, 0.5) + ["--set", "batch_size=2", "--set", "steps=2",
                                                      "--out", str(out), "train"]) == 0
    ids = read_manifest(data)
    first = [load_pair(data, sid) for sid in verify.first_batch_ids(ids, SEED, 2)]
    expected, scale = verify.safe_start_first_loss(first, 2, 0.95, 0.5)
    return verify.read_rows(out / "train_log.csv"), expected, scale


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """cohft eval of one 60x60 slice with a live and a safe-start S checkpoint."""
    tmp = tmp_path_factory.mktemp("eval")
    data = tmp / "data"
    assert cli.main(["--set", f"data_dir={data}", "--set", "samples=1", "--set", "side=60",
                     "--seed", str(SEED), "--out", str(tmp / "gen"), "gen-data"]) == 0
    live, safe = tmp / "live.chft", tmp / "safe.chft"
    run.make_checkpoints("S", SEED, live, safe)
    rows = {}
    for name, ckpt in (("live", live), ("safe", safe)):
        out = tmp / name
        assert cli.main(_sets(data, "S", 0.95, 0.5) + ["--out", str(out), "eval", str(ckpt)]) == 0
        rows[name] = verify.read_rows(out / "metrics.csv")
    pairs = {sid: load_pair(data, sid) for sid in read_manifest(data)}
    return rows, pairs


def test_oracle_bicubic_matches_cohft_at_odd_extents():
    lr = np.random.default_rng(0).uniform(0.0, 1.0, (7, 11))
    np.testing.assert_allclose(oracle.bicubic_upsample(lr, 2),
                               resample.bicubic_upsample(lr, 2), rtol=0, atol=1e-12)


def test_train_log_check_passes_on_real_run(trained):
    rows, expected, scale = trained
    assert verify.check_train_log(rows, expected, scale) == []


def test_train_log_check_fails_on_corrupted_first_loss(trained):
    rows, expected, scale = trained
    bad = [dict(r) for r in rows]
    bad[0]["total"] = f"{float(bad[0]['total']) * 1.001:.8f}"
    assert any("first-step loss" in f for f in verify.check_train_log(bad, expected, scale))


def test_train_log_check_fails_on_non_finite_loss(trained):
    rows, expected, scale = trained
    bad = [dict(r) for r in rows]
    bad[-1]["loss_c"] = "nan"
    assert any("not finite" in f for f in verify.check_train_log(bad, expected, scale))


def _fd_inputs(preset_name, side):
    mc = preset(preset_name, r=2)
    state = init_model(mc, seed=SEED, dtype=np.float64, safe_start=False)
    return state, mc, make_pair(PhantomSpec(seed=SEED, side=side), 2)


def test_gradient_check_passes():
    state, mc, pair = _fd_inputs("tiny", 24)
    assert verify.gradient_check(state, mc, pair, 0.95, 0.5, SEED) == []


def test_gradient_check_fails_on_wrong_backward(monkeypatch):
    state, mc, pair = _fd_inputs("tiny", 24)
    backward = T.backward

    def off_by_one_percent(loss, tape):
        return {t: 1.01 * g for t, g in backward(loss, tape).items()}

    monkeypatch.setattr(T, "backward", off_by_one_percent)
    assert len(verify.gradient_check(state, mc, pair, 0.95, 0.5, SEED)) == len(verify.FD_PARAMETERS)


def test_eval_checks_pass_on_real_outputs(evaluated):
    rows, pairs = evaluated
    assert verify.check_eval_rows(rows["live"], pairs, 2, live=True) == []
    assert verify.check_eval_rows(rows["safe"], pairs, 2, live=False) == []


def test_eval_check_fails_when_attention_path_is_identity(evaluated):
    rows, pairs = evaluated
    assert any("not live" in f for f in verify.check_eval_rows(rows["safe"], pairs, 2, live=True))


def test_eval_check_fails_on_perturbed_safe_start_checkpoint(evaluated):
    rows, pairs = evaluated
    # the live checkpoint is a safe-start one with every zero weight perturbed
    assert any("safe-start model PSNR" in f
               for f in verify.check_eval_rows(rows["live"], pairs, 2, live=False))


def test_eval_check_fails_on_wrong_bicubic_column(evaluated):
    rows, pairs = evaluated
    bad = [dict(r, psnr_bicubic=f"{float(r['psnr_bicubic']) + 0.001:.6f}") for r in rows["live"]]
    assert any("psnr_bicubic" in f for f in verify.check_eval_rows(bad, pairs, 2, live=True))


def test_eval_check_fails_on_non_finite_model_value(evaluated):
    rows, pairs = evaluated
    bad = [dict(r, ssim="nan") for r in rows["live"]]
    assert any("not finite" in f for f in verify.check_eval_rows(bad, pairs, 2, live=True))


def test_tracer_attributes_primitives_and_restores_cohft():
    import cohft.model as model

    originals = {name: getattr(T, name) for name in tracing.primitive_names(T)}
    forward, backward = model.forward, T.backward
    state, mc, pair = _fd_inputs("tiny", 24)
    tracer = tracing.Tracer()
    tracer.install(lambda: state)
    try:
        with T.Tape() as tape:
            i_out, _ = model.forward(pair.t2_lr, pair.t2_lr_grad, pair.t1_hr_grad, state, mc)
            loss = T.tmean(T.square(i_out))
        T.backward(loss, tape)
    finally:
        tracer.close()
    # r_out is not in the loss, so its head conv gets no backward call
    assert tracer.calls["tensor.conv2d.fwd"] == tracer.calls["tensor.conv2d.bwd"] + 1
    assert tracer.calls["tensor.einsum.fwd"] > 0 and tracer.calls["model.forward"] == 1
    assert tracer.counters["tensor.tape_nodes"] == len(tape.nodes)
    assert tracer.counters["tensor.tape_held_bytes"] > 0
    assert {name: getattr(T, name) for name in originals} == originals
    assert model.forward is forward and T.backward is backward and cli.forward is forward


def test_report_line_parses_with_exact_keys():
    line = run.format_report(True, 6, 0, {"samples_per_s": 1.25, "setup_s": 0.7,
                                          "peak_rss_mb": 1400.5}, run.END_TO_END)
    report = json.loads(line)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["attempted"] == 6 and report["failed"] == 0 and report["correct"] is True
    for name, metric in report["metrics"].items():
        assert set(metric) == {"value", "unit"} and math.isfinite(metric["value"])
        assert metric["unit"] == run.END_TO_END[name]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_outside_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "train-tiny",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
