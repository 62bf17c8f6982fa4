"""Train/eval benchmark for cohft, driven through its CLI.

Usage (from the root of a cohft source tree):

    python3 benchmark/run.py --workload train-tiny --seed 1 --seconds 15 --trace 0

Inputs come from ``cohft gen-data`` with the given seed.  Each workload runs
in fresh processes (``session.py``) that call ``cohft.cli.main`` as the
``cohft`` command does.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer breakdown of
a traced session.  The line before it holds run details, among them the speed
of a fixed numpy reference loop timed in the measuring process.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

R = 2
SETUP_SAMPLES = 5          # set-up time is the median over this many processes
LIVE_CHECKPOINT_SEED = 20220330
RUN_DEADLINE_S = 170.0

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "train-tiny": dict(command="train", preset="tiny", side=96, samples=8, batch_size=4,
                       alpha=1.0, lam=0.0, lr=3e-3),
    "train-S": dict(command="train", preset="S", side=60, samples=8, batch_size=4,
                    alpha=0.95, lam=0.5, lr=1e-4),
    "eval-S-240": dict(command="eval", preset="S", side=240, samples=3, check_side=60,
                       alpha=0.95, lam=0.5),
}

END_TO_END = {"samples_per_s": "samples/s", "setup_s": "s", "peak_rss_mb": "MB"}
STEP_SPANS = {
    "tensor.conv2d.fwd_s": "tensor.conv2d.fwd",
    "tensor.conv2d.bwd_s": "tensor.conv2d.bwd",
    "tensor.einsum.fwd_s": "tensor.einsum.fwd",
    "tensor.einsum.bwd_s": "tensor.einsum.bwd",
    "tensor.other.fwd_s": "tensor.other.fwd",
    "tensor.other.bwd_s": "tensor.other.bwd",
    "tensor.backward_s": "tensor.backward",
    "model.forward_s": "model.forward",
    "model.input_gate_s": "model.input_gate",
    "model.rrdb_s": "model.rrdb",
    "model.output_gate_s": "model.output_gate",
    "windows.window_attention_s": "windows.window_attention",
    "attention.basic_attention_s": "attention.basic_attention",
    "crossmod.adain_s": "crossmod.adain",
    "crossmod.inter_modality_attention_s": "crossmod.inter_modality_attention",
    "losses.objective_s": "losses.objective",
    "optim.step_s": "optim.step",
    "resample.bicubic_s": "resample.bicubic",
    "chft.save_s": "chft.save",
}
INCLUSIVE_SPANS = {
    "tensor.backward_incl_s": "tensor.backward",
    "model.forward_incl_s": "model.forward",
    "model.input_gate_incl_s": "model.input_gate",
    "model.rrdb_incl_s": "model.rrdb",
    "model.output_gate_incl_s": "model.output_gate",
    "windows.window_attention_incl_s": "windows.window_attention",
    "attention.basic_attention_incl_s": "attention.basic_attention",
    "crossmod.adain_incl_s": "crossmod.adain",
    "crossmod.inter_modality_attention_incl_s": "crossmod.inter_modality_attention",
    "losses.objective_incl_s": "losses.objective",
}
STEP_CALLS = {
    "tensor.conv2d.calls": "tensor.conv2d.fwd",
    "tensor.einsum.calls": "tensor.einsum.fwd",
    "tensor.other.calls": "tensor.other.fwd",
}
SETUP_SPANS = {
    "setup.model_init_s": "setup.model_init",
    "data.load_s": "data.load",
    "chft.load_s": "chft.load",
}


class BenchError(RuntimeError):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Run:
    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = root / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    # -- processes ---------------------------------------------------------
    def _timeout(self):
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("run deadline exceeded")
        return left

    def _spawn(self, argv, label):
        logf = self.work / f"{label}.log"
        t_spawn = time.monotonic()
        with open(logf, "wb") as out:
            try:
                proc = subprocess.run(argv, cwd=self.root, env=self.env, stdout=out,
                                      stderr=subprocess.STDOUT, timeout=self._timeout())
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{label} timed out") from exc
        if proc.returncode != 0:
            sys.stderr.write(logf.read_text(errors="replace")[-4000:])
            raise BenchError(f"{label} exited with {proc.returncode}")
        return t_spawn

    def session(self, spec, label):
        spec_path = self.work / f"{label}.spec.json"
        result_path = self.work / f"{label}.result.json"
        spec = dict(spec, seconds=self.seconds)
        spec_path.write_text(json.dumps(spec))
        t_spawn = self._spawn([sys.executable, str(BENCH_DIR / "session.py"),
                               str(spec_path), str(result_path)], label)
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["t_first"] - t_spawn
        return result

    # -- inputs ------------------------------------------------------------
    def common_sets(self, data_dir):
        w = self.w
        return ["--set", f"data_dir={data_dir}", "--set", f"preset={w['preset']}",
                "--set", f"r={R}", "--set", "precision=f32",
                "--set", f"alpha={w['alpha']}", "--set", f"lam={w['lam']}",
                "--seed", str(self.seed)]

    def gen_data(self, data_dir, side, samples):
        """``cohft gen-data``, run in this process: inputs are not measured."""
        from cohft.cli import main as cohft_main

        code = cohft_main(["--set", f"data_dir={data_dir}", "--set", f"samples={samples}",
                           "--set", f"side={side}", "--set", f"r={R}", "--seed", str(self.seed),
                           "--out", str(self.work / "out-gen"), "gen-data"])
        if code != 0:
            raise BenchError(f"cohft gen-data exited with {code}")

    def prepare(self):
        """Generate inputs; return the session spec (mode filled in later)."""
        w = self.w
        data = self.work / "data"
        self.gen_data(data, w["side"], w["samples"])
        if w["command"] == "train":
            warmup = -(-w["samples"] // w["batch_size"])  # one epoch
            argv = self.common_sets(data) + ["--set", f"batch_size={w['batch_size']}",
                                             "--set", f"lr={w['lr']}"]
            return {"command": "train", "warmup": warmup, "batch_size": w["batch_size"],
                    "argv_base": argv}
        check = self.work / "data-check"
        self.gen_data(check, w["check_side"], 1)
        live, safe = self.work / "live.chft", self.work / "safe.chft"
        make_checkpoints(w["preset"], self.seed, live, safe)
        ids = (data / "manifest.txt").read_text().split()
        return {"command": "eval", "warmup": 1, "pool": ids, "data": str(data),
                "check": str(check), "live": str(live), "safe": str(safe)}

    def spec_for(self, base, mode, label, trace=False):
        out = str(self.work / f"out-{label}")
        spec = {"mode": mode, "trace": trace, "command": base["command"],
                "warmup": base["warmup"], "out": out}
        if base["command"] == "train":
            spec["argv"] = base["argv_base"] + ["--out", out, "train"]
            spec["batch_size"] = base["batch_size"]
        else:
            sets = self.common_sets(base["data"])
            spec["eval"] = {
                "data_dir": base["data"], "pool": base["pool"],
                "argv": sets + ["--out", out + "-warm", "eval", base["live"]],
                "argv_steady": sets + ["--out", out, "eval", base["live"]],
                "argv_check": (self.common_sets(base["check"])
                               + ["--out", out + "-check", "eval", base["safe"]]),
            }
        return spec

    # -- checks ------------------------------------------------------------
    def check(self, base, spec, result):
        import numpy as np
        import verify
        from cohft.data import load_pair, read_manifest
        from cohft.model import init_model, preset

        w = self.w
        failures = []
        if result["exit_code"] != 0:
            failures.append(f"cohft {w['command']} exited with {result['exit_code']}")
        mc = preset(w["preset"], r=R)
        if w["command"] == "train":
            data = self.work / "data"
            ids = read_manifest(data)
            first = [load_pair(data, sid) for sid in verify.first_batch_ids(ids, self.seed,
                                                                            w["batch_size"])]
            expected, scale = verify.safe_start_first_loss(first, R, w["alpha"], w["lam"])
            rows = verify.read_rows(Path(spec["out"]) / "train_log.csv")
            failures += verify.check_train_log(rows, expected, scale)
            if len(rows) != result["attempted"]:
                failures.append(f"train_log.csv has {len(rows)} steps, "
                                f"{result['attempted']} were run")
            state = init_model(mc, seed=self.seed, dtype=np.float64, safe_start=False)
            fd_pair = load_pair(data, ids[0])
        else:
            if result.get("check_exit_code") != 0:
                failures.append(f"safe-start cohft eval exited with {result.get('check_exit_code')}")
            data, check = Path(base["data"]), Path(base["check"])
            pairs = {sid: load_pair(data, sid) for sid in base["pool"]}
            for out in (spec["out"] + "-warm", spec["out"]):
                rows = verify.read_rows(Path(out) / "metrics.csv")
                failures += verify.check_eval_rows(rows, pairs, R, live=True)
            check_pairs = {sid: load_pair(check, sid) for sid in read_manifest(check)}
            rows = verify.read_rows(Path(spec["out"] + "-check") / "metrics.csv")
            failures += verify.check_eval_rows(rows, check_pairs, R, live=False)
            state = load_live_state(mc, Path(base["live"]))
            fd_pair = next(iter(check_pairs.values()))
        failures += verify.gradient_check(state, mc, fd_pair, w["alpha"], w["lam"], self.seed)
        return failures

    # -- the run -----------------------------------------------------------
    def execute(self, trace):
        self.work.mkdir(parents=True, exist_ok=True)
        base = self.prepare()
        setups = []
        if not trace:
            for i in range(SETUP_SAMPLES - 1):
                r = self.session(self.spec_for(base, "setup", f"setup{i}"), f"setup{i}")
                setups.append(r["setup_s"])
        spec = self.spec_for(base, "measure", "measure")
        measured = self.session(spec, "measure")
        setups.append(measured["setup_s"])
        traced = None
        if trace:
            traced = self.session(self.spec_for(base, "measure", "traced", trace=True), "traced")
        try:
            failures = self.check(base, spec, measured)
        except (OSError, LookupError, ValueError) as exc:  # e.g. the CLI wrote no report
            failures = [f"checks could not run: {exc!r}"]
        return measured, setups, traced, failures


def make_checkpoints(preset_name, seed, live_path, safe_path):
    """A fixed checkpoint with every weight non-zero, and a safe-start one."""
    import numpy as np
    from cohft import chft
    from cohft.model import init_model, preset, state_arrays

    mc = preset(preset_name, r=R)
    live = init_model(mc, seed=LIVE_CHECKPOINT_SEED, dtype=np.float32, safe_start=False)
    rng = np.random.default_rng(LIVE_CHECKPOINT_SEED)
    arrays = []
    for name, arr in state_arrays(live):
        arr = arr.copy()
        zero = arr == 0
        arr[zero] = rng.uniform(0.01, 0.05, int(zero.sum())) * rng.choice([-1.0, 1.0], int(zero.sum()))
        if not np.all(arr != 0):
            raise BenchError(f"live checkpoint entry {name} still has zeros")
        arrays.append((name, arr))
    chft.save_container(live_path, arrays)
    safe = init_model(mc, seed=seed, dtype=np.float32, safe_start=True)
    chft.save_container(safe_path, state_arrays(safe))


def load_live_state(mc, path):
    import numpy as np
    from cohft import chft
    from cohft.model import init_model, load_state_arrays

    state = init_model(mc, seed=0, dtype=np.float64)
    load_state_arrays(state, chft.load_container(path))
    return state


def end_to_end(measured, setups):
    return {
        "samples_per_s": measured["steady_samples"] / measured["steady_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(traced, untraced_samples_per_s):
    """Per-step (per-slice) times and counts from a traced session."""
    from tracing import window

    snaps = traced["trace"]
    steady = window(snaps["steady_start"], snaps["steady_end"])
    setup = snaps["setup_end"]
    n = traced["steady_units"]
    wall = (traced["steady_s"] - steady["counters"].get("trace.tape_walk_s", 0.0)) / n
    out = {}
    for metric, span in STEP_SPANS.items():
        out[metric] = steady["self_s"].get(span, 0.0) / n
    attributed = sum(out.values())
    for metric, span in INCLUSIVE_SPANS.items():
        out[metric] = steady["incl_s"].get(span, 0.0) / n
    for metric, span in STEP_CALLS.items():
        out[metric] = steady["calls"].get(span, 0) / n
    out["tensor.tape_nodes"] = steady["counters"].get("tensor.tape_nodes", 0.0) / n
    out["tensor.tape_held_mb"] = steady["counters"].get("tensor.tape_held_bytes", 0.0) / n / 2 ** 20
    out["unattributed_s"] = wall - attributed
    out["trace.step_wall_s"] = wall
    traced_sps = traced["steady_samples"] / traced["steady_s"]
    out["trace.overhead_samples_per_s"] = traced_sps - untraced_samples_per_s
    out["setup.import_s"] = traced["import_s"]
    for metric, span in SETUP_SPANS.items():
        out[metric] = setup["self_s"].get(span, 0.0)
    return out


PER_LAYER_UNITS = {
    **{m: "s" for m in STEP_SPANS}, **{m: "s" for m in INCLUSIVE_SPANS},
    **{m: "count" for m in STEP_CALLS},
    "tensor.tape_nodes": "count", "tensor.tape_held_mb": "MB", "unattributed_s": "s",
    "trace.step_wall_s": "s", "trace.overhead_samples_per_s": "samples/s",
    "setup.import_s": "s", **{m: "s" for m in SETUP_SPANS},
}


def format_report(correct, attempted, failed, values, units):
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def source_root(cwd):
    """The cohft source tree the benchmark runs, or None if cwd is not one."""
    if (cwd / "src" / "cohft" / "cli.py").is_file():
        return cwd
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one BLAS/OpenMP thread in this process and every process it starts;
    # set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"

    root = source_root(Path.cwd())
    if root is None:
        log("benchmark: run from the root of a cohft source tree (src/cohft is missing here)")
        return 2
    sys.path.insert(0, str(root / "src"))
    import cohft
    if Path(cohft.__file__).resolve().parent != (root / "src" / "cohft").resolve():
        log(f"benchmark: imported cohft from {cohft.__file__}, not from {root / 'src'}")
        return 2
    run = Run(root, args.workload, args.seed, args.seconds)
    try:
        measured, setups, traced, failures = run.execute(bool(args.trace))
    except BenchError as exc:
        log(f"benchmark: {exc}")
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    e2e = end_to_end(measured, setups)
    failed = 0 if measured["exit_code"] == 0 else 1
    for f in failures:
        log(f"CHECK FAILED: {f}")
    detail = {"workload": args.workload, "seed": args.seed,
              "reference_loop_ms": measured["reference_loop_ms"],
              "steady_units": measured["steady_units"], "steady_s": measured["steady_s"],
              "setup_samples_s": setups, **e2e, "check_failures": failures}
    if args.trace:
        values = per_layer(traced, e2e["samples_per_s"])
        units = PER_LAYER_UNITS
        detail["traced_reference_loop_ms"] = traced["reference_loop_ms"]
    else:
        values, units = e2e, END_TO_END
    log(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(format_report(not failures, measured["attempted"], failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
