"""One benchmark process: drives ``cohft.cli.main`` the way a user's command would.

Usage: python3 session.py SPEC.json RESULT.json

The spec names the CLI invocations and the mode:

- ``setup``: stop at the start of the first train step or eval slice.  The
  result holds that timestamp, so the caller gets the set-up time.
- ``measure``: run the workload.  Train runs one ``cohft train``: the first
  epoch is warm-up, and the run stops at the epoch boundary nearest to
  ``seconds`` of steady training, by lowering the run's ``steps`` setting as a
  user would.  Eval runs ``cohft eval`` over one slice as warm-up, then over as
  many slices as fill ``seconds``, then over the safe-start check set
  (untimed).

Step and slice boundaries are taken around cohft's own functions: a train
step starts at ``Tape.__enter__`` and ends after ``AdamW.step`` (and the
checkpoint write that closes an epoch); an eval slice starts at
``load_pair``, which train also calls while it sets up.  With ``trace`` true the tracer is
installed after the import and the result holds tracer snapshots at the window
boundaries.  Timestamps are ``time.monotonic``, which the parent shares.
"""
from __future__ import annotations

import time

T_PROCESS = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class SetupDone(Exception):
    """Raised at the first step of a set-up-only session."""


def reference_loop_ms(reps=100):
    """Median time of one iteration of fixed single-threaded numpy work.

    One iteration (about 2 ms) is a 256x256 f32 matmul, elementwise math on
    its result and 400 small array operations, so it reads both BLAS speed and
    per-call overhead.  It does not depend on cohft, so it shows the host's
    speed beside the workload's figures.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    b = rng.standard_normal((256, 256)).astype(np.float32)
    small = [rng.standard_normal((8, 8)) for _ in range(400)]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        c = a @ b
        c = np.tanh(c * 0.01) + np.exp(-np.abs(c) * 0.01)
        acc = float(c.sum())
        for s in small:
            acc += float((s * s).sum())
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1000.0 * times[len(times) // 2]


class Hooks:
    """Boundary timestamps (and tracer snapshots) around cohft's functions."""

    def __init__(self, spec, tracer):
        self.spec = spec
        self.tracer = tracer
        self.warmup = spec["warmup"]      # units before the steady window
        self.cfg = None
        self.state = None
        self.starts = []                  # each step/slice start
        self.step_ends = []               # train: after each optimizer step
        self.stop_after = None            # train: step count the run stops at
        self.steady_end = None
        self.snapshots = {}

    def snap(self, key):
        if self.tracer is not None:
            self.snapshots[key] = self.tracer.snapshot()

    def install(self, patcher, cli):
        from cohft import chft, optim
        from cohft import tensor as T

        cmd_train = cli.cmd_train

        def train_and_keep_cfg(cfg):
            self.cfg = cfg
            return cmd_train(cfg)

        patcher.set(cli, "cmd_train", train_and_keep_cfg)

        init_model = cli.init_model

        def init_and_keep(*args, **kwargs):
            self.state = init_model(*args, **kwargs)
            return self.state

        patcher.set(cli, "init_model", init_and_keep)

        if self.spec["command"] == "train":
            enter = T.Tape.__enter__

            def tape_enter(tape):
                self.unit_start()
                return enter(tape)

            patcher.set(T.Tape, "__enter__", tape_enter)
        else:
            load_pair = cli.load_pair

            def slice_start(*args, **kwargs):
                self.unit_start()
                return load_pair(*args, **kwargs)

            patcher.set(cli, "load_pair", slice_start)

        step = optim.AdamW.step

        def opt_step(opt, grads):
            out = step(opt, grads)
            self.after_step()
            return out

        patcher.set(optim.AdamW, "step", opt_step)

        save = chft.save_container

        def save_container(*args, **kwargs):
            out = save(*args, **kwargs)
            if self.stop_after is not None and self.steady_end is None:
                self.mark_steady_end()
            return out

        patcher.set(chft, "save_container", save_container)

    def unit_start(self):
        if not self.starts:
            self.snap("setup_end")
            if self.spec["mode"] == "setup":
                self.starts.append(time.monotonic())
                raise SetupDone
        if len(self.starts) == self.warmup:
            self.snap("steady_start")
        self.starts.append(time.monotonic())

    def mark_steady_end(self):
        self.steady_end = time.monotonic()
        self.snap("steady_end")

    def after_step(self):
        """Stop training at the epoch boundary nearest to the time budget."""
        self.step_ends.append(time.monotonic())
        done = len(self.step_ends)
        per_epoch = self.warmup
        if self.stop_after is not None or done % per_epoch or done < 2 * per_epoch:
            return
        elapsed = self.step_ends[-1] - self.starts[per_epoch]
        last_epoch = self.step_ends[-1] - self.starts[done - per_epoch]
        if elapsed + 0.5 * last_epoch >= self.spec["seconds"]:
            self.cfg.steps = done
            self.stop_after = done


def write_manifest(data_dir, ids):
    Path(data_dir, "manifest.txt").write_text("".join(f"{sid}\n" for sid in ids))


def measure_train(spec, cli, hooks):
    code = cli.main(spec["argv"])
    if hooks.steady_end is None:  # the run ended early, e.g. on a non-finite loss
        hooks.mark_steady_end()
    steady = len(hooks.step_ends) - hooks.warmup
    return {
        "exit_code": code,
        "attempted": len(hooks.starts),
        "steady_units": steady,
        "steady_samples": steady * spec["batch_size"],
        "steady_s": hooks.steady_end - hooks.starts[hooks.warmup],
    }


def measure_eval(spec, cli, hooks):
    ev = spec["eval"]
    pool = ev["pool"]
    write_manifest(ev["data_dir"], pool[:1])
    codes = [cli.main(ev["argv"])]
    warm_s = time.monotonic() - hooks.starts[0]
    n = max(1, round(spec["seconds"] / warm_s))
    write_manifest(ev["data_dir"], [pool[i % len(pool)] for i in range(n)])
    codes.append(cli.main(ev["argv_steady"]))
    hooks.mark_steady_end()
    return {
        "exit_code": max(codes),
        "attempted": 1 + n,
        "steady_units": n,
        "steady_samples": n,
        "steady_s": hooks.steady_end - hooks.starts[hooks.warmup],
        "check_exit_code": cli.main(ev["argv_check"]),
    }


def run(spec):
    t0 = time.perf_counter()
    import cohft.cli as cli
    result = {"t_process": T_PROCESS, "import_s": time.perf_counter() - t0}

    from tracing import Patcher, Tracer

    tracer = Tracer() if spec.get("trace") else None
    hooks = Hooks(spec, tracer)
    patcher = Patcher()
    try:
        if tracer is not None:
            tracer.install(lambda: hooks.state)
        hooks.install(patcher, cli)
        try:
            if spec["mode"] == "setup":
                argv = spec["argv"] if spec["command"] == "train" else spec["eval"]["argv"]
                result["exit_code"] = cli.main(argv)
            elif spec["command"] == "train":
                result.update(measure_train(spec, cli, hooks))
            else:
                result.update(measure_eval(spec, cli, hooks))
        except SetupDone:
            result["exit_code"] = 0
        result["t_first"] = hooks.starts[0] if hooks.starts else None
        if tracer is not None:
            result["trace"] = hooks.snapshots
    finally:
        patcher.restore()
        if tracer is not None:
            tracer.close()

    if spec["mode"] == "measure":
        result["reference_loop_ms"] = reference_loop_ms()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    result = run(spec)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
