"""Span tracer that times cohft's public functions from outside the package.

Every wrapped function becomes a span.  A span's self time is its duration
minus the time of the spans it encloses, so the self times of all spans plus
the untraced rest add up to the wall time.  Tape primitives (the functions of
``cohft.tensor`` that record a node) get a forward span, and the backward
callable of the node they record is wrapped in a matching backward span, so
backward time is attributed per primitive as well.

All patches are undone by ``Tracer.close``.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# Module-level spans: (module, function name, span name).  Functions are
# replaced wherever a cohft module holds them, so ``from .x import f`` bindings
# are traced too.
SPANS = (
    ("cohft.model", "forward", "model.forward"),
    ("cohft.model", "input_gate", "model.input_gate"),
    ("cohft.model", "rrdb", "model.rrdb"),
    ("cohft.model", "output_gate", "model.output_gate"),
    ("cohft.model", "init_model", "setup.model_init"),
    ("cohft.windows", "window_attention", "windows.window_attention"),
    ("cohft.attention", "basic_attention", "attention.basic_attention"),
    ("cohft.crossmod", "adain", "crossmod.adain"),
    ("cohft.crossmod", "inter_modality_attention", "crossmod.inter_modality_attention"),
    ("cohft.losses", "loss_in", "losses.objective"),
    ("cohft.losses", "loss_c", "losses.objective"),
    ("cohft.losses", "gradient_map", "losses.objective"),
    ("cohft.losses", "ssim", "losses.objective"),
    ("cohft.losses", "psnr", "losses.objective"),
    ("cohft.resample", "bicubic_upsample", "resample.bicubic"),
    ("cohft.chft", "save_container", "chft.save"),
    ("cohft.chft", "load_container", "chft.load"),
    ("cohft.data", "load_pair", "data.load"),
    ("cohft.data", "read_manifest", "data.load"),
)
# Methods: (module, class, method, span name).
METHOD_SPANS = (
    ("cohft.optim", "AdamW", "step", "optim.step"),
)
NAMED_PRIMITIVES = ("conv2d", "einsum")


def primitive_names(tensor_module):
    """Functions of cohft.tensor that record a tape node themselves."""
    names = []
    for name, obj in vars(tensor_module).items():
        code = getattr(obj, "__code__", None)
        if code is not None and getattr(obj, "__module__", None) == tensor_module.__name__ \
                and "_record" in code.co_names and not name.startswith("_"):
            names.append(name)
    return sorted(names)


class Patcher:
    """Replace attributes and remember how to put them back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement):
        """Rebind every cohft module attribute that is ``original``."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cohft" or mod_name.startswith("cohft.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    hits += 1
        if not hits:
            raise LookupError(f"{original!r} is bound in no cohft module")

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def array_owner(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_held_bytes(tape, exclude_owner_ids=()):
    """Bytes of distinct array buffers a tape keeps alive.

    Walks every node's output and everything its backward closure captures.
    Buffers whose owner id is in ``exclude_owner_ids`` (the parameters, which
    exist before the forward) are not counted.
    """
    from cohft.tensor import Tensor

    seen_objs = set()
    owners = {}
    stack = []
    for node in tape.nodes:
        stack.append(node.out)
        stack.append(node.backward_fn)
    while stack:
        obj = stack.pop()
        if id(obj) in seen_objs:
            continue
        seen_objs.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = array_owner(obj)
            if id(owner) not in exclude_owner_ids:
                owners[id(owner)] = owner.nbytes
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return sum(owners.values())


class Tracer:
    """Accumulates self time, inclusive time and call counts per span name.

    Inclusive time counts only the outermost of nested spans of one name.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack = []
        self._patcher = Patcher()

    # -- spans -----------------------------------------------------------
    def wrap(self, name, fn):
        clock, stack, depth = self.clock, self._stack, self._depth
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] -= 1
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if not depth[name]:
                    incl_s[name] += dur
                if stack:
                    stack[-1][0] += dur

        traced.__wrapped__ = fn
        return traced

    def bookkeeping(self, name, fn, *args):
        """Run tracer-side work and charge it to ``name`` outside all spans."""
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            dur = self.clock() - t0
            self.counters[name] += dur
            if self._stack:
                self._stack[-1][0] += dur

    # -- installation ----------------------------------------------------
    def install(self, state_holder):
        """Wrap the cohft functions named in SPANS, METHOD_SPANS and every primitive.

        ``state_holder`` is a callable returning the model state in use (or
        None); its parameters are left out of ``tape_held_bytes``.
        """
        import importlib

        tensor = importlib.import_module("cohft.tensor")
        for mod_name, fn_name, span in SPANS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            self._patcher.replace_everywhere(original, self.wrap(span, original))
        for mod_name, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patcher.set(cls, meth, self.wrap(span, getattr(cls, meth)))
        for name in primitive_names(tensor):
            self._patcher.set(tensor, name, self._wrap_primitive(tensor, name))
        self._patcher.set(tensor, "backward", self._wrap_backward(tensor, state_holder))

    def _wrap_primitive(self, tensor, name):
        group = name if name in NAMED_PRIMITIVES else "other"
        fwd = self.wrap(f"tensor.{group}.fwd", getattr(tensor, name))
        bwd_name = f"tensor.{group}.bwd"
        tape_stack = tensor._TAPE_STACK

        def primitive(*args, **kwargs):
            out = fwd(*args, **kwargs)
            if tape_stack:
                nodes = tape_stack[-1].nodes
                if nodes and nodes[-1].out is out:
                    nodes[-1].backward_fn = self.wrap(bwd_name, nodes[-1].backward_fn)
            return out

        return primitive

    def _wrap_backward(self, tensor, state_holder):
        backward = self.wrap("tensor.backward", tensor.backward)

        def measure(tape):
            exclude = set()
            state = state_holder()
            if state is not None:
                from cohft.model import named_parameters
                exclude = {id(array_owner(t.data)) for _, t in named_parameters(state)}
            self.counters["tensor.tape_nodes"] += len(tape.nodes)
            self.counters["tensor.tape_held_bytes"] += tape_held_bytes(tape, exclude)

        def traced_backward(loss, tape):
            self.bookkeeping("trace.tape_walk_s", measure, tape)
            return backward(loss, tape)

        return traced_backward

    def close(self):
        self._patcher.restore()

    # -- windows ---------------------------------------------------------
    def snapshot(self):
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls), "counters": dict(self.counters)}


def window(before, after):
    """Per-key difference of two snapshots."""
    out = {}
    for kind in ("self_s", "incl_s", "calls", "counters"):
        a, b = before[kind], after[kind]
        out[kind] = {k: b[k] - a.get(k, 0) for k in b if b[k] - a.get(k, 0)}
    return out
