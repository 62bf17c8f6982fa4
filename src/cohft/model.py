"""Two-stream super-resolution network.

Main stream: stages of RRDBs on the LR intensity features.  Prior stream:
cascaded blocks of short-window attention, long-window attention and
inter-modality attention on the LR gradient features, guided by the HR
guidance-gradient features.  An input gate lifts the three images to feature
maps; the output gate jointly emits the HR intensity (on top of a bicubic
global skip) and the HR gradient map.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionWeights, _uniform, _zeros, init_attention_weights
from .chft import FormatError, require_finite
from .config import ConfigError
from .crossmod import InterModalityWeights, init_inter_modality_weights, inter_modality_attention
from .resample import bicubic_upsample
from .tensor import ShapeError, Tensor
from .windows import MLPWeights, init_mlp_weights, window_attention


@dataclass
class ModelConfig:
    d: int
    stages: int
    rrdbs_per_stage: int
    rdbs_per_rrdb: int
    convs_per_rdb: int
    g: int
    p_inter: int
    M: int
    r: int
    use_short_wa: bool = True
    use_long_wa: bool = True
    use_inter_attn: bool = True
    use_inter_head: bool = True
    use_adain: bool = True

    def preflight(self, lr, lr_grad, guide):
        """Reject inputs the model cannot take, before any compute; return the output's shape.

        The arguments are shapes: the LR input [h, w, 1], its gradient map
        [h, w, 1] and the guidance gradient map [r h, r w, 1].  The output
        is [r h, r w, 1].
        """
        for name, shape, form in (("LR input", lr, "h, w"), ("LR gradient", lr_grad, "h, w"),
                                  ("guidance", guide, "r h, r w")):
            if len(shape) != 3 or shape[2] != 1:
                raise ShapeError(f"{name} must be [{form}, 1], got shape {tuple(shape)}")
        h, w = lr[0], lr[1]
        problems = [f"extents {h}x{w} not divisible by {name}={n}"
                    for name, n in (("window side g", self.g), ("p_inter", self.p_inter))
                    if h % n or w % n]
        if problems:
            raise ShapeError("; ".join(problems))
        if tuple(lr_grad[:2]) != (h, w):
            raise ShapeError(f"LR gradient extents {lr_grad[0]}x{lr_grad[1]} "
                             f"do not equal the LR input's {h}x{w}")
        if tuple(guide[:2]) != (self.r * h, self.r * w):
            raise ShapeError(f"guidance extents {guide[0]}x{guide[1]} "
                             f"do not equal r={self.r} times {h}x{w}")
        return self.r * h, self.r * w, 1


_PRESETS = {
    "L": dict(d=32, stages=4, rrdbs_per_stage=5, rdbs_per_rrdb=3, convs_per_rdb=5,
              g=6, p_inter=5, M=4),
    "M": dict(d=16, stages=3, rrdbs_per_stage=5, rdbs_per_rrdb=3, convs_per_rdb=3,
              g=6, p_inter=5, M=4),
    "S": dict(d=16, stages=2, rrdbs_per_stage=5, rdbs_per_rrdb=2, convs_per_rdb=3,
              g=6, p_inter=5, M=4),
    "tiny": dict(d=4, stages=1, rrdbs_per_stage=1, rdbs_per_rrdb=1, convs_per_rdb=2,
                 g=3, p_inter=2, M=2),
}


def preset(name, r=2, **overrides):
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    kw = dict(_PRESETS[name])
    kw.update(overrides)
    return ModelConfig(r=r, **kw)


# ---------------------------------------------------------------------------
# weights


@dataclass
class Conv:
    w: Tensor
    b: Tensor


def init_conv(k, c_in, c_out, rng, dtype, zero=False):
    return Conv(w=_uniform(rng, (k, k, c_in, c_out), k * k * c_in, dtype, zero=zero),
                b=_zeros(c_out, dtype))


def conv(xs, c: Conv):
    """Convolve one feature map, or the channel-wise join of a list of them."""
    return T.conv2d(xs, c.w, c.b)


@dataclass
class RDBWeights:
    convs: list[Conv]


@dataclass
class RRDBWeights:
    rdbs: list[RDBWeights]


def init_rrdb_weights(cfg: ModelConfig, rng, dtype, safe_start=True):
    d, gc = cfg.d, cfg.d // 2
    rdbs = []
    for _ in range(cfg.rdbs_per_rrdb):
        # conv i reads the block input and the i growth maps before it
        convs = [init_conv(3, d + i * gc, gc, rng, dtype) for i in range(cfg.convs_per_rdb - 1)]
        last_in = d + (cfg.convs_per_rdb - 1) * gc
        convs.append(init_conv(3, last_in, d, rng, dtype, zero=safe_start))
        rdbs.append(RDBWeights(convs=convs))
    return RRDBWeights(rdbs=rdbs)


@dataclass
class GateWeights:
    lift: Conv           # 3x3, 1 -> d
    rrdb: RRDBWeights


@dataclass
class CohfTBlockWeights:
    short_attn: AttentionWeights
    short_mlp: MLPWeights
    long_attn: AttentionWeights
    long_mlp: MLPWeights
    inter: InterModalityWeights


@dataclass
class StageWeights:
    rrdbs: list[RRDBWeights]
    struct_conv: Conv    # 3x3, d -> d
    fuse_conv: Conv      # 3x3, 2d -> d
    select_conv: Conv    # 3x3, d -> 1
    block: CohfTBlockWeights


@dataclass
class ModelState:
    gate_main: GateWeights
    gate_struct: GateWeights
    gate_context: GateWeights
    stages: list[StageWeights]
    out_fuse: Conv       # 3x3, 2d -> d r^2
    head_intensity: Conv  # 3x3, d -> 1, zero at safe start
    head_gradient: Conv   # 3x3, d -> 1, zero at safe start


def init_model(cfg: ModelConfig, seed=0, dtype=np.float64, safe_start=True):
    rng = np.random.default_rng(seed)
    d = cfg.d

    def gate():
        return GateWeights(lift=init_conv(3, 1, d, rng, dtype),
                           rrdb=init_rrdb_weights(cfg, rng, dtype, safe_start))

    def block():
        return CohfTBlockWeights(
            short_attn=init_attention_weights(d, cfg.M, rng, dtype, safe_start),
            short_mlp=init_mlp_weights(d, rng, dtype, safe_start),
            long_attn=init_attention_weights(d, cfg.M, rng, dtype, safe_start),
            long_mlp=init_mlp_weights(d, rng, dtype, safe_start),
            inter=init_inter_modality_weights(d, cfg.M, cfg.r, cfg.p_inter, rng, dtype, safe_start),
        )

    stages = [StageWeights(
        rrdbs=[init_rrdb_weights(cfg, rng, dtype, safe_start) for _ in range(cfg.rrdbs_per_stage)],
        struct_conv=init_conv(3, d, d, rng, dtype),
        fuse_conv=init_conv(3, 2 * d, d, rng, dtype),
        select_conv=init_conv(3, d, 1, rng, dtype),
        block=block(),
    ) for _ in range(cfg.stages)]
    return ModelState(
        gate_main=gate(), gate_struct=gate(), gate_context=gate(),
        stages=stages,
        out_fuse=init_conv(3, 2 * d, d * cfg.r * cfg.r, rng, dtype),
        head_intensity=init_conv(3, d, 1, rng, dtype, zero=safe_start),
        head_gradient=init_conv(3, d, 1, rng, dtype, zero=safe_start),
    )


def named_parameters(obj, prefix=""):
    """Yield (hierarchical name, Tensor) in definition order."""
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from named_parameters(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from named_parameters(item, f"{prefix}.{i}")


def count_parameters(state):
    return sum(t.size for _, t in named_parameters(state))


def state_arrays(state):
    return [(name, t.data) for name, t in named_parameters(state)]


def load_state_arrays(state, arrays: dict):
    """Set each parameter to its entry; an entry of the parameter's dtype is
    taken as is, not copied, so the state owns it from then on.  NaN or inf
    in an entry is a FormatError."""
    for name, t in named_parameters(state):
        if name not in arrays:
            raise FormatError(f"checkpoint is missing parameter {name!r}")
        arr = arrays[name]
        if arr.shape != t.data.shape:
            raise ShapeError(f"parameter {name!r}: checkpoint shape {arr.shape} != model {t.data.shape}")
        t.data = require_finite(arr, f"checkpoint parameter {name!r}").astype(t.data.dtype, copy=False)


# ---------------------------------------------------------------------------
# forward graph


def rdb_forward(x, weights: RDBWeights):
    feats = [x]
    for c in weights.convs[:-1]:
        feats.append(T.leaky_relu(conv(feats, c)))
    return x + 0.2 * conv(feats, weights.convs[-1])


def rrdb(x, weights: RRDBWeights):
    """Residual-in-residual dense block; identity when every RDB's last conv is zero."""
    y = x
    for w in weights.rdbs:
        y = rdb_forward(y, w)
    return x + 0.2 * (y - x)


def input_gate(i_in, r_s, r_c, state: ModelState, cfg: ModelConfig):
    """Lift the three input images to d-channel features (context keeps HR extents)."""
    cfg.preflight(i_in.shape, r_s.shape, r_c.shape)
    f0 = rrdb(conv(i_in, state.gate_main.lift), state.gate_main.rrdb)
    fs0 = rrdb(conv(r_s, state.gate_struct.lift), state.gate_struct.rrdb)
    fc0 = rrdb(conv(r_c, state.gate_context.lift), state.gate_context.rrdb)
    return f0, fs0, fc0


def cohf_t_block(fs_i, fc0, block: CohfTBlockWeights, cfg: ModelConfig):
    """Short-window, long-window, then inter-modality attention on the prior features.

    The main-stream features reach the block only through fs_i.  Disabled
    switches replace the corresponding stage with the identity.
    """
    y = fs_i
    if cfg.use_short_wa:
        y = window_attention(y, cfg.g, "short", block.short_attn, block.short_mlp,
                             use_inter_head=cfg.use_inter_head)
    if cfg.use_long_wa:
        y = window_attention(y, cfg.g, "long", block.long_attn, block.long_mlp,
                             use_inter_head=cfg.use_inter_head)
    if cfg.use_inter_attn:
        y = inter_modality_attention(y, fc0, block.inter, cfg.p_inter,
                                     use_inter_head=cfg.use_inter_head,
                                     use_adain=cfg.use_adain)
    return y


def stage_forward(f_prev, p_prev, fc0, stage: StageWeights, cfg: ModelConfig):
    e_i = f_prev
    for w in stage.rrdbs:
        e_i = rrdb(e_i, w)
    fbar_s = conv(e_i, stage.struct_conv)
    fs_i = conv([p_prev, fbar_s], stage.fuse_conv)
    p_i = cohf_t_block(fs_i, fc0, stage.block, cfg)
    t_i = T.sigmoid(conv(fbar_s, stage.select_conv))
    f_i = e_i + t_i * p_i
    return f_i, p_i


def output_gate(f_last, p_last, state: ModelState, r, i_bicubic):
    """Joint HR intensity / gradient synthesis; intensity rides a bicubic global skip."""
    y = conv([f_last, p_last], state.out_fuse)
    y = T.pixel_shuffle(y, r)
    y = T.gelu(y)
    i_out = conv(y, state.head_intensity) + i_bicubic
    r_out = conv(y, state.head_gradient)
    return i_out, r_out


def forward(i_in, r_s, r_c, state: ModelState, cfg: ModelConfig):
    """Full pipeline: input gate, all stages, output gate.

    Inputs are [h,w,1] / [rh,rw,1] arrays or Tensors; returns (I_out, R_out)
    at HR extents.
    """
    dtype = state.head_intensity.b.data.dtype
    i_in, r_s, r_c = (x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))
                      for x in (i_in, r_s, r_c))
    f_i, p_i, fc0 = input_gate(i_in, r_s, r_c, state, cfg)
    for stage in state.stages:
        f_i, p_i = stage_forward(f_i, p_i, fc0, stage, cfg)
    up = bicubic_upsample(i_in.data, cfg.r).astype(dtype)
    return output_gate(f_i, p_i, state, cfg.r, Tensor(up))
