import numpy as np
import pytest

from cohft import checks, chft
from cohft.checks import (check_datagen_preflight, check_forward_determinism, check_network_gradients,
                          check_parameter_count, check_parameter_liveness,
                          check_safe_start_equals_bicubic, tiny_inputs)
from cohft.model import (ModelConfig, count_parameters, forward, init_model,
                         init_rrdb_weights, load_state_arrays, named_parameters,
                         preset, rrdb, state_arrays)
from cohft.optim import AdamW
from cohft.tensor import ShapeError, Tensor

TINY_R2_PARAMS = 5_344


def test_preset_table():
    cfg = preset("L", r=4)
    assert (cfg.d, cfg.stages, cfg.M, cfg.g) == (32, 4, 4, 6)
    assert cfg.p_inter == 5
    tiny = preset("tiny", r=2)
    assert (tiny.d, tiny.stages, tiny.M, tiny.g) == (4, 1, 2, 3)
    with pytest.raises(ValueError):
        preset("XL")


def test_parameter_counts_frozen():
    tiny = init_model(preset("tiny", r=2), seed=0, dtype=np.float32)
    assert count_parameters(tiny) == TINY_R2_PARAMS
    check_parameter_count()


def test_named_parameters_unique_and_stable():
    state = init_model(preset("tiny", r=2), seed=0)
    names = [name for name, _ in named_parameters(state)]
    assert len(names) == len(set(names))
    again = [name for name, _ in named_parameters(state)]
    assert names == again
    assert names[0].startswith("gate_main")


def test_rrdb_safe_start_identity():
    rng = np.random.default_rng(0)
    cfg = preset("tiny", r=2)
    w = init_rrdb_weights(cfg, rng, np.float64, safe_start=True)
    x = Tensor(rng.standard_normal((6, 6, cfg.d)))
    assert np.array_equal(rrdb(x, w).data, x.data)
    w2 = init_rrdb_weights(cfg, rng, np.float64, safe_start=False)
    assert np.abs(rrdb(x, w2).data - x.data).max() > 1e-6


@pytest.mark.parametrize("name, count", [("tiny", 13), ("S", 42)])
def test_safe_start_zeroes_the_last_layer_of_each_path(name, count):
    # each attention, MLP, AdaIN gamma, RDB and output head ends in a zero layer, and no other array
    cfg = preset(name, r=2)
    safe, live = (dict(state_arrays(init_model(cfg, seed=0, dtype=np.float32, safe_start=s)))
                  for s in (True, False))
    zeroed = {k for k, a in safe.items() if not a.any() and live[k].any()}
    last_conv = f".convs.{cfg.convs_per_rdb - 1}.w"
    expected = {k for k in safe if k.endswith((".out_w", ".conv2_w", ".gamma_w", last_conv))}
    expected |= {"head_intensity.w", "head_gradient.w"}
    assert zeroed == expected
    assert len(zeroed) == count


def test_safe_start_forward_equals_bicubic():
    check_safe_start_equals_bicubic(np.random.default_rng(1))


@pytest.mark.parametrize("r", [3, 4])
def test_safe_start_and_gradients_at_other_scales(r):
    check_safe_start_equals_bicubic(np.random.default_rng(1), r)
    assert check_network_gradients(np.random.default_rng(1), 20, r) <= 1e-4


def test_forward_shapes_and_determinism():
    check_forward_determinism(np.random.default_rng(2))


def test_forward_rejects_bad_extents():
    cfg = preset("tiny", r=2)
    state = init_model(cfg, seed=0)
    rng = np.random.default_rng(3)
    with pytest.raises(ShapeError):
        forward(rng.uniform(0, 1, (13, 13, 1)), rng.uniform(0, 1, (13, 13, 1)),
                rng.uniform(0, 1, (26, 26, 1)), state, cfg)
    i_in, r_s, _ = tiny_inputs(rng)
    with pytest.raises(ShapeError):
        forward(i_in, r_s, rng.uniform(0, 1, (20, 20, 1)), state, cfg)


def test_preflight_messages():
    check_datagen_preflight(np.random.default_rng(0))  # a generated sample passes
    cfg = ModelConfig(d=4, stages=1, rrdbs_per_stage=1, rdbs_per_rrdb=1,
                      convs_per_rdb=2, g=3, p_inter=2, M=2, r=2)
    lr, hr, small = (12, 12, 1), (24, 24, 1), (10, 10, 1)
    assert cfg.preflight(lr, lr, hr) == hr
    for shapes, needle in [((small, small, (20, 20, 1)), "not divisible by window side g=3"),
                           ((lr, small, hr), "LR gradient extents 10x10 do not equal"),
                           ((lr, lr, (24, 12, 1)), "guidance extents 24x12 do not equal r=2")]:
        with pytest.raises(ShapeError) as err:
            cfg.preflight(*shapes)
        assert needle in str(err.value)


def test_state_roundtrip_through_container(tmp_path):
    cfg = preset("tiny", r=2)
    state = init_model(cfg, seed=5, safe_start=False)
    path = tmp_path / "ckpt.chft"
    chft.save_container(path, state_arrays(state))
    other = init_model(cfg, seed=6, safe_start=False)
    load_state_arrays(other, chft.load_container(path))
    for (_, a), (_, b) in zip(named_parameters(state), named_parameters(other)):
        assert np.array_equal(a.data, b.data)


def test_load_state_errors():
    cfg = preset("tiny", r=2)
    state = init_model(cfg, seed=0)
    arrays = dict(state_arrays(state))
    first = next(iter(arrays))
    missing = {k: v for k, v in arrays.items() if k != first}
    with pytest.raises(chft.FormatError, match=f"checkpoint is missing parameter '{first}'"):
        load_state_arrays(state, missing)
    bad = dict(arrays)
    bad[first] = np.zeros((1, 2, 3))
    with pytest.raises(ShapeError):
        load_state_arrays(state, bad)


def test_state_with_removed_dead_weights_is_refused(tmp_path):
    # states written while attention had a key bias and AdaIN a shift beta
    # carry *.bk and adain.beta_* entries, which name no parameter of the model
    cfg = preset("tiny", r=2)
    arrays = state_arrays(init_model(cfg, seed=5, safe_start=False))
    for old, like in ((".bk", ".wk"), (".adain.beta_w", ".adain.gamma_w")):
        name = next(name for name, _ in arrays if name.endswith(like)).replace(like, old)
        path = tmp_path / "old.chft"
        chft.save_container(path, arrays + [(name, np.ones(2))])
        with pytest.raises(chft.FormatError, match=f"checkpoint entry '{name}' names no parameter"):
            load_state_arrays(init_model(cfg, seed=6), chft.load_container(path))


def test_every_parameter_gets_a_gradient():
    check_parameter_liveness(np.random.default_rng(0))


def test_liveness_check_names_the_weights_behind_a_zeroed_block(monkeypatch):
    # a zero out_w cuts the short-window attention off from the loss, so every
    # weight before it gets an exactly zero gradient; out_w and out_b still get one
    def zeroed(cfg, **kw):
        state = init_model(cfg, **kw)
        state.stages[0].block.short_attn.out_w.data[...] = 0.0
        return state

    monkeypatch.setattr(checks, "init_model", zeroed)
    with pytest.raises(AssertionError) as err:
        check_parameter_liveness(np.random.default_rng(0))
    listed = str(err.value).split(": ", 1)[1].split(", ")
    prefix = "stages.0.block.short_attn."
    want = [f"{p} {name}" for p in ("tiny", "S")
            for name, _ in named_parameters(init_model(preset(p, r=2)))
            if name.startswith(prefix) and not name.startswith(prefix + "out_")]
    assert len(want) == 2 * 17
    assert sorted(listed) == sorted(want)


def test_adamw_minimizes_quadratic():
    t = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = AdamW([("t", t)], lr=0.1, weight_decay=0.0)
    for _ in range(300):
        opt.step({t: 2.0 * t.data})
    assert np.abs(t.data).max() < 1e-3


def test_adamw_decoupled_decay():
    t = Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW([("t", t)], lr=0.01, weight_decay=0.1)
    opt.step({})  # no gradient: pure decay step
    assert abs(t.data[0] - 2.0 * (1.0 - 0.01 * 0.1)) <= 1e-12


def test_adamw_updates_in_place():
    rng = np.random.default_rng(0)
    t = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    idle = Tensor(rng.standard_normal(5), requires_grad=True)
    opt = AdamW([("t", t), ("idle", idle)], lr=0.01, weight_decay=0.1)
    held = [t.data, opt.m["t"], opt.v["t"], idle.data, opt.m["idle"], opt.v["idle"]]
    start, want = t.data.copy(), idle.data.copy()
    for _ in range(2):
        opt.step({t: rng.standard_normal((3, 4))})
        want = want - (0.01 * 0.1) * want  # no gradient: pure decay
    now = [t.data, opt.m["t"], opt.v["t"], idle.data, opt.m["idle"], opt.v["idle"]]
    assert all(a is b for a, b in zip(held, now))
    assert not np.array_equal(t.data, start)
    assert np.array_equal(idle.data, want)
