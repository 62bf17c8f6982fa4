from dataclasses import fields

import pytest

from cohft.config import ConfigError, RunConfig, load_config


def test_defaults():
    cfg = load_config()
    assert cfg.preset == "tiny"
    assert cfg.r == 2
    assert cfg.lr == 1e-4
    assert cfg.lr_halve_epochs == 100
    assert cfg.alpha == 0.95
    assert cfg.lam == 0.5
    assert cfg.precision == "f32"


def test_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# toy run
preset = tiny
lr = 3e-3      # bumped
steps=200
blur_sigma = 0.6
""")
    cfg = load_config(path)
    assert cfg.preset == "tiny"
    assert cfg.lr == 3e-3
    assert cfg.steps == 200
    assert cfg.blur_sigma == 0.6


def test_overrides_win(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 1e-3\n")
    cfg = load_config(path, ["lr=5e-4", "seed=9"])
    assert cfg.lr == 5e-4
    assert cfg.seed == 9


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rate = 1e-3\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(None, ["bogus=1"])


def test_bad_values_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps = many\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("no equals sign here\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(None, ["precision=f16"])
    for key in ("r", "batch_size", "lr_halve_epochs", "samples", "side"):
        with pytest.raises(ConfigError, match=key):
            load_config(None, [f"{key}=0"])
    for key in ("epochs", "steps"):
        load_config(None, [f"{key}=0"])
        with pytest.raises(ConfigError, match=key):
            load_config(None, [f"{key}=-1"])


def test_echo(tmp_path):
    cfg = load_config(None, ["seed=4"])
    assert isinstance(cfg, RunConfig)
    out = tmp_path / "echo.txt"
    cfg.echo(out)
    text = out.read_text()
    assert "seed = 4" in text
    assert "preset = tiny" in text


def test_echo_round_trips_every_field(tmp_path):
    # a value unlike the default for every field, in the field's own type
    changed = {"preset": "S", "r": 3, "seed": 5, "epochs": 7, "steps": 11, "batch_size": 2,
               "lr": 3e-3, "lr_halve_epochs": 13, "weight_decay": 0.25, "precision": "f64",
               "data_dir": "d/x", "out_dir": "o/y", "samples": 17, "side": 60,
               "ellipses_min": 1, "ellipses_max": 2, "blur_sigma": 0.6, "noise_sigma": 0.01,
               "alpha": 0.5, "lam": 0.125}
    assert set(changed) == {f.name for f in fields(RunConfig)}
    cfg = load_config(None, [f"{k}={v}" for k, v in changed.items()])
    defaults = RunConfig()
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        assert value != getattr(defaults, f.name), f.name
        assert type(value).__name__ == f.type, f.name  # the default's type is the declared one
    path = tmp_path / "echo.txt"
    cfg.echo(path)
    assert load_config(path) == cfg
