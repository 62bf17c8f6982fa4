"""Synthetic paired-modality phantoms and dataset packaging.

Both modalities share one ellipse geometry; their intensities come from two
independent label-indexed lookup tables, so edges coincide while gray levels
are unrelated — the prior the cross-modality attention exploits.  A sample
is stored as one CHFT file per image of FIELDS plus a plain-text manifest of
sample ids.  The model's two gradient maps are not stored: model_inputs
derives them from the images, for gen-data's pairs, loaded pairs and infer.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import chft
from .losses import gaussian_taps, gradient_map
from .resample import degrade
from .tensor import Tensor, separable_blur

FIELDS = ("t2_lr", "t1_hr", "t2_hr")  # a sample's stored images


@dataclass
class PhantomSpec:
    """One gen-data run's phantoms; RunConfig takes its keys' defaults from here."""
    seed: int = 0
    side: int = 96              # HR canvas side
    ellipses_min: int = 3
    ellipses_max: int = 8
    blur_sigma: float = 1.5
    noise_sigma: float = 0.0


@dataclass
class TrainingPair:
    """A sample as the model takes it: forward's image arguments and the ground truth."""
    t2_lr: np.ndarray       # [h, w, 1]
    t2_lr_grad: np.ndarray  # [h, w, 1]
    t1_hr_grad: np.ndarray  # [rh, rw, 1]
    t2_hr: np.ndarray       # [rh, rw, 1]


def model_inputs(t2_lr, t1_hr, names=FIELDS[:2]):
    """forward's image arguments from the two input images: (t2_lr, its gradient map, t1_hr's).

    Each map is losses.gradient_map of its image at f64.  A finite image above
    about 1e154 squares to an infinite map: that is a FormatError naming the
    image by its entry in ``names``.  An array of rank < 2 has no map: it
    stands in for its own, so preflight rejects it by its shape.
    """
    def derived(img, name):
        if img.ndim < 2:
            return img
        with np.errstate(over="ignore"):  # an overflow is refused just below, by name
            grad = gradient_map(img.astype(np.float64)).data
        return chft.require_finite(grad, f"gradient map of {name}")

    return (t2_lr, *map(derived, (t2_lr, t1_hr), names))


def _gaussian_blur(img2d, sigma):
    """Gaussian blur of radius int(4 sigma + 0.5) over a mirror-padded border (edge sample repeated)."""
    r = int(4 * sigma + 0.5)
    padded = np.pad(img2d, r, mode="symmetric")[:, :, None]
    return separable_blur(Tensor(padded), gaussian_taps(2 * r + 1, sigma)).data[:, :, 0]


def synth_phantom(spec: PhantomSpec):
    """Deterministic per-seed (t1_hr, t2_hr) pair with shared geometry, [side, side] in [0, 1]."""
    rng = np.random.default_rng(spec.seed)
    s = spec.side
    n = int(rng.integers(spec.ellipses_min, spec.ellipses_max + 1)) if spec.ellipses_max > 0 else 0
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    labels = np.zeros((s, s), dtype=np.int64)
    for k in range(1, n + 1):
        cy, cx = rng.uniform(0.15 * s, 0.85 * s, 2)
        ay, ax = rng.uniform(0.08 * s, 0.35 * s, 2)
        theta = rng.uniform(0.0, np.pi)
        ry = (yy - cy) * np.cos(theta) + (xx - cx) * np.sin(theta)
        rx = -(yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta)
        labels[(ry / ay) ** 2 + (rx / ax) ** 2 <= 1.0] = k
    images = []
    for _ in range(2):
        # spaced values in random order keep every region boundary contrasted
        lut = 0.1 + 0.8 * rng.permutation(n + 1) / max(n, 1)
        img = lut[labels]
        if spec.blur_sigma > 0:
            img = _gaussian_blur(img, spec.blur_sigma)
        if spec.noise_sigma > 0:
            img = img + rng.normal(0.0, spec.noise_sigma, img.shape)
        images.append(np.clip(img, 0.0, 1.0))
    t1_hr, t2_hr = images
    return t1_hr, t2_hr


def sample_images(spec: PhantomSpec, r: int):
    """One sample's images by FIELDS name, each [.., .., 1]: T2 degraded by r, T1 and T2 at HR."""
    t1_hr, t2_hr = synth_phantom(spec)
    return {"t2_lr": degrade(t2_hr, r)[:, :, None], "t1_hr": t1_hr[:, :, None],
            "t2_hr": t2_hr[:, :, None]}


def make_pair(spec: PhantomSpec, r: int) -> TrainingPair:
    images = sample_images(spec, r)
    return TrainingPair(*model_inputs(images["t2_lr"], images["t1_hr"]), images["t2_hr"])


def save_images(directory, sample_id, images):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in FIELDS:
        chft.save_tensor(directory / f"{sample_id}.{name}.chft", images[name])


def load_field(path, name):
    """One image ``name`` of FIELDS, as train, eval and infer read it; NaN or inf is a FormatError."""
    return chft.require_finite(chft.load_tensor(path), f"{name} {path}")


def load_inputs(t2_lr_path, t1_hr_path):
    """model_inputs of the two input images' files; each map is named as its image is."""
    paths = dict(zip(FIELDS, (t2_lr_path, t1_hr_path)))
    return model_inputs(*(load_field(path, name) for name, path in paths.items()),
                        names=tuple(f"{name} {path}" for name, path in paths.items()))


def load_pair(directory, sample_id) -> TrainingPair:
    t2_lr, t1_hr, t2_hr = (Path(directory) / f"{sample_id}.{name}.chft" for name in FIELDS)
    return TrainingPair(*load_inputs(t2_lr, t1_hr), load_field(t2_hr, "t2_hr"))


def write_manifest(directory, sample_ids):
    Path(directory, "manifest.txt").write_text("".join(f"{sid}\n" for sid in sample_ids))


def read_manifest(directory):
    path = Path(directory, "manifest.txt")
    ids = path.read_text().split()
    if not ids:
        raise chft.FormatError(f"{path} lists no samples")
    return ids


def generate_dataset(directory, n_samples, r, base_spec: PhantomSpec):
    """n_samples pairs with seeds base_seed .. base_seed + n - 1; returns the ids."""
    ids = []
    for i in range(n_samples):
        spec = dataclasses.replace(base_spec, seed=base_spec.seed + i)
        sid = f"sample_{spec.seed:05d}"
        save_images(directory, sid, sample_images(spec, r))
        ids.append(sid)
    write_manifest(directory, ids)
    return ids
