import numpy as np
from scipy.ndimage import gaussian_filter

from cohft import chft
from cohft.checks import check_datagen_determinism
from cohft.data import (FIELDS, PhantomSpec, TrainingPair, _gaussian_blur, generate_dataset,
                        load_pair, make_pair, read_manifest, sample_images, save_images,
                        synth_phantom, write_manifest)
from cohft.losses import gradient_map
from cohft.resample import degrade
from cohft.tensor import Tensor


def test_per_seed_determinism():
    check_datagen_determinism(None)  # the phantom seed is fixed inside the check


def test_phantom_blur_matches_gaussian_filter():
    rng = np.random.default_rng(21)
    cases = [(rng.random((96, 96)), 1.5) for _ in range(5)]
    cases += [(rng.random((30, 17)), 1.5),
              (rng.random((4, 4)), 5.0), (rng.random((6, 6)), 7.3)]  # radius 20 and 29 > side
    for img, sigma in cases:
        np.testing.assert_allclose(_gaussian_blur(img, sigma),
                                   gaussian_filter(img, sigma, mode="reflect"), rtol=0, atol=1e-15)
    # radius int(4 sigma + 0.5) = 0: one tap of weight 1 leaves the image as it is
    img = rng.random((9, 9))
    assert np.array_equal(_gaussian_blur(img, 0.1), gaussian_filter(img, 0.1, mode="reflect"))
    assert np.array_equal(_gaussian_blur(img, 0.1), img)


def test_different_seeds_differ():
    a, _ = synth_phantom(PhantomSpec(seed=0, side=48))
    b, _ = synth_phantom(PhantomSpec(seed=1, side=48))
    assert np.abs(a - b).max() > 1e-3


def test_phantom_range_and_modalities():
    t1, t2 = synth_phantom(PhantomSpec(seed=5, side=64))
    for img in (t1, t2):
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0
    # shared geometry, independent gray levels
    assert np.abs(t1 - t2).max() > 1e-3


def test_pair_fields_are_consistent():
    spec = PhantomSpec(seed=3, side=48)
    pair = make_pair(spec, 2)
    assert pair.t2_hr.shape == (48, 48, 1)
    assert pair.t2_lr.shape == (24, 24, 1)
    assert pair.t1_hr_grad.shape == (48, 48, 1)
    assert pair.t2_lr_grad.shape == (24, 24, 1)
    # the stored degraded image and gradient maps are recomputable
    _, t2_hr = synth_phantom(spec)
    assert np.array_equal(pair.t2_lr[:, :, 0], degrade(t2_hr, 2))
    assert np.array_equal(pair.t2_lr_grad,
                          gradient_map(Tensor(pair.t2_lr.astype(np.float64))).data)
    assert np.all(pair.t1_hr_grad >= 1e-3)


def test_pair_roundtrip(tmp_path):
    # a saved sample loads as the pair make_pair builds, gradient maps included
    spec = PhantomSpec(seed=9, side=24)
    save_images(tmp_path, "s0", sample_images(spec, 2))
    back, pair = load_pair(tmp_path, "s0"), make_pair(spec, 2)
    for name in ("t2_lr", "t2_lr_grad", "t1_hr_grad", "t2_hr"):
        assert np.array_equal(getattr(back, name), getattr(pair, name)), name


def test_manifest_roundtrip(tmp_path):
    ids = ["sample_00003", "sample_00004"]
    write_manifest(tmp_path, ids)
    assert read_manifest(tmp_path) == ids


def test_generate_dataset(tmp_path):
    spec = PhantomSpec(seed=7, side=24)
    ids = generate_dataset(tmp_path, 3, 2, spec)
    assert ids == ["sample_00007", "sample_00008", "sample_00009"]
    assert read_manifest(tmp_path) == ids
    # a sample is its three images; the gradient maps are derived from them as they load
    assert FIELDS == ("t2_lr", "t1_hr", "t2_hr")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["manifest.txt"] + [f"{sid}.{name}.chft" for sid in ids for name in FIELDS])
    for sid in ids:
        pair = load_pair(tmp_path, sid)
        assert isinstance(pair, TrainingPair)
        assert pair.t2_lr.shape == (12, 12, 1)
        for grad, image in (("t2_lr_grad", "t2_lr"), ("t1_hr_grad", "t1_hr")):
            stored = chft.load_tensor(tmp_path / f"{sid}.{image}.chft")
            assert np.array_equal(getattr(pair, grad), gradient_map(stored).data), grad
