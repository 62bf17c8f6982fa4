from reference_f64 import PATH, compute, moved

from cohft import chft


def test_f64_numerics_match_the_reference(tmp_path):
    # outputs, loss terms, gradient and weight sketches of tiny (r = 2, 4) and S,
    # a generated sample and a 3-step train, all within 1e-12 of the pinned file
    reference = chft.load_container(PATH)
    assert PATH.stat().st_size < 1 << 20
    names = moved(reference, dict(compute(tmp_path)))
    assert not names, f"{len(names)} of {len(reference)} pinned arrays moved: {', '.join(names)}"
