"""The pure-Python generator against numpy's ``Generator(PCG64(seed))`` as an independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsat.graphs import COLOR_CAP, seeded_rng
from ramsat.graphs import ENUMERATION_CAP, VERTEX_CAP
from ramsat.rng import PCG64

SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 3]


def numpy_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def test_random_matches_numpy():
    for seed in SEEDS:
        assert PCG64(seed).random(40) == numpy_rng(seed).random(40).tolist(), seed


def test_integers_match_numpy():
    for seed in SEEDS:
        r = 2 + seed % (COLOR_CAP - 1)
        want = numpy_rng(seed).integers(0, r, size=30).tolist()
        assert PCG64(seed).integers(0, r, size=30) == want, seed


@pytest.mark.parametrize("high", [2**31 + 1, 3 * 2**30, 2**32 - 1])
def test_wide_integers_reject_as_numpy_does(high):
    # numpy redraws while the low half of word * high is under 2^32 mod high:
    # at 3 * 2^30 a quarter of the words, so a wrong threshold shifts the stream
    for seed in range(200):
        want = numpy_rng(seed).integers(0, high, size=50).tolist()
        assert PCG64(seed).integers(0, high, size=50) == want, seed


def test_permutation_matches_numpy():
    for seed in SEEDS:
        n = seed % (ENUMERATION_CAP + 1)
        assert PCG64(seed).permutation(n) == numpy_rng(seed).permutation(n).tolist(), seed


def test_choice_matches_numpy():
    for seed in SEEDS:
        n = 1 + seed % ENUMERATION_CAP
        m = 1 + (seed // ENUMERATION_CAP) % n
        want = numpy_rng(seed).choice(n, size=m, replace=False).tolist()
        assert PCG64(seed).choice(n, size=m) == want, seed


def test_interleaved_calls_share_the_spare_half_word():
    # integers draws 32-bit halves and random whole words: the spare half must outlive random
    for seed in SEEDS:
        ours, theirs = PCG64(seed), numpy_rng(seed)
        for size in (1, 3, 2):
            assert ours.integers(0, 5, size=size) == theirs.integers(0, 5, size=size).tolist()
            assert ours.random(size) == theirs.random(size).tolist()
        assert ours.permutation(9) == theirs.permutation(9).tolist()
        assert ours.choice(20, size=7) == theirs.choice(20, size=7, replace=False).tolist()


def test_every_size_up_to_the_caps_matches_numpy():
    ours, theirs = PCG64(12345), numpy_rng(12345)
    for n in range(ENUMERATION_CAP + 1):
        assert ours.permutation(n) == theirs.permutation(n).tolist(), n
        for m in range(1, n + 1):
            assert ours.choice(n, size=m) == theirs.choice(n, size=m, replace=False).tolist()
    for r in range(1, COLOR_CAP + 1):
        assert ours.integers(0, r, size=17) == theirs.integers(0, r, size=17).tolist(), r


def test_draws_on_the_largest_vertex_set_match_numpy():
    # a sampled scan or a G(N, p) may have VERTEX_CAP vertices, inside numpy's Floyd branch
    ours, theirs = PCG64(3), numpy_rng(3)
    assert ours.permutation(VERTEX_CAP) == theirs.permutation(VERTEX_CAP).tolist()
    for m in (1, 2, 100, VERTEX_CAP):
        want = theirs.choice(VERTEX_CAP, size=m, replace=False).tolist()
        assert ours.choice(VERTEX_CAP, size=m) == want, m


def test_empty_and_one_value_draws_take_no_word():
    ours, theirs = PCG64(7), numpy_rng(7)
    assert ours.integers(0, 1, size=5) == theirs.integers(0, 1, size=5).tolist() == [0] * 5
    assert ours.random(0) == [] and ours.choice(5, size=0) == []
    assert ours.random(2) == theirs.random(2).tolist()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**130), st.integers(1, ENUMERATION_CAP), st.data())
def test_stream_matches_numpy(seed, n, data):
    m = data.draw(st.integers(1, n))
    r = data.draw(st.integers(1, COLOR_CAP))
    ours, theirs = PCG64(seed), numpy_rng(seed)
    assert ours.integers(0, r, size=m) == theirs.integers(0, r, size=m).tolist()
    assert ours.choice(n, size=m) == theirs.choice(n, size=m, replace=False).tolist()
    assert ours.random(m) == theirs.random(m).tolist()
    assert ours.permutation(n) == theirs.permutation(n).tolist()


def test_seeds_are_refused_as_numpy_refuses_them():
    for bad in (-1, -(2**64)):
        with pytest.raises(ValueError):
            numpy_rng(bad)
        with pytest.raises(ValueError):
            seeded_rng(bad)
    with pytest.raises(TypeError):
        PCG64(1.5)
    with pytest.raises(ValueError, match="explicit seed"):
        seeded_rng(None)


def test_bounds_outside_the_implemented_range_are_refused():
    rng = PCG64(1)
    for low, high in ((0, 0), (3, 2), (0, 2**32 + 1)):
        with pytest.raises(ValueError):
            rng.integers(low, high, size=1)
    with pytest.raises(ValueError):
        rng.choice(3, size=4)
