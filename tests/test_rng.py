import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodscan import rng as rng_module
from oodscan.rng import IndexSubsets, SplitMix64, derive, derive_block, mix64, tree_streams

from oracles import scalar_sample_indices, seed_whose_draw_is, splitmix64_reference

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def test_matches_reference_algorithm():
    for seed in (0, 1, 42, 2**63, 0xDEADBEEF):
        ours = SplitMix64(seed)
        assert [ours.next_u64() for _ in range(20)] == splitmix64_reference(seed, 20)


def test_known_vector_seed_zero():
    # first outputs of the reference C implementation seeded with 0
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 200))
def test_block_equals_scalar(seed, n):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    block = a.u64_block(n)
    assert [int(v) for v in block] == [b.next_u64() for _ in range(n)]
    # streams stay aligned after the block
    assert a.next_u64() == b.next_u64()


def test_uniform_bounds_and_determinism():
    r = SplitMix64(9)
    vals = r.uniform_block(10_000, -2.0, 3.0)
    assert vals.min() >= -2.0 and vals.max() < 3.0
    assert np.array_equal(vals, SplitMix64(9).uniform_block(10_000, -2.0, 3.0))


def test_normal_block_moments():
    vals = SplitMix64(4).normal_block(200_000)
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 1.0) < 0.01
    assert np.all(np.isfinite(vals))


def test_randint_covers_inclusive_range():
    r = SplitMix64(5)
    seen = {r.randint(-2, 2) for _ in range(500)}
    assert seen == {-2, -1, 0, 1, 2}
    with pytest.raises(ValueError):
        r.randint(3, 2)


def test_randrange_and_randint_accept_the_2_pow_64_bound():
    word = SplitMix64(8).next_u64()
    assert SplitMix64(8).randrange(2**64) == word
    assert SplitMix64(8).randint(-5, 2**64 - 6) == word - 5


def test_randrange_and_randint_reject_bounds_above_2_pow_64():
    r = SplitMix64(8)
    for n in (2**64 + 1, 2**65):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            r.randrange(n)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        r.randint(0, 2**64)
    assert r._state == SplitMix64(8)._state  # nothing was drawn


def test_randrange_uniformity_smoke():
    r = SplitMix64(6)
    counts = np.bincount([r.randrange(7) for _ in range(70_000)], minlength=7)
    assert counts.min() > 9000  # each bucket near 10000


def test_shuffle_is_permutation_and_deterministic():
    r = SplitMix64(7)
    items = list(range(25))
    r.shuffle(items)
    assert sorted(items) == list(range(25))
    again = list(range(25))
    SplitMix64(7).shuffle(again)
    assert items == again


def test_seed_whose_draw_is_inverts_the_stream():
    for draw in (0, 3):
        r = SplitMix64(seed_whose_draw_is(2**64 - 1, draw))
        assert [r.next_u64() for _ in range(draw + 1)][-1] == 2**64 - 1


# n = 1; powers of two, where nothing is rejected; row counts; 2**63 + 1,
# where about half the words are rejected; 2**64 - 1, which rejects one word
BOUNDS = st.sampled_from([1, 2, 64, 2**32, 2**63, 7, 40, 384, 960, 2**63 + 1, 2**64 - 1])


def assert_randrange_each_equals_scalar(seed, bounds):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    got = a.randrange_each(np.array(bounds, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [b.randrange(n) for n in bounds]
    assert a._state == b._state


@given(SEEDS, BOUNDS, st.integers(0, 400))
def test_randrange_each_equals_scalar(seed, n, count):
    assert_randrange_each_equals_scalar(seed, [n] * count)


@pytest.mark.parametrize("n", [7, 384, 2**63 + 1, 2**64 - 1])
def test_randrange_each_tops_up_after_a_rejected_word(n):
    # the all-ones word is rejected for every n that is not a power of two
    assert_randrange_each_equals_scalar(seed_whose_draw_is(2**64 - 1, 5), [n] * 20)


@given(st.lists(BOUNDS, max_size=60), st.lists(st.integers(0, 59), max_size=4))
def test_randrange_each_equals_scalar_on_mixed_bounds(bounds, steps):
    # the all-ones word at each of ``steps``: rejected where its bound is no
    # power of two, and the later bounds draw from the words after it
    assert_randrange_each_equals_scalar(0, bounds)
    for step in steps:
        assert_randrange_each_equals_scalar(seed_whose_draw_is(2**64 - 1, step), bounds)


def test_randrange_each_rejects_a_zero_bound():
    r = SplitMix64(3)
    with pytest.raises(ValueError):
        r.randrange_each(np.array([5, 0], dtype=np.uint64))
    assert r._state == SplitMix64(3)._state


@given(SEEDS, st.integers(1, 200), st.integers(1, 40), st.data())
def test_sample_indices_equals_scalar_fisher_yates(seed, n, draws, data):
    k = data.draw(st.integers(0, n))
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    subsets = IndexSubsets(a, n, k)
    for _ in range(draws):  # blocks of 16 draws
        assert subsets.draw() == scalar_sample_indices(b, n, k)


@pytest.mark.parametrize("step", [0, 3, 10, 11, 40, 200])
def test_sample_indices_falls_back_to_scalar_on_a_rejected_word(step):
    # word ``step`` is in draw step // 11 (draw 0 opens the first block and
    # draw 18 sits inside the second); it is rejected,
    # as 129 - step % 11 is no power of two, and every later word moves on
    seed = seed_whose_draw_is(2**64 - 1, step)
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    subsets = IndexSubsets(a, 129, 11)
    for _ in range(30):
        assert subsets.draw() == scalar_sample_indices(b, 129, 11)


def test_sample_indices_distinct():
    subsets = IndexSubsets(SplitMix64(8), 12, 5)
    for _ in range(50):
        got = subsets.draw()
        assert len(set(got)) == 5
        assert all(0 <= g < 12 for g in got)


def test_subsets_reject_k_outside_range():
    for n, k in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            IndexSubsets(SplitMix64(0), n, k)


@pytest.mark.parametrize("seed", [0, 1, 4242, 2**63, 2**64 - 1])
def test_derive_block_equals_derive_across_byte_boundaries(seed):
    ts = [0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    base = derive(seed, "tree")
    got = derive_block(base, ts)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive(seed, "tree", t) for t in ts]
    assert derive_block(base, np.arange(300)).tolist() == [derive(base, t) for t in range(300)]


def assert_scalar_streams(seeds, n, d, k, draws=3):
    """``tree_streams`` gives, per seed, the rows and subset draws of one
    scalar stream: n ``randrange(n)`` and scalar Fisher-Yates."""
    streams = list(tree_streams(np.array(seeds, dtype=np.uint64), n, d, k))
    assert len(streams) == len(seeds)
    for seed, (rows, subsets) in zip(seeds, streams):
        b = SplitMix64(seed)
        assert rows.dtype == np.intp
        assert rows.tolist() == [b.randrange(n) for _ in range(n)]
        for _ in range(draws):
            assert subsets.draw() == scalar_sample_indices(b, d, k)


@given(st.lists(SEEDS, min_size=1, max_size=12), st.integers(1, 300), st.integers(1, 40),
       st.data())
def test_tree_streams_equal_randrange_block_and_scalar_subsets(seeds, n, d, data):
    assert_scalar_streams(seeds, n, d, data.draw(st.integers(0, d)))


# n = 40 rows and 11 of d = 129 features: word ``step`` (0-based) of a
# stream is rejected by randrange(40) for step < 40, and by the first
# draw's randrange(129 - i) for step 40 + i; 129 - i is no power of two
@pytest.mark.parametrize("step", [0, 17, 39, 40, 45, 50, 51, 80])
def test_tree_streams_fall_back_to_scalar_on_a_rejected_word(step):
    seed = seed_whose_draw_is(2**64 - 1, step)
    assert_scalar_streams([1, seed, 2, seed, 3], 40, 129, 11, draws=6)


@pytest.mark.parametrize("words", [1, 61, 102, 153, 1 << 13])
def test_tree_streams_over_several_chunks(monkeypatch, words):
    # 51 words per stream: a chunk holds 1 (also when one stream exceeds
    # the budget), 1, 2, 3 or all 7 streams
    monkeypatch.setattr(rng_module, "_SETUP_WORDS", words)
    seeds = [derive(9, "tree", t) for t in range(6)] + [seed_whose_draw_is(2**64 - 1, 3)]
    assert_scalar_streams(seeds, 40, 30, 11)


def test_derive_is_stable_and_sensitive():
    base = derive(1234, "tree", 7)
    assert base == derive(1234, "tree", 7)
    assert base != derive(1234, "tree", 8)
    assert base != derive(1234, "split", 7)
    assert base != derive(1235, "tree", 7)
    assert 0 <= base < 2**64


def test_mix64_bijective_smoke():
    outs = {mix64(i) for i in range(10_000)}
    assert len(outs) == 10_000
