import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodscan.rng import IndexSubsets, SplitMix64, derive, mix64

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


# n = 1; powers of two, where nothing is rejected and the limit is 2**64;
# row counts; 2**63 + 1, where about half the words are rejected
BOUNDS = st.sampled_from([1, 2, 64, 2**32, 2**63, 7, 40, 384, 960, 2**63 + 1])


@given(SEEDS, BOUNDS, st.integers(0, 400))
def test_randrange_block_equals_scalar(seed, n, count):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    block = a.randrange_block(n, count)
    assert block.dtype == np.uint64
    assert [int(v) for v in block] == [b.randrange(n) for _ in range(count)]
    assert a._state == b._state


@pytest.mark.parametrize("n", [7, 384, 2**63 + 1])
def test_randrange_block_tops_up_after_a_rejected_word(n):
    # the all-ones word is rejected for every n that is not a power of two
    seed = seed_whose_draw_is(2**64 - 1, 5)
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    assert [int(v) for v in a.randrange_block(n, 20)] == [b.randrange(n) for _ in range(20)]
    assert a._state == b._state


def test_randrange_block_rejects_bad_bounds():
    r = SplitMix64(3)
    for n in (0, -1, 2**64):
        with pytest.raises(ValueError):
            r.randrange_block(n, 4)
    with pytest.raises(ValueError):
        r.randrange_block(5, -1)


@given(SEEDS, st.integers(1, 200), st.integers(1, 40), st.data())
def test_sample_indices_equals_scalar_fisher_yates(seed, n, draws, data):
    k = data.draw(st.integers(0, n))
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    subsets = IndexSubsets(a, n, k)
    for _ in range(draws):  # one scalar draw, then blocks of 16 draws
        assert subsets.draw() == scalar_sample_indices(b, n, k)
        assert a._state == b._state


@pytest.mark.parametrize("step", [0, 3, 10, 11, 40, 200])
def test_sample_indices_falls_back_to_scalar_on_a_rejected_word(step):
    # word ``step`` is in draw step // 11 (draw 0 runs scalar, draw 1 opens
    # the first block and draw 18 sits inside the second); it is rejected,
    # as 129 - step % 11 is no power of two, and every later word moves on
    seed = seed_whose_draw_is(2**64 - 1, step)
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    subsets = IndexSubsets(a, 129, 11)
    for _ in range(30):
        assert subsets.draw() == scalar_sample_indices(b, 129, 11)
        assert a._state == b._state


@given(SEEDS, st.lists(st.sampled_from(["draw", "next_u64", "randrange"]), max_size=30))
def test_subsets_drop_their_words_when_the_stream_moves(seed, calls):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    subsets = IndexSubsets(a, 30, 4)
    for call in ["draw", *calls, "draw"]:
        if call == "draw":
            assert subsets.draw() == scalar_sample_indices(b, 30, 4)
        elif call == "next_u64":
            assert a.next_u64() == b.next_u64()
        else:
            assert a.randrange(7) == b.randrange(7)
        assert a._state == b._state


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
