"""Unit + property tests for the dirty bitmap and its two scan strategies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HypervisorError
from repro.hypervisor.dirty import DirtyBitmap
from repro.sim.rng import SeededStream


def test_set_and_test():
    bitmap = DirtyBitmap(1000)
    bitmap.set(0)
    bitmap.set(999)
    assert bitmap.test(0)
    assert bitmap.test(999)
    assert not bitmap.test(500)


def test_count_deduplicates():
    bitmap = DirtyBitmap(100)
    bitmap.set(5)
    bitmap.set(5)
    assert bitmap.count() == 1


def test_out_of_range_rejected():
    bitmap = DirtyBitmap(64)
    with pytest.raises(HypervisorError):
        bitmap.set(64)
    with pytest.raises(HypervisorError):
        bitmap.set(-1)


def test_test_out_of_range_rejected_like_set():
    bitmap = DirtyBitmap(64)
    with pytest.raises(HypervisorError):
        bitmap.test(64)
    with pytest.raises(HypervisorError):
        bitmap.test(-1)


def test_test_negative_pfn_does_not_wrap():
    # pfn -1 used to read the *last* word's top bit via Python negative
    # indexing; a dirty frame there must not leak into a bogus answer.
    bitmap = DirtyBitmap(128)
    bitmap.set(127)
    with pytest.raises(HypervisorError):
        bitmap.test(-1)


def test_zero_frames_rejected():
    with pytest.raises(HypervisorError):
        DirtyBitmap(0)


def test_clear_resets():
    bitmap = DirtyBitmap(100)
    bitmap.set(3)
    bitmap.clear()
    assert bitmap.count() == 0
    assert not bitmap.test(3)


def test_both_scans_find_same_pfns_sorted():
    bitmap = DirtyBitmap(500)
    for pfn in (0, 63, 64, 65, 127, 400, 499):
        bitmap.set(pfn)
    bit_dirty, _stats = bitmap.scan_bit_by_bit()
    word_dirty, _stats = bitmap.scan_by_words()
    assert bit_dirty == word_dirty == [0, 63, 64, 65, 127, 400, 499]


def test_word_scan_skips_zero_words():
    bitmap = DirtyBitmap(64 * 100)
    bitmap.set(0)  # only word 0 is non-zero
    _dirty, stats = bitmap.scan_by_words()
    assert stats.bits_visited == 64
    _dirty, bit_stats = bitmap.scan_bit_by_bit()
    assert bit_stats.bits_visited == 64 * 100


def test_harvest_clears_after_scan():
    bitmap = DirtyBitmap(128)
    bitmap.set(7)
    dirty, stats = bitmap.harvest(optimized=True)
    assert dirty == [7]
    assert stats.dirty_found == 1
    assert bitmap.count() == 0


def test_harvest_strategy_selection():
    bitmap = DirtyBitmap(6400)
    bitmap.set(1)
    _dirty, stats = bitmap.harvest(optimized=False)
    assert stats.bits_visited == 6400


def test_load_random_density():
    bitmap = DirtyBitmap(10000)
    bitmap.load_random(SeededStream(1, "t"), 0.05)
    assert bitmap.count() == 500


def test_load_random_hits_requested_density_exactly():
    # Sampling with replacement undershoots badly at high densities:
    # 50% of 10000 frames drawn with replacement collides ~21% of the
    # time. Distinct draws must hit the requested count exactly.
    bitmap = DirtyBitmap(10000)
    bitmap.load_random(SeededStream(7, "dense"), 0.5)
    assert bitmap.count() == 5000


def test_load_random_full_density_saturates():
    bitmap = DirtyBitmap(256)
    bitmap.load_random(SeededStream(2, "full"), 1.0)
    assert bitmap.count() == 256


def test_last_partial_word_handled():
    bitmap = DirtyBitmap(70)  # 2 words, second partial
    bitmap.set(69)
    bit_dirty, _ = bitmap.scan_bit_by_bit()
    word_dirty, _ = bitmap.scan_by_words()
    assert bit_dirty == word_dirty == [69]


@settings(max_examples=50, deadline=None)
@given(
    frame_count=st.integers(min_value=1, max_value=2000),
    data=st.data(),
)
def test_property_scan_equivalence(frame_count, data):
    """The optimized scan must find exactly the bit-by-bit scan's set."""
    bitmap = DirtyBitmap(frame_count)
    pfns = data.draw(
        st.lists(st.integers(min_value=0, max_value=frame_count - 1),
                 max_size=100)
    )
    for pfn in pfns:
        bitmap.set(pfn)
    bit_dirty, _ = bitmap.scan_bit_by_bit()
    word_dirty, _ = bitmap.scan_by_words()
    assert bit_dirty == word_dirty == sorted(set(pfns))
    assert bitmap.count() == len(set(pfns))


def test_set_many_counts_and_sets():
    bitmap = DirtyBitmap(500)
    bitmap.set(7)
    bitmap.set_many([7, 8, 64, 499])
    assert bitmap.count() == 4
    assert all(bitmap.test(pfn) for pfn in (7, 8, 64, 499))


def test_set_many_validates_batch_atomically():
    bitmap = DirtyBitmap(64)
    with pytest.raises(HypervisorError):
        bitmap.set_many([1, 2, 64])
    with pytest.raises(HypervisorError):
        bitmap.set_many([-1, 3])
    # The failed batches left the bitmap untouched.
    assert bitmap.count() == 0


def test_set_range_spans_and_counts():
    bitmap = DirtyBitmap(1000)
    bitmap.set(100)  # already dirty inside the range: not double counted
    bitmap.set_range(96, 400)
    assert bitmap.count() == 400 - 96 + 1
    dirty, _ = bitmap.scan_by_words()
    assert dirty == list(range(96, 401))


def test_set_range_single_frame_and_bounds():
    bitmap = DirtyBitmap(128)
    bitmap.set_range(5, 5)
    assert bitmap.count() == 1 and bitmap.test(5)
    bitmap.set_range(9, 3)  # empty range is a no-op
    assert bitmap.count() == 1
    with pytest.raises(HypervisorError):
        bitmap.set_range(0, 128)
    with pytest.raises(HypervisorError):
        bitmap.set_range(-1, 5)


@settings(max_examples=50, deadline=None)
@given(frame_count=st.integers(min_value=1, max_value=600), data=st.data())
def test_property_set_range_equals_individual_sets(frame_count, data):
    first = data.draw(st.integers(0, frame_count - 1))
    last = data.draw(st.integers(first, frame_count - 1))
    ranged = DirtyBitmap(frame_count)
    ranged.set_range(first, last)
    individual = DirtyBitmap(frame_count)
    for pfn in range(first, last + 1):
        individual.set(pfn)
    assert ranged.count() == individual.count()
    assert ranged.scan_by_words()[0] == individual.scan_by_words()[0]


def test_load_random_rejects_out_of_range_fraction():
    bitmap = DirtyBitmap(100)
    for junk in (-0.1, 1.5, float("nan"), float("inf"), "0.5", None):
        with pytest.raises(HypervisorError):
            bitmap.load_random(SeededStream(1, "junk"), junk)


def test_load_random_boundary_fractions_ok():
    bitmap = DirtyBitmap(100)
    bitmap.load_random(SeededStream(1, "edge"), 0.0)
    assert bitmap.count() == 0
    bitmap.load_random(SeededStream(1, "edge"), 1.0)
    assert bitmap.count() == 100


def test_scan_stats_identical_across_backends():
    """words/bits visited are functions of bitmap content, not backend."""
    from repro.hypervisor import dirty as dirty_module

    pfns = (0, 1, 64, 300, 644)
    bitmap = DirtyBitmap(64 * 10 + 5)
    for pfn in pfns:
        bitmap.set(pfn)
    fast, fast_stats = bitmap.scan_by_words()
    slow, slow_stats = bitmap.scan_bit_by_bit()
    assert fast == slow == list(pfns)
    nonzero_words = len({pfn // dirty_module.WORD_BITS for pfn in pfns})
    assert fast_stats.bits_visited == nonzero_words * dirty_module.WORD_BITS
    assert fast_stats.words_visited == slow_stats.words_visited \
        == bitmap.word_count
    assert fast_stats.dirty_found == slow_stats.dirty_found == len(pfns)
