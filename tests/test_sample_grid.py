import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from duostego.errors import (
    CapacityExceededError,
    CoordinateOutOfRangeError,
    ExtractionError,
    OutOfRangeError,
    RepeatedPositionError,
)
from duostego.sample_grid import embed_chunks, extract_chunks, geometry, select_samples

from oracles import embed_oracle, select_samples_oracle


def height(g):
    """Rows of the grid: the last one may be partly filled."""
    return -(-g.total_samples // g.width)


class TestGeometry:
    def test_single_sample(self):
        g = geometry(1)
        assert (g.width, height(g), g.digit_width) == (1, 1, 1)

    def test_thousand_samples(self):
        g = geometry(1000)
        assert (g.width, height(g), g.digit_width) == (32, 32, 2)

    def test_million_samples_gives_three_digit_coords(self):
        g = geometry(1_000_000)
        assert (g.width, height(g), g.digit_width) == (1000, 1000, 3)
        assert g.digits_for(206 * 1000 + 318) == (2, 0, 6, 3, 1, 8)

    @given(st.integers(1, 10**9))
    def test_invariants(self, n):
        g = geometry(n)
        # width is the exact ceiling of sqrt(n): (w-1)^2 < n <= w^2
        assert (g.width - 1) ** 2 < n <= g.width**2
        h = height(g)
        assert (h - 1) * g.width < n <= h * g.width
        assert g.width * h >= n == g.total_samples
        assert h <= g.width
        assert g.digit_width == max(1, len(str(max(g.width, h) - 1)))


class TestCoordinates:
    def test_origin(self):
        g = geometry(1000)
        assert g.digits_for(0) == (0, 0, 0, 0)
        assert g.index_from_digits([0, 0, 0, 0]) == 0

    def test_row_major(self):
        g = geometry(1000)
        assert g.digits_for(65) == (0, 2, 0, 1)  # 65 = 2*32 + 1
        assert g.index_from_digits([0, 2, 0, 1]) == 65

    def test_out_of_range(self):
        g = geometry(1000)  # 32 x 32 grid, last row holds 8 samples
        with pytest.raises(CoordinateOutOfRangeError):
            g.index_from_digits([3, 2, 0, 0])  # row 32
        with pytest.raises(CoordinateOutOfRangeError):
            g.index_from_digits([0, 0, 3, 2])  # column 32
        with pytest.raises(CoordinateOutOfRangeError):
            g.index_from_digits([3, 1, 0, 8])  # (31, 8): 31*32+8 = 1000, one past the end

    @given(st.integers(1, 10**7), st.data())
    def test_bijection(self, n, data):
        # from the grid side: every on-grid (x, y) names one sample, and
        # that sample's digits spell (x, y) back
        g = geometry(n)
        x = data.draw(st.integers(0, height(g) - 1))
        y = data.draw(st.integers(0, g.width - 1 if x < height(g) - 1 else (n - 1) % g.width))
        d = g.digit_width
        digits = tuple(int(c) for c in f"{x:0{d}d}{y:0{d}d}")
        assert g.index_from_digits(digits) == x * g.width + y < n
        assert g.digits_for(x * g.width + y) == digits

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 99, 100, 101, 999])
    def test_every_digit_string(self, n):
        # each of the 10^(2d) digit strings names the sample whose row-major
        # (x, y) it spells, or no sample at all
        g = geometry(n)
        d = g.digit_width
        on_grid = {f"{i // g.width:0{d}d}{i % g.width:0{d}d}": i for i in range(n)}
        for value in range(10 ** (2 * d)):
            text = f"{value:0{2 * d}d}"
            digits = [int(c) for c in text]
            if text in on_grid:
                assert g.index_from_digits(digits) == on_grid[text]
            else:
                with pytest.raises(CoordinateOutOfRangeError):
                    g.index_from_digits(digits)

    def test_digits_zero_padded(self):
        g = geometry(1_000_000)
        assert g.digits_for(15) == (0, 0, 0, 0, 1, 5)

    @given(st.integers(1, 10**7), st.data())
    def test_digit_round_trip(self, n, data):
        g = geometry(n)
        i = data.draw(st.integers(0, n - 1))
        digits = g.digits_for(i)
        assert len(digits) == 2 * g.digit_width
        assert g.index_from_digits(digits) == i

    @given(st.integers(1, 10**8), st.data())
    def test_digits_match_string_oracle(self, n, data):
        g = geometry(n)
        i = data.draw(st.integers(0, n - 1))
        x, y = divmod(i, g.width)
        d = g.digit_width
        assert g.digits_for(i) == tuple(int(c) for c in f"{x:0{d}d}{y:0{d}d}")

    def test_digit_table_is_per_coordinate(self):
        # one entry per coordinate value, not per sample
        g = geometry(5_292_000)
        g.digits_for(0)
        assert len(g._coord_digits) == g.width == 2301

    def test_digits_off_grid(self):
        g = geometry(1000)
        with pytest.raises(CoordinateOutOfRangeError):
            g.index_from_digits([9, 9, 9, 9])
        with pytest.raises(CoordinateOutOfRangeError):
            g.index_from_digits([3, 1, 0, 8])  # (31, 8) -> index 1000


class TestSelection:
    def test_empty_selection(self):
        assert select_samples(10, 0, seed=1) == []

    def test_full_selection_is_permutation(self):
        picked = select_samples(257, 257, seed=99)
        assert sorted(picked) == list(range(257))

    def test_deterministic_for_fixed_seed(self):
        a = select_samples(100, 10, seed=42)
        b = select_samples(100, 10, seed=42)
        assert a == b

    def test_seed_changes_selection(self):
        runs = {tuple(select_samples(1000, 12, seed=s)) for s in range(8)}
        assert len(runs) > 1

    @given(st.integers(1, 5000), st.integers(0, 200), st.integers(0, 2**64 - 1))
    def test_distinct_and_in_range(self, n, m, seed):
        m = min(m, n)
        picked = select_samples(n, m, seed)
        assert len(picked) == m == len(set(picked))
        assert all(0 <= i < n for i in picked)

    def test_capacity_exceeded(self):
        with pytest.raises(CapacityExceededError):
            select_samples(5, 6, seed=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            select_samples(10, -1, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(OutOfRangeError):
            select_samples(100, 5, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        picked = select_samples(100, 5, seed)
        assert len(set(picked)) == 5

    @pytest.mark.parametrize("m", [0, 1, 4095, 4096, 4097, 8193])
    @given(seed=st.integers(0, 2**64 - 1), spare=st.integers(0, 10**9))
    @example(seed=0, spare=0)
    @example(seed=2**64 - 1, spare=0)
    @settings(max_examples=10, deadline=None)
    def test_matches_scalar_oracle(self, m, seed, spare):
        # spare = 0 selects every sample (m = n); the m values cross the
        # edges of the blocks in which the draws are made.
        n = m + spare
        assert select_samples(n, m, seed) == select_samples_oracle(n, m, seed)


def all_selected(*samples):
    """Sample array with every position selected, in order."""
    return np.array(samples, dtype=np.uint16), np.arange(len(samples))


def chunk_values(n):
    return arrays(np.uint8, n, elements=st.integers(0, 7))


# A carrier of 1-64 samples, all selected in a drawn order.
carriers = st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=64).flatmap(
    lambda samples: st.tuples(
        st.just(np.array(samples, dtype=np.uint16)),
        st.permutations(range(len(samples))).map(np.array),
    )
)


class TestEmbedExtract:
    def test_known_sample_value(self):
        # 0b0010111100111111 with chunk 110 keeps the upper thirteen bits
        samples, indices = all_selected(0b0010111100111111)
        embedded = embed_chunks(samples, indices, np.array([0b110], dtype=np.uint8))
        assert embedded.tolist() == [0b0010111100111110]
        assert extract_chunks(embedded, indices).tolist() == [0b110]

    def test_zero_identity(self):
        samples, indices = all_selected(0x0000)
        assert embed_chunks(samples, indices, np.zeros(1, dtype=np.uint8)).tolist() == [0x0000]

    def test_all_low_bits(self):
        assert extract_chunks(*all_selected(0b1010101010101111)).tolist() == [7]

    @given(carriers, st.data())
    def test_matches_bit_twiddling_oracle(self, carrier, data):
        samples, indices = carrier
        chunks = data.draw(chunk_values(len(indices)))
        embedded = embed_chunks(samples, indices, chunks)
        expected = samples.tolist()
        for i, c in zip(indices.tolist(), chunks.tolist()):
            expected[i] = embed_oracle(expected[i], c)
        assert embedded.tolist() == expected

    @given(carriers, st.data())
    def test_extract_of_embed(self, carrier, data):
        samples, indices = carrier
        chunks = data.draw(chunk_values(len(indices)))
        embedded = embed_chunks(samples, indices, chunks)
        assert np.array_equal(extract_chunks(embedded, indices), chunks)
        assert np.array_equal(embedded >> 3, samples >> 3)  # upper thirteen preserved
        assert np.abs(embedded.astype(np.int64) - samples).max() <= 7

    @given(carriers, st.data())
    def test_last_write_wins(self, carrier, data):
        samples, indices = carrier
        first = data.draw(chunk_values(len(indices)))
        second = data.draw(chunk_values(len(indices)))
        twice = embed_chunks(embed_chunks(samples, indices, first), indices, second)
        assert np.array_equal(twice, embed_chunks(samples, indices, second))


class TestVectorized:
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        samples = rng.integers(0, 1 << 16, size=500, dtype=np.uint16)
        indices = np.array(select_samples(500, 80, seed=5))
        chunks = rng.integers(0, 8, size=80, dtype=np.uint8)
        out = embed_chunks(samples, indices, chunks)
        expected = samples.copy()
        for i, c in zip(indices, chunks):
            expected[i] = embed_oracle(int(expected[i]), int(c))
        assert np.array_equal(out, expected)
        assert extract_chunks(out, indices).tolist() == chunks.tolist()

    def test_repeated_position_rejected(self):
        samples = np.arange(100, dtype=np.uint16)
        with pytest.raises(RepeatedPositionError) as err:
            extract_chunks(samples, np.array([5, 17, 3, 40, 17, 5], dtype=np.int64))
        # the first sentence that repeats an earlier one, and that earlier one
        assert (err.value.first, err.value.second, err.value.index) == (1, 4, 17)
        assert "sentences 1 and 4" in str(err.value)
        assert isinstance(err.value, ExtractionError)

    def test_distinct_positions_accepted_in_any_order(self):
        samples = np.arange(100, dtype=np.uint16)
        indices = np.array([99, 0, 42, 7], dtype=np.int64)
        assert extract_chunks(samples, indices).tolist() == [99 & 7, 0, 42 & 7, 7]

    def test_untouched_positions_identical(self):
        rng = np.random.default_rng(12)
        samples = rng.integers(0, 1 << 16, size=300, dtype=np.uint16)
        indices = np.array(select_samples(300, 40, seed=6))
        out = embed_chunks(samples, indices, np.zeros(40, dtype=np.uint8))
        mask = np.ones(300, dtype=bool)
        mask[indices] = False
        assert np.array_equal(out[mask], samples[mask])
