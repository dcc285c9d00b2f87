"""The `Population` constructor's shape check, and where
`Population.offer_batches` ends a batch, read off an index array."""

import numpy as np
import pytest

from lsgo_hybrid import population
from lsgo_hybrid.population import Population

# fitness 0..7: row 7 is the worst (rank 0), row r has rank 7 - r
_SIZE = 8


def _batches(reads):
    """The (start, stop) of each batch `offer_batches` forms over `reads`,
    every offer rejected so the ranks stay those of the start."""
    pool = Population(np.zeros((_SIZE, 3)), np.arange(_SIZE, dtype=float))
    spans = []

    def build(start, stop):
        spans.append((start, stop))
        return np.zeros((stop - start, 3))

    pool.offer_batches(np.asarray(reads, dtype=np.intp), build,
                       lambda x: np.full(len(x), 1e9))
    assert np.array_equal(pool.fitness, np.arange(_SIZE))
    return spans


@pytest.fixture(autouse=True)
def batch_of_four(monkeypatch):
    monkeypatch.setattr(population, "BATCH", 4)


@pytest.mark.parametrize("n", [_SIZE - 1, _SIZE + 1])
def test_a_fitness_vector_of_another_length_is_refused(n):
    with pytest.raises(ValueError, match="n fitness values"):
        Population(np.zeros((_SIZE, 3)), np.zeros(n))


def test_reading_the_row_of_rank_k_minus_1_ends_the_batch_before_k():
    reads = np.full((8, 2), -1)
    reads[2] = [6, -1]  # rank 1 at batch position 2: the batch ends before it
    reads[5] = [-1, 4]  # rank 3 at batch position 3 of the next batch: it joins
    assert _batches(reads) == [(0, 2), (2, 6), (6, 8)]
    reads[5] = [-1, 5]  # rank 2 at position 3 ends that batch too
    assert _batches(reads) == [(0, 2), (2, 5), (5, 8)]


def test_minus_one_reads_never_end_a_batch():
    # rows 0..3 have ranks 7..4, at least BATCH, so only -1 could end a batch
    rng = np.random.default_rng(5)
    reads = rng.integers(0, 4, size=(10, 4))
    reads[rng.random((10, 4)) < 0.5] = -1
    reads[3] = -1
    assert _batches(reads) == [(0, 4), (4, 8), (8, 10)]


def test_a_chunk_of_fresh_points_fills_whole_batches():
    assert _batches(np.full((13, 1), -1)) == [(0, 4), (4, 8), (8, 12), (12, 13)]
    assert _batches(np.full((0, 1), -1)) == []
