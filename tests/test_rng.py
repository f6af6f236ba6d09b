import numpy as np
import pytest

from quditcorr.rng import SNAP_GRID, sample_counts, task_rng

# Stacks of distributions: rows at p = 0, 1/2 and 1, rows whose snapped
# levels need the remainder (1/3), and unequal shot counts per row.
STACKS = [
    ([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.3, 0.7]], [5, 1000, 7, 333]),
    ([[1 / 3, 1 / 3, 1 / 3], [0.1, 0.6, 0.3], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]], [300, 1, 50, 64]),
    ([[0.5, 0.5], [0.2, 0.8], [1.0, 0.0], [0.0, 1.0]], 375),
]


@pytest.mark.parametrize("p, shots", STACKS)
def test_a_stacked_draw_equals_drawing_row_by_row(p, shots):
    stacked_rng, rows_rng = task_rng(21, 4), task_rng(21, 4)
    stacked = sample_counts(p, shots, stacked_rng)
    per_row = np.broadcast_to(shots, len(p))
    rows = [sample_counts(row, int(n), rows_rng) for row, n in zip(p, per_row)]
    assert stacked.tolist() == [r.tolist() for r in rows]
    assert stacked.sum(axis=1).tolist() == per_row.tolist()
    # The generator is left where the row-by-row draws leave it.
    assert stacked_rng.random() == rows_rng.random()


class _Recording(np.random.Generator):
    """A generator that keeps the probabilities of its last multinomial call."""

    def multinomial(self, n, pvals, size=None):
        self.pvals = np.asarray(pvals)
        return super().multinomial(n, pvals, size)


def test_each_row_is_snapped_on_its_own():
    # Each row is rounded onto the 2^-30 grid, and its remainder goes to
    # that row's largest level: the last one here, then a tie won by the first.
    rng = _Recording(np.random.Philox(5))
    counts = sample_counts([[1 / 6, 1 / 6, 2 / 3], [1 / 3, 1 / 3, 1 / 3]], [90, 40], rng)
    assert (rng.pvals * SNAP_GRID).tolist() == [
        [178956971, 178956971, 715827882],
        [357913942, 357913941, 357913941],
    ]
    assert counts.sum(axis=1).tolist() == [90, 40]
