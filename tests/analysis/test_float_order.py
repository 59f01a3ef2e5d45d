"""Canary: the numpy float-order assumptions the batched stage reduction rests on.

:func:`repro.analysis.rcnetwork.lay_out_stages` and
:func:`repro.analysis.arnoldi.reduce_stage_batch` reproduce the per-stage
network construction and reduction bit for bit only because numpy adds in
a fixed order in four places.  Each test pins one of them on inputs where another order
would round differently, so a numpy build that changes one fails here, by
name, instead of as a reference-record mismatch far downstream.
"""

import numpy as np

# 1.0 + 1e-16 + 1e-16 is 1.0 added left to right, 1.0000000000000002 if the
# two small terms meet first.
BIG, SMALL = 1.0, 1e-16
ROUNDS_DIFFERENTLY = (BIG + SMALL) + SMALL != BIG + (SMALL + SMALL)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_inputs_are_order_sensitive():
    assert ROUNDS_DIFFERENTLY


def test_add_at_applies_repeated_indices_in_index_order():
    # The wire capacitance of a node: its own half segment, then its child
    # segments' halves in creation order.
    target = np.array([BIG, 0.0])
    np.add.at(target, np.array([0, 0, 1]), np.array([SMALL, SMALL, 2.0]))
    assert target[0] == (BIG + SMALL) + SMALL, (
        "np.add.at no longer accumulates repeated indices in index order"
    )
    rng = np.random.default_rng(7)
    for _ in range(50):
        values = rng.random(64) * 10.0 ** rng.integers(-16, 3, 64)
        index = rng.integers(0, 8, 64)
        start = rng.random(8)
        fast = start.copy()
        np.add.at(fast, index, values)
        slow = start.copy()
        for position, value in zip(index.tolist(), values.tolist()):
            slow[position] += value
        assert bits(fast) == bits(slow), "np.add.at is not a sequential scatter-add"


def test_row_wise_cumsum_equals_the_one_dimensional_cumsum():
    rng = np.random.default_rng(11)
    rows = rng.random((6, 40)) * 10.0 ** rng.integers(-16, 3, (6, 40))
    rows[:, 25:] = 0.0  # padding after a row's end
    accumulated = np.add.accumulate(rows, axis=1)
    out = np.zeros((6, 41))
    np.add.accumulate(rows, axis=1, out=out[:, 1:])
    for row, total, written in zip(rows, accumulated, out[:, 1:]):
        assert bits(total) == bits(np.cumsum(row)), (
            "a row-wise cumulative sum differs from the row's own np.cumsum"
        )
        assert bits(written) == bits(total), "cumulative sum into an out= view differs"
        assert bits(total[:25]) == bits(np.cumsum(row[:25])), (
            "padding after a row's end changed its cumulative sums"
        )
    assert np.add.accumulate(np.array([[BIG, SMALL, SMALL]]), axis=1)[0, -1] == BIG


def test_row_slice_sum_equals_the_one_dimensional_sum():
    rng = np.random.default_rng(13)
    for size in (1, 2, 7, 8, 9, 17, 64, 130, 300):
        block = rng.random((3, 320)) * 10.0 ** rng.integers(-16, 3, (3, 320))
        for row in block:
            alone = np.array(row[:size])
            assert bits(np.add.reduce(row[:size])) == bits(alone.sum()), (
                f"a row slice's sum differs from the 1-D sum at n={size}"
            )


def test_bincount_adds_weights_in_input_order():
    weights = np.array([BIG, SMALL, SMALL, 3.0])
    bins = np.array([2, 2, 2, 0])
    counted = np.bincount(bins, weights=weights, minlength=4)
    assert counted[2] == (BIG + SMALL) + SMALL, (
        "np.bincount no longer adds weights in input order"
    )
    rng = np.random.default_rng(17)
    for _ in range(50):
        values = rng.random(64) * 10.0 ** rng.integers(-16, 3, 64)
        index = rng.integers(0, 9, 64)
        slow = np.zeros(10)
        for position, value in zip(index.tolist(), values.tolist()):
            slow[position] += value
        assert bits(np.bincount(index, weights=values, minlength=10)) == bits(slow), (
            "np.bincount is not a sequential weighted count"
        )
