import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flattrack.orderstats import median, quantile
import oracles

# Both zeros, small integers (ties) and magnitudes from 1e-300 to 1e300.
_VALUES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])
           | st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300))


@st.composite
def _samples(draw) -> np.ndarray:
    """1 to 400 values: mostly distinct, drawn from a pool of at most four
    so that most of them tie, or only signed zeros."""
    values = draw(st.sampled_from([
        _VALUES,
        st.sampled_from(draw(st.lists(_VALUES, min_size=1, max_size=4))),
        st.sampled_from([0.0, -0.0])]))
    return np.array(draw(st.lists(values, min_size=1, max_size=400)))


_Q = st.sampled_from([0.0, 0.15, 0.5, 0.95, 1.0]) | st.floats(0.0, 1.0)


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


@settings(max_examples=500, deadline=None)
@given(_samples(), _Q, st.booleans())
def test_order_statistics_equal_numpys_bit_for_bit(x, q, even):
    if x.size > 1 and (x.size % 2 == 0) != even:
        x = x[:-1]
    before = x.tobytes()
    assert _bits(median(x)) == _bits(oracles.median(x))
    assert _bits(quantile(x, q)) == _bits(oracles.quantile(x, q))
    p = 100 * q
    assert _bits(quantile(x, p / 100)) == _bits(oracles.percentile(x, p))
    # time_stages' p95, as np.percentile(row, 95) gave it.
    assert _bits(quantile(x, 0.95)) == _bits(oracles.percentile(x, 95))
    assert x.tobytes() == before


def test_order_statistics_of_signed_zeros_and_ties():
    # A -0.0 median comes out as 0.0 (numpy's mean). A quantile keeps the
    # sign of the zeros it reads, and which zero lands where depends on every
    # position partitioned: the 0.95 quantile of the first is -0.0, as numpy
    # gives it, only when positions 0 and -1 are partitioned too.
    for x in ([-0.0, 0.0, 0.0, -0.0, -0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0],
              [-0.0] * 7 + [0.0] * 6, [3.0, 1.0, 3.0, 1.0], [5.0]):
        for q in (0.0, 0.15, 0.5, 0.95, 1.0):
            assert _bits(quantile(x, q)) == _bits(oracles.quantile(x, q))
        assert _bits(median(x)) == _bits(oracles.median(x))
    assert _bits(median([-0.0])) == _bits(0.0)
    assert _bits(quantile([-0.0, 0.0, 0.0, -0.0, -0.0], 0.95)) == _bits(-0.0)
    assert median([1.0, 4.0]) == 2.5
    assert quantile([0.0, 10.0], 0.15) == 1.5
