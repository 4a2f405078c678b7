import pytest

from e2ebench.clock import REFERENCE_S, scale
from e2ebench.run import MIN_OPS
from e2ebench.stats import MIN_BEYOND, percentile


def test_p99_needs_ten_samples_beyond_it_which_every_run_has():
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(range(MIN_OPS - 1), 99)
    assert percentile(range(MIN_OPS), 99) == MIN_OPS - 11


def test_median_and_refusals():
    assert percentile(list(range(1, 22)), 50) == 11
    with pytest.raises(ValueError):
        percentile(range(2 * MIN_BEYOND - 1), 50)
    with pytest.raises(ValueError):
        percentile(range(100), 100)


def test_scaling_follows_the_reference_speed():
    # The machine runs at half speed for the second half of the run.
    samples = [(i, REFERENCE_S) for i in range(0, 50, 5)]
    samples += [(i, 2 * REFERENCE_S) for i in range(50, 101, 5)]
    latencies = [0.002] * 50 + [0.004] * 50
    scaled = scale(latencies, samples)
    assert scaled[:40] == pytest.approx([0.002] * 40)
    assert scaled[-40:] == pytest.approx([0.002] * 40)
