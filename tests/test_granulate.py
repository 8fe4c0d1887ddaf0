"""Window granulation: triangular cores and the step-hold channels."""

import numpy as np
import pytest

from chargecast.granulate import Granule, fig_granulate, granule_channels, membership


def test_cores_are_min_median_max_per_window():
    x = np.array([3.0, 1.0, 2.0, 9.0, 7.0, 8.0, 4.0, 6.0, 5.0])
    granules = fig_granulate(x, window=3)
    assert len(granules) == 3
    for g, seg in zip(granules, (x[0:3], x[3:6], x[6:9])):
        assert g.a == float(np.min(seg))
        assert g.m == float(np.median(seg))
        assert g.b == float(np.max(seg))


def test_trailing_remainder_dropped():
    x = np.arange(10, dtype=float)
    granules = fig_granulate(x, window=4)
    assert len(granules) == 2  # last two samples do not fill a window


def test_even_window_median_interpolates():
    x = np.array([1.0, 2.0, 3.0, 10.0])
    g = fig_granulate(x, window=4)[0]
    assert g.m == 2.5


class TestMembership:
    G = Granule(a=1.0, m=3.0, b=7.0)

    def test_peak_at_core(self):
        assert membership(3.0, self.G) == 1.0

    def test_left_slope(self):
        assert membership(2.0, self.G) == 0.5

    def test_right_slope(self):
        assert membership(5.0, self.G) == 0.5

    def test_outside_support_is_zero(self):
        assert membership(0.5, self.G) == 0.0
        assert membership(8.0, self.G) == 0.0

    def test_boundaries(self):
        assert membership(1.0, self.G) == 0.0
        assert membership(7.0, self.G) == 0.0

    def test_degenerate_granule_is_indicator(self):
        g = Granule(a=2.0, m=2.0, b=2.0)
        assert membership(2.0, g) == 1.0
        assert membership(2.0001, g) == 0.0

    def test_fine_grid_stays_in_unit_interval(self):
        xs = np.linspace(-1.0, 9.0, 1000)
        vals = np.array([membership(float(x), self.G) for x in xs])
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        # piecewise-linear agreement on both slopes
        inside_left = (xs > 1.0) & (xs <= 3.0)
        np.testing.assert_allclose(
            vals[inside_left], (xs[inside_left] - 1.0) / 2.0, atol=1e-12
        )
        inside_right = (xs > 3.0) & (xs < 7.0)
        np.testing.assert_allclose(
            vals[inside_right], (7.0 - xs[inside_right]) / 4.0, atol=1e-12
        )


def test_channels_repeat_cores_and_pad_tail():
    x = np.arange(10, dtype=float)
    chan = granule_channels(x, windows=(4,))[4]
    assert chan.shape == (10,)
    g0, g1 = fig_granulate(x, 4)
    np.testing.assert_array_equal(chan[:4], np.full(4, g0.m))
    np.testing.assert_array_equal(chan[4:8], np.full(4, g1.m))
    np.testing.assert_array_equal(chan[8:], np.full(2, g1.m))  # tail holds last core


def test_window_longer_than_series_raises():
    with pytest.raises(ValueError):
        fig_granulate(np.arange(3, dtype=float), window=5)


@pytest.mark.parametrize("t_len", [720, 1001, 2160])
def test_station_columns_match_one_call_per_station(t_len):
    x = np.random.default_rng(5).normal(size=(t_len, 8))
    windows = (1, 2, 3, 24, 168)
    together = granule_channels(x, windows=windows)
    for i in range(x.shape[1]):
        alone = granule_channels(x[:, i], windows=windows)
        for w in windows:
            assert together[w].shape == x.shape
            assert np.array_equal(together[w][:, i], alone[w])
            cores = [g.m for g in fig_granulate(x[:, i], w)]
            assert np.array_equal(alone[w][: len(cores) * w], np.repeat(cores, w))


@pytest.mark.parametrize("window", [0, 11])
def test_channel_window_must_fit_the_series(window):
    with pytest.raises(ValueError, match="window"):
        granule_channels(np.zeros((10, 2)), windows=(window,))
    with pytest.raises(ValueError, match="window"):
        fig_granulate(np.zeros(10), window)
