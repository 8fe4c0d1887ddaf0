import numpy as np
import pytest

from chargecast.domain import (
    SPLIT_RATIOS,
    CalendarFrame,
    SeriesTensor,
    StationGraph,
    Windows,
    make_windows,
    split_dataset,
    split_windows,
)


def hourly(start, n):
    return np.datetime64(start, "h") + np.arange(n).astype("timedelta64[h]")


class TestSeriesTensor:
    def test_shape_and_axes(self):
        st = SeriesTensor(np.zeros((5, 3, 2)))
        assert (st.T, st.N, st.C) == (5, 3, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            SeriesTensor(np.zeros((5, 3)))

    def test_values_are_read_only(self):
        st = SeriesTensor(np.ones((2, 2, 1)))
        with pytest.raises(ValueError):
            st.values[0, 0, 0] = 9.0

    def test_slice_time(self):
        st = SeriesTensor(np.arange(24).reshape(4, 3, 2).astype(float))
        part = st.slice_time(1, 3)
        assert part.T == 2
        assert np.array_equal(part.values, st.values[1:3])


class TestStationGraph:
    def test_accepts_valid(self):
        adj = np.array([[1, 1], [1, 1]], dtype=float)
        g = StationGraph(("a", "b"), adj)
        assert g.N == 2

    def test_rejects_asymmetric(self):
        adj = np.array([[1, 1], [0, 1]], dtype=float)
        with pytest.raises(ValueError, match="symmetric"):
            StationGraph(("a", "b"), adj)

    def test_rejects_nonbinary(self):
        adj = np.array([[1, 0.5], [0.5, 1]])
        with pytest.raises(ValueError, match="0 or 1"):
            StationGraph(("a", "b"), adj)

    def test_requires_self_loops(self):
        adj = np.array([[0, 1], [1, 0]], dtype=float)
        with pytest.raises(ValueError, match="diagonal"):
            StationGraph(("a", "b"), adj)


class TestCalendarFrame:
    def test_clock_fields(self):
        # 2024-01-01 is a Monday
        cal = CalendarFrame(hourly("2024-01-01T00", 48))
        assert cal.hour_of_day[0] == 0
        assert cal.hour_of_day[25] == 1
        assert cal.day_of_week[0] == 0
        assert cal.day_of_week[24] == 1

    def test_gap_names_the_offending_row(self):
        ts = np.concatenate([hourly("2024-01-01T00", 3), hourly("2024-01-01T04", 2)])
        with pytest.raises(ValueError, match="row 3"):
            CalendarFrame(ts)

    def test_default_holiday_flags_are_zero(self):
        cal = CalendarFrame(hourly("2024-01-01T00", 5))
        assert cal.holiday_flag.sum() == 0

    def test_rejects_misaligned_flags(self):
        with pytest.raises(ValueError, match="holiday_flag"):
            CalendarFrame(hourly("2024-01-01T00", 5), holiday_flag=[1, 0])

    def test_known_weekday(self):
        # 1970-01-01 was a Thursday
        cal = CalendarFrame(hourly("1970-01-01T00", 1))
        assert cal.day_of_week[0] == 3


class TestSplitDataset:
    def test_flooring_remainder_goes_to_train(self):
        st = SeriesTensor(np.zeros((103, 2, 1)))
        train, valid, test = split_dataset(st, (0.8, 0.1, 0.1))
        assert (train.T, valid.T, test.T) == (83, 10, 10)

    def test_chronological_order(self):
        vals = np.arange(10, dtype=float).reshape(10, 1, 1)
        train, valid, test = split_dataset(SeriesTensor(vals), (0.6, 0.2, 0.2))
        assert train.values[-1, 0, 0] < valid.values[0, 0, 0] < test.values[0, 0, 0]

    def test_rejects_bad_ratio_sum(self):
        st = SeriesTensor(np.zeros((10, 1, 1)))
        with pytest.raises(ValueError, match="sum to 1"):
            split_dataset(st, (0.8, 0.1, 0.2))

    def test_min_len_enforced(self):
        st = SeriesTensor(np.zeros((10, 1, 1)))
        with pytest.raises(ValueError, match="fewer than"):
            split_dataset(st, (0.8, 0.1, 0.1), min_len=5)


class TestSplitWindows:
    @pytest.mark.parametrize("t_len, p, s", [(103, 4, 2), (240, 8, 3), (57, 3, 1), (720, 12, 3)])
    def test_equals_split_slice_and_window(self, t_len, p, s):
        rng = np.random.default_rng(t_len)
        series = SeriesTensor(rng.normal(size=(t_len, 3, 2)))
        calendar = CalendarFrame(hourly("2024-01-01T05", t_len), rng.integers(0, 2, t_len))
        want, start = [], 0
        for part in split_dataset(series, (0.8, 0.1, 0.1), min_len=p + s):
            want.append(make_windows(part, calendar.slice_time(start, start + part.T), p, s))
            start += part.T
        got = split_windows(series, calendar, p, s)
        assert SPLIT_RATIOS == (0.8, 0.1, 0.1)
        assert len(got) == 3
        for g, w in zip(got, want):
            for field in ("history", "target", "hours", "dows"):
                np.testing.assert_array_equal(getattr(g, field), getattr(w, field), strict=True)

    @pytest.mark.parametrize(
        "t_len, p, s, message",
        [(100, 8, 3, "valid split has 10 steps, fewer than the required 11"),
         (10, 6, 3, "train split has 8 steps, fewer than the required 9")],
    )
    def test_names_the_first_short_split(self, t_len, p, s, message):
        series = SeriesTensor(np.zeros((t_len, 1, 1)))
        with pytest.raises(ValueError, match=message):
            split_windows(series, CalendarFrame(hourly("2024-01-01T00", t_len)), p, s)


class TestMakeWindows:
    def test_count_and_contents(self):
        t_len, p, s = 12, 4, 2
        vals = np.arange(t_len * 2 * 3, dtype=float).reshape(t_len, 2, 3)
        cal = CalendarFrame(hourly("2024-01-01T00", t_len))
        windows = make_windows(SeriesTensor(vals), cal, p, s)
        assert len(windows) == t_len - p - s + 1
        assert np.array_equal(windows.history[3], vals[3:7])
        assert np.array_equal(windows.target[3], vals[7:9, :, 0:1])

    def test_target_is_first_channel_only(self):
        vals = np.random.default_rng(0).normal(size=(10, 2, 4))
        cal = CalendarFrame(hourly("2024-01-01T00", 10))
        windows = make_windows(SeriesTensor(vals), cal, 3, 2)
        assert windows.target.shape == (6, 2, 2, 1)
        assert np.array_equal(windows.target[0, ..., 0], vals[3:5, :, 0])

    def test_history_and_target_are_read_only_views(self):
        series = SeriesTensor(np.random.default_rng(1).normal(size=(20, 3, 2)))
        windows = make_windows(series, CalendarFrame(hourly("2024-01-01T00", 20)), 5, 3)
        assert windows.history.shape == (13, 5, 3, 2)
        for field in (windows.history, windows.target):
            assert np.shares_memory(field, series.values)
            assert not field.flags.writeable

    def test_anchor_fields_track_last_history_step(self):
        cal = CalendarFrame(hourly("2024-01-01T00", 30))
        vals = np.zeros((30, 1, 1))
        windows = make_windows(SeriesTensor(vals), cal, 5, 1)
        assert len(windows.hours) == len(windows.dows) == 25
        for i in range(len(windows)):
            assert windows.hours[i] == cal.hour_of_day[i + 4]
            assert windows.dows[i] == cal.day_of_week[i + 4]

    def test_take_selects_the_same_windows_from_every_field(self):
        vals = np.arange(40, dtype=float).reshape(20, 2, 1)
        windows = make_windows(SeriesTensor(vals), CalendarFrame(hourly("2024-01-01T05", 20)), 4, 2)
        hist, target, hours, dows = windows.take(np.array([7, 2]))
        assert np.array_equal(hist, np.stack([vals[7:11], vals[2:6]]))
        assert np.array_equal(target, np.stack([vals[11:13], vals[6:8]]))
        assert hours.tolist() == [(5 + 10) % 24, (5 + 5) % 24]
        assert dows.tolist() == [windows.dows[7], windows.dows[2]]

    def test_fields_must_share_leading_axis(self):
        with pytest.raises(ValueError, match="leading axis"):
            Windows(
                history=np.zeros((3, 4, 2, 1)),
                target=np.zeros((3, 2, 2, 1)),
                hours=np.zeros(2, dtype=int),
                dows=np.zeros(3, dtype=int),
            )

    def test_too_short_series_raises(self):
        cal = CalendarFrame(hourly("2024-01-01T00", 4))
        with pytest.raises(ValueError, match="shorter"):
            make_windows(SeriesTensor(np.zeros((4, 1, 1))), cal, 4, 2)
