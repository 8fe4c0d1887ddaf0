"""Tests for CSV/JSON loading and writing, and the npz container."""

import re

import numpy as np
import pytest

from chargecast.domain import CalendarFrame
from chargecast.errors import DataError
from chargecast.io import (
    apply_holidays,
    load_adjacency_csv,
    load_charging_csv,
    load_holidays,
    read_npz,
    write_adjacency_csv,
    write_charging_csv,
    write_epoch_log,
    write_holidays,
    write_metrics_json,
    write_npz,
    write_predictions_csv,
)


def hourly_stamps(count, start="2024-03-01T00"):
    return np.datetime64(start) + np.arange(count).astype("timedelta64[h]")


class TestChargingCsv:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(30, 3)) * 1e3 + 0.123456789012345
        ids = ("alpha", "beta", "gamma")
        path = tmp_path / "series.csv"
        write_charging_csv(path, hourly_stamps(30), ids, values)
        series, calendar, loaded_ids = load_charging_csv(path)
        assert loaded_ids == ids
        assert series.values.shape == (30, 3, 1)
        assert np.array_equal(series.values[:, :, 0], values)
        assert np.array_equal(calendar.timestamps, hourly_stamps(30))

    def test_missing_value_names_row_and_station(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "timestamp,a,b\n2024-03-01T00,1.0,2.0\n2024-03-01T01,,2.0\n"
        )
        with pytest.raises(DataError, match=r"row 3.*missing value for a"):
            load_charging_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,a\n2024-03-01T00,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_charging_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_station(self, tmp_path, cell):
        path = tmp_path / "series.csv"
        path.write_text(f"timestamp,st00,st01\n2024-03-01T00,1.0,{cell}\n2024-03-01T01,{cell},2.0\n")
        with pytest.raises(DataError) as info:
            load_charging_csv(path)
        assert str(info.value) == f"{path}: row 2: non-finite value for st01"

    def test_hour_gap_points_at_the_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "timestamp,a\n2024-03-01T00,1.0\n2024-03-01T01,1.0\n2024-03-01T03,1.0\n"
        )
        with pytest.raises(DataError, match="row 4"):
            load_charging_csv(path)

    def test_duplicate_stamp(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "timestamp,a\n2024-03-01T00,1.0\n2024-03-01T00,1.0\n"
        )
        with pytest.raises(DataError, match="duplicates"):
            load_charging_csv(path)

    @pytest.mark.parametrize("stamp", ["2024-03-01T01:30", "2024-03-01T01:00:01", "2024-03-01T01:00:00.5"])
    def test_stamp_off_the_hour_names_row_and_text(self, tmp_path, stamp):
        path = tmp_path / "series.csv"
        path.write_text(f"timestamp,a\n2024-03-01T00,1.0\n{stamp},1.0\n2024-03-01T02,1.0\n")
        with pytest.raises(DataError) as info:
            load_charging_csv(path)
        assert str(info.value) == f"{path}: row 3: timestamp {stamp!r} is not on the hour"

    def test_stamps_on_the_hour_load_at_any_precision(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,a\n2024-03-01,1.0\n2024-03-01T01:00,1.0\n2024-03-01 02:00:00,1.0\n")
        _, calendar, _ = load_charging_csv(path)
        assert np.array_equal(calendar.timestamps, hourly_stamps(3))

    @pytest.mark.parametrize(
        "first",
        ["2024-03-01T08:00+08:00", "2024-03-01T08+0800", "2024-03-01T00:30+05:30", "2024-03-01T03-05", "2024-03-01T00Z"],
    )
    def test_stamp_with_a_time_zone_names_row_and_text(self, tmp_path, first):
        # numpy would move each to UTC, shifting hour of day, weekday and holidays by the offset
        path = tmp_path / "series.csv"
        path.write_text(f"timestamp,a\n{first},1.0\n")
        with pytest.raises(DataError) as info:
            load_charging_csv(path)
        assert str(info.value) == f"{path}: row 2: timestamp {first!r} carries a time zone; give wall-clock hours"

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_charging_csv(plain, hourly_stamps(3), ("a", "b"), np.arange(6.0).reshape(3, 2))
        marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
        series, calendar, ids = load_charging_csv(marked)
        want_series, want_calendar, want_ids = load_charging_csv(plain)
        assert ids == want_ids
        np.testing.assert_array_equal(series.values, want_series.values)
        np.testing.assert_array_equal(calendar.timestamps, want_calendar.timestamps)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,a,b\n2024-03-01T00,1.0\n")
        with pytest.raises(DataError, match="row 2 has 2 cells"):
            load_charging_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,a\n")
        with pytest.raises(DataError, match="at least one data row"):
            load_charging_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_charging_csv(tmp_path / "absent.csv")

    def test_duplicate_station_id_is_named(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,a,a,b\n2024-03-01T00,1,2,3\n")
        with pytest.raises(DataError, match="station id 'a' repeats in the header"):
            load_charging_csv(path)


class TestAdjacencyCsv:
    def test_roundtrip(self, tmp_path):
        ids = ("s0", "s1", "s2")
        adj = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        path = tmp_path / "adjacency.csv"
        write_adjacency_csv(path, ids, adj)
        graph = load_adjacency_csv(path, ids)
        assert graph.node_ids == ids
        assert np.array_equal(graph.adjacency, adj)

    def test_rows_realign_to_series_order(self, tmp_path):
        path = tmp_path / "adjacency.csv"
        path.write_text(
            "station,s1,s0\n"
            "s1,1,0\n"
            "s0,0,1\n"
        )
        graph = load_adjacency_csv(path, ("s0", "s1"))
        assert np.array_equal(graph.adjacency, np.eye(2))

    def test_id_mismatch_lists_the_strays(self, tmp_path):
        path = tmp_path / "adjacency.csv"
        write_adjacency_csv(path, ("x", "y"), np.eye(2))
        with pytest.raises(DataError, match="do not match the series ids"):
            load_adjacency_csv(path, ("s0", "s1"))

    def test_asymmetry_names_both_stations(self, tmp_path):
        path = tmp_path / "adjacency.csv"
        path.write_text(
            "station,s0,s1\n"
            "s0,1,1\n"
            "s1,0,1\n"
        )
        with pytest.raises(DataError, match=r"\[s0\]\[s1\]"):
            load_adjacency_csv(path, ("s0", "s1"))

    @pytest.mark.parametrize(
        "text, where",
        [
            ("station,a,a,b\na,1,1,0\na,1,1,0\nb,0,0,1\n", "header"),
            ("station,a,b\na,1,0\na,0,1\n", "row ids"),
        ],
    )
    def test_duplicate_station_id_is_named(self, tmp_path, text, where):
        path = tmp_path / "adjacency.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"station id 'a' repeats in the {where}"):
            load_adjacency_csv(path, ("a", "b"))

    def test_non_binary_entry(self, tmp_path):
        path = tmp_path / "adjacency.csv"
        path.write_text("station,s0,s1\ns0,1,0.5\ns1,0.5,1\n")
        with pytest.raises(DataError, match="not 0 or 1"):
            load_adjacency_csv(path, ("s0", "s1"))

    def test_missing_diagonal_warns_and_fixes(self, tmp_path):
        path = tmp_path / "adjacency.csv"
        path.write_text("station,s0,s1\ns0,0,1\ns1,1,0\n")
        with pytest.warns(UserWarning, match="diagonal"):
            graph = load_adjacency_csv(path, ("s0", "s1"))
        assert np.array_equal(np.diag(graph.adjacency), np.ones(2))


class TestHolidays:
    def test_roundtrip_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "holidays.txt"
        days = np.array(["2024-01-01", "2024-05-01"], dtype="datetime64[D]")
        write_holidays(path, days)
        text = path.read_text()
        path.write_text("# national holidays\n\n" + text)
        loaded = load_holidays(path)
        assert np.array_equal(loaded, days)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("\ufeff2024-01-03\n2024-05-01\n", encoding="utf-8")
        assert np.array_equal(load_holidays(path), np.array(["2024-01-03", "2024-05-01"], dtype="datetime64[D]"))

    def test_bad_date_names_the_line(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("2024-01-01\nnot-a-date\n")
        with pytest.raises(DataError, match="line 2"):
            load_holidays(path)

    def test_apply_holidays_flags_whole_days(self):
        calendar = CalendarFrame(hourly_stamps(72, start="2024-01-01T00"))
        flagged = apply_holidays(calendar, np.array(["2024-01-02"], dtype="datetime64[D]"))
        assert flagged.holiday_flag[:24].sum() == 0
        assert flagged.holiday_flag[24:48].sum() == 24
        assert flagged.holiday_flag[48:].sum() == 0


class TestResultWriters:
    def test_predictions_long_format(self, tmp_path):
        path = tmp_path / "predictions.csv"
        preds = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2, 1)
        truths = preds + 0.5
        write_predictions_csv(path, hourly_stamps(2), ("a", "b"), preds, truths)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "window_start,step,station,y_true,y_pred"
        assert len(lines) == 1 + 2 * 2 * 2
        assert lines[1].split(",") == ["2024-03-01T00", "1", "a", "0.5", "0.0"]

    def test_epoch_log_tab_separated(self, tmp_path):
        path = tmp_path / "epochs.tsv"
        write_epoch_log(path, [(1, 0.5, 0.25), (2, 0.25, 0.125)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "1\t0.5\t0.25"
        assert lines[1] == "2\t0.25\t0.125"

    def test_metrics_json_bytes_are_deterministic(self, tmp_path):
        payload = {"b": 1.5, "a": {"z": [1, 2], "k": None}}
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        write_metrics_json(p1, payload)
        write_metrics_json(p2, {"a": {"k": None, "z": [1, 2]}, "b": 1.5})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")


def _raw_npz(meta_bytes):
    """Writer of an npz whose meta_json holds meta_bytes as they are."""
    return lambda fh: np.savez(fh, values=np.zeros(3), meta_json=np.frombuffer(meta_bytes, np.uint8))


def _truncated(fh):
    np.savez(fh, values=np.arange(1000.0), meta_json=np.frombuffer(b"{}", np.uint8))
    fh.truncate(fh.tell() // 2)


class TestNpzContainer:
    def test_round_trip_keeps_meta_order_dtype_shape_and_values(self, tmp_path):
        meta = {"key": "abc", "names": ["x", "y"], "nested": {"n": 3, "flag": True, "none": None}, "f": 0.1}
        arrays = {
            "stack": np.random.default_rng(0).normal(size=(4, 3, 2)),
            "codes": np.arange(7, dtype=np.uint8),
            "scalar": np.int64(-5),
            "mask": np.array([True, False]),
            "empty": np.zeros((0, 2), dtype=np.float32),
        }
        path = tmp_path / "artifact.ckpt"
        write_npz(str(path), meta, arrays)
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.ckpt"]  # no .npz appended
        got_meta, got = read_npz(str(path))
        assert got_meta == meta
        assert list(got) == list(arrays)
        for name, want in arrays.items():
            want = np.asarray(want)
            assert got[name].dtype == want.dtype and got[name].shape == want.shape, name
            assert np.array_equal(got[name], want), name

    @pytest.mark.parametrize(
        "write, text",
        [
            (_truncated, "cannot read artifact"),
            (lambda fh: fh.write(b"these bytes are no zip archive"), "cannot read artifact"),
            (lambda fh: np.save(fh, np.zeros(3)), "is not a chargecast artifact: it holds a bare array"),
            (lambda fh: np.savez(fh, values=np.zeros(3)), "is not a chargecast artifact: it has no meta_json"),
            (_raw_npz(b'{"key": '), "malformed artifact"),
            (_raw_npz(b"\xff\xfe"), "malformed artifact"),
            (_raw_npz(b'{"version": NaN}'), "malformed artifact"),
        ],
        ids=["truncated", "not_zip", "bare_npy", "no_meta_json", "meta_not_json", "meta_not_utf8", "meta_nan"],
    )
    def test_defect_is_a_data_error_naming_the_path(self, tmp_path, write, text):
        path = tmp_path / "artifact.npz"
        with open(path, "wb") as fh:
            write(fh)
        with pytest.raises(DataError, match=re.escape(str(path))) as info:
            read_npz(str(path), "artifact")
        assert text in str(info.value)

    def test_missing_file_is_a_data_error_naming_the_path(self, tmp_path):
        path = tmp_path / "absent.npz"
        with pytest.raises(DataError, match=f"cannot read file {re.escape(str(path))}"):
            read_npz(str(path))
