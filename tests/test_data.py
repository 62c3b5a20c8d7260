"""Data pipeline tests: synthesis, CSV ingestion, scaling, windowing, metrics."""

import math

import numpy as np
import pytest

from localattn.data import (
    RawSeries,
    Scaler,
    baseline_metrics,
    load_csv,
    mae,
    mse,
    repeat_last_baseline,
    slice_windows,
    standardize_split_window,
    synth_series,
    write_manifest,
)
from localattn.tensor import DimensionError, Tensor

SINES_JOINT_PERIOD = 23 * 37 * 53  # pairwise coprime, so the lcm is the product


class TestRawSeries:
    def test_accessors(self):
        raw = RawSeries(values=np.zeros((5, 2)), feature_names=("a", "b"))
        assert raw.length == 5 and raw.d == 2

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            RawSeries(values=np.zeros(5), feature_names=("a",))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError):
            RawSeries(values=np.zeros((5, 2)), feature_names=("a",))


class TestSynthSeries:
    def test_seed_determinism_bitwise(self):
        a = synth_series("sines", 200, d=3, seed=11)
        b = synth_series("sines", 200, d=3, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        a = synth_series("sines", 200, d=2, seed=0)
        b = synth_series("sines", 200, d=2, seed=1)
        assert not np.array_equal(a.values, b.values)

    def test_shape_and_names(self):
        raw = synth_series("ar_noise", 50, d=4, seed=0)
        assert raw.values.shape == (50, 4)
        assert raw.feature_names == ("f0", "f1", "f2", "f3")

    def test_single_sample(self):
        raw = synth_series("sines", 1, d=1, seed=0)
        assert raw.values.shape == (1, 1)

    def test_sines_noiseless_periodicity(self):
        length = SINES_JOINT_PERIOD + 10
        raw = synth_series("sines", length, d=1, seed=3, noise=0.0)
        head = raw.values[:10]
        wrapped = raw.values[SINES_JOINT_PERIOD : SINES_JOINT_PERIOD + 10]
        assert np.allclose(head, wrapped, atol=1e-6)

    def test_sines_not_periodic_below_joint_period(self):
        # single-period wraps (23) must not repeat: the other two sinusoids move
        raw = synth_series("sines", 200, d=1, seed=3, noise=0.0)
        assert not np.allclose(raw.values[:50], raw.values[23:73], atol=1e-3)

    def test_trend_season_drifts(self):
        raw = synth_series("trend_season", 2000, d=1, seed=5, noise=0.0)
        slope = np.polyfit(np.arange(2000), raw.values[:, 0], 1)[0]
        assert slope > 5e-4

    def test_ar_noise_is_autocorrelated(self):
        raw = synth_series("ar_noise", 4000, d=1, seed=9)
        x = raw.values[:, 0]
        lag1 = np.corrcoef(x[1:], x[:-1])[0, 1]
        assert lag1 > 0.5

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            synth_series("square", 10)

    @pytest.mark.parametrize("kwargs", [dict(length=0), dict(length=5, d=0)])
    def test_rejects_bad_extents(self, kwargs):
        with pytest.raises(ValueError):
            synth_series("sines", **kwargs)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(text)
        return str(path)

    def test_plain_numeric_file(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        raw = load_csv(path)
        assert raw.values.shape == (3, 2)
        assert raw.feature_names == ("a", "b")
        assert raw.dropped_rows == ()
        assert np.array_equal(raw.values, [[1, 2], [3, 4], [5, 6]])

    def test_timestamp_column_excluded(self, tmp_path):
        path = self.write(tmp_path, "time,a,b\n2021-01-01,1,2\n2021-01-02,3,4\n")
        raw = load_csv(path)
        assert raw.feature_names == ("a", "b")
        assert raw.values.shape == (2, 2)

    def test_numeric_first_column_is_a_feature(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1.5,2\n2.5,3\n")
        raw = load_csv(path)
        assert raw.feature_names == ("a", "b")
        assert raw.values.shape == (2, 2)

    def test_nan_row_dropped_with_line_number(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,NaN\n5,6\n")
        raw = load_csv(path)
        assert raw.values.shape == (2, 2)
        assert len(raw.dropped_rows) == 1
        line, reason = raw.dropped_rows[0]
        assert line == 3
        assert "b" in reason and "non-finite" in reason

    def test_unparseable_cell_dropped(self, tmp_path):
        path = self.write(tmp_path, "a\n1\nbroken\n3\n")
        raw = load_csv(path)
        assert np.array_equal(raw.values, [[1], [3]])
        assert raw.dropped_rows[0][0] == 3

    def test_infinite_cell_dropped(self, tmp_path):
        path = self.write(tmp_path, "a\n1\nInf\n3\n")
        raw = load_csv(path)
        assert raw.values.shape == (2, 1)

    def test_ragged_row_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_csv(self.write(tmp_path, ""))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(self.write(tmp_path, "a,b\n"))

    def test_no_numeric_columns_rejected(self, tmp_path):
        path = self.write(tmp_path, "t\n2020-01-01\n")
        with pytest.raises(ValueError, match="no numeric columns"):
            load_csv(path)

    def test_all_rows_dropped_rejected(self, tmp_path):
        # first column numeric so it is kept as a feature, second always bad
        path = self.write(tmp_path, "a,b\n1,x\n2,y\n")
        with pytest.raises(ValueError, match="every data row"):
            load_csv(path)


class TestScaler:
    def test_round_trip(self):
        values = np.random.default_rng(0).normal(3.0, 2.5, size=(100, 3))
        scaler = Scaler.fit(values)
        back = scaler.inverse(scaler.transform(values))
        assert np.max(np.abs(back - values)) <= 1e-12

    def test_transformed_statistics(self):
        values = np.random.default_rng(1).normal(-1.0, 4.0, size=(500, 2))
        z = Scaler.fit(values).transform(values)
        assert np.max(np.abs(z.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) <= 1e-9

    def test_zero_variance_rejected_with_index(self):
        values = np.random.default_rng(2).normal(size=(50, 3))
        values[:, 1] = 7.0
        with pytest.raises(ValueError, match="feature 1"):
            Scaler.fit(values)


class TestSliceWindows:
    def test_count_formula(self):
        values = np.arange(20, dtype=np.float64)[:, np.newaxis]
        for hi, n, m, stride in [(10, 3, 2, 1), (10, 3, 2, 2), (20, 4, 4, 3), (20, 8, 8, 5)]:
            wins = slice_windows(values, 0, hi, n, m, stride)
            assert len(wins) == (hi - n - m) // stride + 1

    def test_too_short_region_yields_nothing(self):
        values = np.zeros((10, 1))
        assert slice_windows(values, 0, 4, 3, 2, 1) == ()

    def test_exact_length_gives_one_window(self):
        values = np.arange(5, dtype=np.float64)[:, np.newaxis]
        wins = slice_windows(values, 0, 5, 3, 2, 1)
        assert len(wins) == 1
        x, y = wins[0]
        assert np.array_equal(x.data[:, 0], [0, 1, 2])
        assert np.array_equal(y.data[:, 0], [3, 4])

    def test_windows_are_views(self):
        values = np.arange(12, dtype=np.float64)[:, np.newaxis]
        (x, y), = slice_windows(values, 0, 7, 4, 3, 1)
        assert np.shares_memory(x.data, values)
        assert np.shares_memory(y.data, values)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            slice_windows(np.zeros((10, 1)), 0, 10, 2, 1, 0)


class TestStandardizeSplitWindow:
    def ramp(self, total=1000, d=1):
        values = np.arange(total * d, dtype=np.float64).reshape(total, d)
        names = tuple(f"f{i}" for i in range(d))
        return RawSeries(values=values, feature_names=names)

    def test_split_bounds(self):
        ds = standardize_split_window(self.ramp(), n=16, m=4)
        assert ds.split_bounds == ((0, 595), (595, 700), (700, 1000))

    def test_window_counts_match_formula(self):
        n, m, stride = 16, 4, 3
        ds = standardize_split_window(self.ramp(), n=n, m=m, stride=stride)
        (lo0, hi0), (lo1, hi1), (lo2, hi2) = ds.split_bounds
        assert len(ds.train) == (hi0 - lo0 - n - m) // stride + 1
        assert len(ds.val) == (hi1 - lo1 - n - m) // m + 1
        assert len(ds.test) == (hi2 - lo2 - n - m) // m + 1

    def test_no_window_crosses_split_boundaries(self):
        # the ramp series makes original row indices recoverable
        ds = standardize_split_window(self.ramp(), n=16, m=4, stride=5)
        for windows, (lo, hi) in zip((ds.train, ds.val, ds.test), ds.split_bounds):
            for x, y in windows:
                rows = ds.scaler.inverse(np.vstack([x.data, y.data]))[:, 0]
                assert rows[0] >= lo and rows[-1] <= hi - 1 + 1e-9
                assert np.allclose(np.diff(rows), 1.0)

    def test_scaler_fit_on_train_core_only(self):
        raw = self.ramp()
        ds = standardize_split_window(raw, n=16, m=4)
        core = raw.values[: ds.split_bounds[0][1]]
        z = ds.scaler.transform(core)
        assert np.max(np.abs(z.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) <= 1e-9

    def test_train_windows_are_standardized(self):
        raw = synth_series("sines", 600, d=2, seed=4)
        ds = standardize_split_window(raw, n=8, m=2)
        stacked = np.vstack([x.data for x, _ in ds.train])
        assert np.max(np.abs(stacked.mean(axis=0))) < 0.3
        assert np.max(np.abs(stacked.std(axis=0) - 1.0)) < 0.3

    def test_last_train_window_precedes_test_region(self):
        ds = standardize_split_window(self.ramp(), n=16, m=4)
        last_target = ds.scaler.inverse(ds.train[-1][1].data)[-1, 0]
        first_test_row = ds.split_bounds[2][0]
        assert last_target < first_test_row

    def test_eval_stride_defaults_to_horizon(self):
        """Validation and test windows step by m: their forecasts do not overlap."""
        ds = standardize_split_window(self.ramp(), n=16, m=4, stride=1)
        for windows in (ds.val, ds.test):
            starts = [ds.scaler.inverse(x.data)[0, 0] for x, _ in windows]
            assert len(starts) >= 2 and np.allclose(np.diff(starts), 4.0)

    def test_series_too_short_rejected(self):
        with pytest.raises(ValueError, match="nothing to window"):
            standardize_split_window(self.ramp(total=10), n=8, m=4)

    def test_core_too_short_rejected(self):
        with pytest.raises(ValueError, match="training region"):
            standardize_split_window(self.ramp(total=40), n=20, m=8)

    @pytest.mark.parametrize("val_fraction", [-0.1, 1.0, float("nan")])
    def test_bad_val_fraction_rejected(self, val_fraction):
        with pytest.raises(ValueError, match="val_fraction"):
            standardize_split_window(self.ramp(), n=8, m=2, val_fraction=val_fraction)

    def test_constant_feature_rejected(self):
        values = np.random.default_rng(3).normal(size=(400, 2))
        values[:, 0] = 2.0
        raw = RawSeries(values=values, feature_names=("a", "b"))
        with pytest.raises(ValueError, match="feature 0"):
            standardize_split_window(raw, n=8, m=2)


class TestMetrics:
    def test_identical_inputs_give_zero(self):
        t = Tensor._wrap(np.random.default_rng(0).normal(size=(4, 2)))
        assert mse(t, t) == 0.0
        assert mae(t, t) == 0.0

    def test_unit_offset(self):
        a = Tensor.zeros((3, 2))
        b = Tensor(np.full((3, 2), 1.0))
        assert mse(a, b) == 1.0
        assert mae(a, b) == 1.0

    def test_hand_example(self):
        pred = Tensor._wrap(np.array([0.0, 2.0]))
        target = Tensor._wrap(np.array([1.0, 0.0]))
        assert mse(pred, target) == 2.5
        assert mae(pred, target) == 1.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            mse(Tensor.zeros((2, 2)), Tensor.zeros((2, 3)))
        with pytest.raises(DimensionError):
            mae(Tensor.zeros((2, 2)), Tensor.zeros((3, 2)))

    def test_zero_equivalence_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = Tensor._wrap(rng.normal(size=(3, 3)))
            b = Tensor._wrap(rng.normal(size=(3, 3)))
            m_sq, m_ab = mse(a, b), mae(a, b)
            assert m_sq >= 0.0 and m_ab >= 0.0
            assert (m_sq == 0.0) == (m_ab == 0.0)


class TestBaseline:
    def test_repeats_last_row(self):
        x = Tensor._wrap(np.array([[1.0, 2.0], [3.0, 4.0]]))
        pred = repeat_last_baseline(x, 3)
        assert np.array_equal(pred.data, [[3.0, 4.0]] * 3)

    def test_rejects_rank_one(self):
        with pytest.raises(DimensionError):
            repeat_last_baseline(Tensor._wrap(np.array([1.0, 2.0])), 2)

    def test_metrics_hand_example(self):
        x = Tensor._wrap(np.array([[1.0], [2.0]]))
        y = Tensor._wrap(np.array([[3.0], [4.0]]))
        base_mse, base_mae = baseline_metrics([(x, y)])
        assert base_mse == 2.5
        assert base_mae == 1.5

    def test_empty_windows_give_nan(self):
        base_mse, base_mae = baseline_metrics(())
        assert math.isnan(base_mse) and math.isnan(base_mae)


class TestManifest:
    def test_round_trip_keys(self, tmp_path):
        raw = synth_series("sines", 300, d=2, seed=0)
        ds = standardize_split_window(raw, n=8, m=2)
        path = tmp_path / "manifest.txt"
        write_manifest(str(path), ds)
        pairs = dict(
            line.split("=", 1) for line in path.read_text().strip().splitlines()
        )
        assert pairs["n"] == "8"
        assert pairs["m"] == "2"
        assert pairs["features"] == "f0,f1"
        assert int(pairs["windows_train"]) == len(ds.train)
        means = [float(v) for v in pairs["scaler_mean"].split(",")]
        assert np.allclose(means, ds.scaler.mean)
