import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boostcontrib import (
    DataError,
    Dataset,
    add_correlated_feature,
    add_gaussian_noise,
    load_csv,
    make_outlier,
    train_test_split,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        ds = load_csv(path, "y")
        assert ds.feature_names == ("a", "b")
        assert np.array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(ds.target, [3.0, 6.0])

    def test_target_column_in_the_middle(self, tmp_path):
        path = write(tmp_path, "a,y,b\n1,3,2\n")
        ds = load_csv(path, "y")
        assert ds.feature_names == ("a", "b")
        assert np.array_equal(ds.features, [[1.0, 2.0]])

    def test_float_round_trip_is_exact(self, tmp_path):
        value = 0.12345678901234567
        path = write(tmp_path, f"a,y\n{value!r},1\n")
        ds = load_csv(path, "y")
        assert ds.features[0, 0] == value

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\n\n3,4\n")
        ds = load_csv(path, "y")
        assert ds.n_samples == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""), "y")

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "a,y\n"), "y")

    def test_target_only_names_the_path(self, tmp_path):
        path = write(tmp_path, "y\n1\n2\n3\n")
        with pytest.raises(DataError, match=f"^{path}: .*at least one feature column"):
            load_csv(path, "y")

    def test_missing_target(self, tmp_path):
        with pytest.raises(DataError, match="target column 'z' not found"):
            load_csv(write(tmp_path, "a,y\n1,2\n"), "z")

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataError, match="duplicate column"):
            load_csv(write(tmp_path, "a,a,y\n1,2,3\n"), "y")

    def test_ragged_row_reports_1_based_line(self, tmp_path):
        with pytest.raises(DataError, match="row 3 has 1 cells"):
            load_csv(write(tmp_path, "a,y\n1,2\n5\n"), "y")

    def test_unparseable_cell(self, tmp_path):
        with pytest.raises(DataError, match="row 2, column 'a'.*'oops'"):
            load_csv(write(tmp_path, "a,y\noops,2\n"), "y")

    def test_non_finite_cell(self, tmp_path):
        with pytest.raises(DataError, match="non-finite"):
            load_csv(write(tmp_path, "a,y\ninf,2\n"), "y")

    def test_undecodable_bytes_name_the_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,y\n1,2\n\xff\xfe,3\n")
        with pytest.raises(DataError, match="not UTF-8") as caught:
            load_csv(path, "y")
        assert str(path) in str(caught.value)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfy,a\n1,2\n")
        ds = load_csv(path, "y")
        assert ds.feature_names == ("a",) and ds.target.tolist() == [1.0]

    def test_oversized_cell(self, tmp_path):
        with pytest.raises(DataError, match="row 2: field larger"):
            load_csv(write(tmp_path, "a,y\n" + "1" * 200_000 + ",2\n"), "y")

    def test_dataset_faults_name_the_path(self, tmp_path):
        path = write(tmp_path, "a,,y\n1,2,3\n")
        with pytest.raises(DataError, match="names must be non-empty") as caught:
            load_csv(path, "y")
        assert str(path) in str(caught.value)

    @given(
        st.lists(
            st.sampled_from([
                b"a", b"y", b",", b"\n", b"\r\n", b"1", b"-2.5", b"nan", b"inf", b"-inf",
                b"1e999", b"9" * 400, b"\x00", b"\xff\xfe", b"\xef\xbb\xbf", b'"', b" ",
                b"x", b"a,y\n", b"a,a,y\n", b"1,2\n", b"1,2,3\n", b"\xc3\xa9",
            ]),
            max_size=30,
        )
    )
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_file_loads_or_raises_data_error(self, tmp_path, pieces):
        # Ragged rows, a BOM, empty files, duplicate headers, nan and inf,
        # huge numbers, NUL and undecodable bytes: load, or DataError only.
        path = tmp_path / "fuzz.csv"
        path.write_bytes(b"".join(pieces))
        try:
            ds = load_csv(path, "y")
        except DataError as exc:
            assert str(path) in str(exc)
        else:
            assert np.isfinite(ds.features).all() and np.isfinite(ds.target).all()


class TestDataset:
    def test_arrays_are_read_only(self, d0_dataset):
        with pytest.raises(ValueError):
            d0_dataset.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            d0_dataset.target[0] = 99.0

    def test_construction_copies_input(self):
        X = np.array([[1.0], [2.0]])
        y = np.array([0.0, 1.0])
        ds = Dataset(X, y, ("a",))
        X[0, 0] = 42.0
        assert ds.features[0, 0] == 1.0

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.array([[np.nan]]), np.array([1.0]), ("a",))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="target length 1 != row count 2"):
            Dataset(np.array([[1.0], [2.0]]), np.array([1.0]), ("a",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError, match="unique"):
            Dataset(np.array([[1.0, 2.0]]), np.array([1.0]), ("a", "a"))

    def test_rejects_empty_name(self):
        with pytest.raises(DataError, match="non-empty"):
            Dataset(np.array([[1.0]]), np.array([1.0]), ("",))

    def test_rejects_zero_feature_columns(self):
        with pytest.raises(DataError, match="at least one feature column"):
            Dataset(np.empty((3, 0)), np.ones(3), ())

    def test_rejects_zero_rows(self):
        with pytest.raises(DataError, match="at least one row"):
            Dataset(np.empty((0, 1)), np.empty(0), ("a",))

    def test_feature_index_and_column(self, d0_dataset):
        assert d0_dataset.feature_index("f1") == 1
        assert np.array_equal(d0_dataset.column("f1"), [0.0, 1.0, 0.0, 1.0])
        with pytest.raises(DataError, match="unknown feature"):
            d0_dataset.feature_index("zzz")

    def test_take_rows(self, d0_dataset):
        sub = d0_dataset.take_rows(np.array([2, 3]))
        assert sub.n_samples == 2
        assert np.array_equal(sub.target, [10.0, 20.0])
        assert sub.feature_names == d0_dataset.feature_names


class TestTrainTestSplit:
    def test_sizes_follow_floor_rule(self, synthetic_500x8):
        train, test = train_test_split(synthetic_500x8, 0.1, 0)
        assert test.n_samples == 50
        assert train.n_samples == 450

    def test_tiny_fraction_still_gets_one_test_row(self):
        ds = Dataset(np.arange(10.0).reshape(10, 1), np.arange(10.0), ("a",))
        train, test = train_test_split(ds, 0.01, 0)
        assert test.n_samples == 1
        assert train.n_samples == 9

    def test_deterministic(self, synthetic_500x8):
        a = train_test_split(synthetic_500x8, 0.2, 7)
        b = train_test_split(synthetic_500x8, 0.2, 7)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].target, b[1].target)

    def test_rejects_bad_fraction(self, d0_dataset):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DataError):
                train_test_split(d0_dataset, bad, 0)

    def test_rejects_single_row(self):
        ds = Dataset(np.array([[1.0]]), np.array([1.0]), ("a",))
        with pytest.raises(DataError, match="at least 2 rows"):
            train_test_split(ds, 0.5, 0)

    @given(
        n=st.integers(2, 60),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_a_partition(self, n, fraction, seed):
        # Target values double as row ids, so we can recover which original
        # row each split row came from.
        ds = Dataset(np.zeros((n, 1)), np.arange(float(n)), ("a",))
        train, test = train_test_split(ds, fraction, seed)
        ids = sorted([*train.target.tolist(), *test.target.tolist()])
        assert ids == list(range(n))
        assert test.n_samples == max(1, int(n * fraction))
        # Within each part the original order is preserved.
        assert list(train.target) == sorted(train.target)
        assert list(test.target) == sorted(test.target)


class TestAugmentations:
    def test_correlated_feature_values(self, d0_dataset):
        out = add_correlated_feature(d0_dataset, "f0", 2.0, -1.0, "f0_corr")
        assert out.feature_names == ("f0", "f1", "f0_corr")
        assert np.array_equal(out.column("f0_corr"), 2.0 * d0_dataset.column("f0") - 1.0)
        # original untouched
        assert d0_dataset.n_features == 2

    def test_correlated_feature_rejects_zero_factor(self, d0_dataset):
        with pytest.raises(DataError, match="nonzero"):
            add_correlated_feature(d0_dataset, "f0", 0.0, 0.0, "c")

    def test_correlated_feature_rejects_taken_name(self, d0_dataset):
        with pytest.raises(DataError, match="already in use"):
            add_correlated_feature(d0_dataset, "f0", 1.0, 0.0, "f1")

    def test_noise_level_zero_is_identity(self, synthetic_500x8):
        out = add_gaussian_noise(synthetic_500x8, "x0", 0.0, seed=123)
        assert np.array_equal(out.features, synthetic_500x8.features)

    def test_noise_is_seed_deterministic(self, synthetic_500x8):
        a = add_gaussian_noise(synthetic_500x8, "x3", 100.0, seed=5)
        b = add_gaussian_noise(synthetic_500x8, "x3", 100.0, seed=5)
        c = add_gaussian_noise(synthetic_500x8, "x3", 100.0, seed=6)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_noise_touches_only_the_named_column(self, synthetic_500x8):
        out = add_gaussian_noise(synthetic_500x8, "x3", 100.0, seed=5)
        j = synthetic_500x8.feature_index("x3")
        others = [k for k in range(synthetic_500x8.n_features) if k != j]
        assert np.array_equal(out.features[:, others], synthetic_500x8.features[:, others])
        assert not np.array_equal(out.features[:, j], synthetic_500x8.features[:, j])
        assert np.array_equal(out.target, synthetic_500x8.target)

    def test_noise_scale_tracks_the_level(self, synthetic_500x8):
        # noise std should be sqrt(level/100) * feature std, up to sampling error
        j = synthetic_500x8.feature_index("x0")
        col = synthetic_500x8.features[:, j]
        out = add_gaussian_noise(synthetic_500x8, "x0", 400.0, seed=11)
        delta = out.features[:, j] - col
        expected = np.sqrt(4.0) * np.std(col)
        assert abs(np.std(delta) - expected) < 0.25 * expected

    def test_noise_rejects_negative_level(self, synthetic_500x8):
        with pytest.raises(DataError, match="nonnegative"):
            add_gaussian_noise(synthetic_500x8, "x0", -1.0, seed=0)

    @pytest.mark.parametrize("factor, offset, name", [
        (float("nan"), 0.0, "factor"), (float("inf"), 0.0, "factor"), (-float("inf"), 0.0, "factor"),
        (1.0, float("nan"), "offset"), (1.0, float("inf"), "offset"),
    ])
    def test_correlated_feature_rejects_non_finite_parameter(self, d0_dataset, factor, offset, name):
        with pytest.raises(DataError, match=f"^{name} must be finite, got"):
            add_correlated_feature(d0_dataset, "f0", factor, offset, "c")

    def test_correlated_feature_names_an_overflowing_copy(self, synthetic_500x8):
        # Some |x0| exceed 1.8, so 1e308 * x0 overflows; no numpy warning leaks.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^the copy c = 1e\+308 \* x0 \+ 0.0 overflows$"):
                add_correlated_feature(synthetic_500x8, "x0", 1e308, 0.0, "c")

    @pytest.mark.parametrize("level", [float("nan"), float("inf")])
    def test_noise_rejects_non_finite_level(self, synthetic_500x8, level):
        with pytest.raises(DataError, match="^variance_pct must be finite and nonnegative, got"):
            add_gaussian_noise(synthetic_500x8, "x0", level, seed=0)

    @pytest.mark.parametrize("scale", [1e150, 1e200], ids=["scale-overflows", "variance-overflows"])
    def test_noise_names_an_overflowing_level(self, scale, synthetic_500x8):
        # The noise's variance overflows, in the column's variance or in its
        # product with the level; no numpy warning leaks.
        ds = Dataset(synthetic_500x8.features * scale, synthetic_500x8.target, synthetic_500x8.feature_names)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^noise of variance_pct 1e\+308 overflows feature 'x0'$"):
                add_gaussian_noise(ds, "x0", 1e308, seed=0)

    def test_make_outlier_exact_values(self, d0_dataset):
        sample = make_outlier(d0_dataset, "f0")
        # f0 column is [0,0,1,1]: max 1, std 0.5 -> 1.5; f1 mean 0.5
        assert sample.x_fake[0] == 1.5
        assert sample.x_fake[1] == 0.5
        # target [0,0,10,20]: max 20, population std sqrt(68.75)
        assert sample.y_fake == 20.0 + float(np.sqrt(68.75))

    def test_make_outlier_unknown_feature(self, d0_dataset):
        with pytest.raises(DataError, match="unknown feature"):
            make_outlier(d0_dataset, "nope")
