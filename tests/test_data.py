import numpy as np
import pytest

from qmlp.data import (
    Dataset,
    generate_car_surrogate,
    load_car_evaluation,
    load_csv_generic,
    normalize_features,
    read_numeric_csv,
    split,
    synth_cogdist,
)
from qmlp.errors import ConfigurationError, DataError, FormatError
from qmlp.nn import build_model
from qmlp.train import read_curves_csv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCarEvaluation:
    def test_surrogate_has_canonical_shape(self, car_dataset):
        assert car_dataset.n == 1728
        assert car_dataset.n_features == 6
        assert car_dataset.n_outputs == 4
        assert car_dataset.class_names == ("unacc", "acc", "good", "vgood")

    def test_all_lowest_row_maps_to_minus_one(self, tmp_path):
        p = write(tmp_path / "c.csv", "low,low,2,2,small,low,unacc\n" * 2)
        with pytest.warns(UserWarning):  # not 1728 rows
            ds = load_car_evaluation(p)
        np.testing.assert_array_equal(ds.features[0], -np.ones(6, dtype=np.float32))

    def test_canonical_first_row_encoding(self, tmp_path):
        p = write(tmp_path / "c.csv", "vhigh,vhigh,2,2,small,low,unacc\n" * 2)
        with pytest.warns(UserWarning):
            ds = load_car_evaluation(p)
        np.testing.assert_array_equal(ds.targets[0], [1, 0, 0, 0])
        # buying/maint at the top of their order, the rest at the bottom
        np.testing.assert_allclose(ds.features[0], [1, 1, -1, -1, -1, -1])

    def test_features_normalized(self, car_dataset):
        assert car_dataset.features.min() == -1.0
        assert car_dataset.features.max() == 1.0

    def test_unknown_token_locates_cell(self, tmp_path):
        p = write(tmp_path / "c.csv", "low,low,2,2,small,low,unacc\nlow,weird,2,2,small,low,acc\n")
        with pytest.raises(DataError, match=r"row 2, column 2"):
            load_car_evaluation(p)

    def test_unknown_class_token(self, tmp_path):
        p = write(tmp_path / "c.csv", "low,low,2,2,small,low,fine\n")
        with pytest.raises(DataError, match="fine"):
            load_car_evaluation(p)

    def test_wrong_column_count(self, tmp_path):
        p = write(tmp_path / "c.csv", "low,low,2,2,small,unacc\n")
        with pytest.raises(FormatError, match="columns"):
            load_car_evaluation(p)

    def test_encoding_total_over_surrogate(self, car_csv):
        # every token in a full cartesian-product file maps to one ordinal
        ds = load_car_evaluation(car_csv)
        uniq = [np.unique(ds.features[:, c]).size for c in range(6)]
        assert uniq == [4, 4, 4, 3, 3, 3]


class TestGenerateCarSurrogate:
    def test_deterministic(self, tmp_path):
        a = generate_car_surrogate(tmp_path / "a.csv").read_bytes()
        b = generate_car_surrogate(tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_class_imbalance_resembles_canonical(self, tmp_path):
        ds = load_car_evaluation(generate_car_surrogate(tmp_path / "c.csv"))
        frac = ds.targets.mean(axis=0)
        assert 0.6 <= frac[0] <= 0.8  # unacc dominates
        assert frac[2] < 0.1 and frac[3] < 0.1  # good/vgood rare


class TestLoadCsvGeneric:
    def test_hand_written_exact(self, tmp_path):
        p = write(
            tmp_path / "g.csv",
            "1.0,2.0,0\n3.0,4.0,1\n-1.0,0.0,1\n2.0,-2.0,0\n",
        )
        ds = load_csv_generic(p, 2)
        np.testing.assert_array_equal(
            ds.features, [[1, 2], [3, 4], [-1, 0], [2, -2]]
        )
        np.testing.assert_array_equal(ds.targets[:, 0], [0, 1, 1, 0])
        assert ds.norm_lo is None  # stats pending until split

    def test_constant_column_normalizes_to_zero(self, tmp_path):
        p = write(tmp_path / "g.csv", "".join(f"5.0,{i}.0,{i % 2}\n" for i in range(10)))
        ds = load_csv_generic(p, 2)
        train, val = split(ds, 0.8, seed=0)
        assert np.all(train.features[:, 0] == 0.0)
        assert np.all(val.features[:, 0] == 0.0)

    def test_wrong_feature_count(self, tmp_path):
        p = write(tmp_path / "g.csv", "1,2,3,0\n")
        with pytest.raises(FormatError):
            load_csv_generic(p, 2)

    def test_non_numeric_cell_located(self, tmp_path):
        p = write(tmp_path / "g.csv", "1,2,0\n1,x,1\n")
        with pytest.raises(DataError, match=r"row 2, column 2"):
            load_csv_generic(p, 2)

    # 1e300 and -3.5e38 are finite in float64, but not in the float32 of a Dataset
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e300", "-3.5e38"])
    def test_non_finite_cell_located(self, tmp_path, cell):
        p = write(tmp_path / "g.csv", f"1,2,0\n{cell},2,1\n")
        with pytest.raises(DataError, match=r"row 2, column 1: .* is not a finite number"):
            load_csv_generic(p, 2)

    def test_largest_float32_cell_is_accepted(self, tmp_path):
        p = write(tmp_path / "g.csv", "3.4028234e38,-3.4028234e38,0\n1,2,1\n")
        assert np.float32(read_numeric_csv(p, 3)[0, 0]) == np.finfo(np.float32).max

    def test_binary_target_values_checked(self, tmp_path):
        p = write(tmp_path / "g.csv", "1,2,0.5\n")
        with pytest.raises(DataError):
            load_csv_generic(p, 2)


# reader, its expected width, a valid row and a row with a bad cell; the
# curves reader's first row is its header
CSV_READERS = [
    pytest.param(load_car_evaluation, 7, "low,low,2,2,small,low,unacc",
                 "low,weird,2,2,small,low,acc", id="car"),
    pytest.param(lambda p: read_numeric_csv(p, 4), 4, "1,2,3,4", "1,x,3,4", id="numeric"),
    pytest.param(read_curves_csv, 4, "epoch,train_acc,val_acc,train_loss", "0,x,0.5,0.1",
                 id="curves"),
]


class TestCsvRows:
    """The three CSV readers share one row reader: blank lines are skipped and
    not counted, and a row of the wrong width is one message, reported before
    any cell is read."""

    @pytest.mark.parametrize("reader, n_cols, good, bad", CSV_READERS)
    def test_width_fault_same_message(self, tmp_path, reader, n_cols, good, bad):
        p = write(tmp_path / "w.csv", f"{good}\n\n1,2,3\n")
        with pytest.raises(FormatError) as err:
            reader(p)
        assert str(err.value) == f"{p}: row 2 has 3 columns, expected {n_cols}"

    @pytest.mark.parametrize("reader, n_cols, good, bad", CSV_READERS)
    def test_width_fault_reported_before_bad_cell(self, tmp_path, reader, n_cols, good, bad):
        p = write(tmp_path / "w.csv", f"{good}\n{bad}\n1,2,3\n")
        with pytest.raises(FormatError, match=f"row 3 has 3 columns, expected {n_cols}"):
            reader(p)

    @pytest.mark.parametrize("reader, n_cols, good, bad", CSV_READERS)
    def test_empty_file_has_no_data_rows(self, tmp_path, reader, n_cols, good, bad):
        p = write(tmp_path / "e.csv", "\n\n")
        with pytest.raises(FormatError, match="no data rows"):
            reader(p)


class TestSynthCogdist:
    def test_shape(self):
        ds = synth_cogdist(0)
        assert ds.n == 3600
        assert ds.n_features == 6
        assert ds.n_outputs == 1

    def test_deterministic(self):
        a, b = synth_cogdist(7), synth_cogdist(7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        c = synth_cogdist(8)
        assert not np.array_equal(a.features, c.features)

    def test_class_balance(self):
        for seed in (0, 1, 2):
            ds = synth_cogdist(seed)
            frac = float(ds.targets.mean())
            assert 0.4 <= frac <= 0.6

    def test_not_linearly_separable_but_learnable(self):
        # sanity on the generator's geometry: a linear probe stays near
        # chance while class-conditional cluster structure is present
        ds = synth_cogdist(3)
        X, y = ds.features, ds.targets[:, 0]
        mu0 = X[y == 0].mean(axis=0)
        mu1 = X[y == 1].mean(axis=0)
        assert np.linalg.norm(mu0 - mu1) < 0.5  # means nearly coincide


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: build_model("cogdist", seed),
        lambda seed: split(synth_cogdist(0), 0.8, seed),
        synth_cogdist,
    ],
    ids=["build_model", "split", "synth_cogdist"],
)
def test_bad_seed_refused(draw, seed):
    # data._check_seed vets every seed before numpy sees it: numpy would
    # raise ValueError or TypeError, draw fresh entropy for None, or take a
    # bool as the seed 0 or 1
    with pytest.raises(ConfigurationError, match="^seed must be an integer >= 0"):
        draw(seed)


class TestSplit:
    def _dataset_with_counts(self, counts):
        n = sum(counts)
        targets = np.zeros((n, len(counts)), dtype=np.float32)
        at = 0
        for cls, c in enumerate(counts):
            targets[at : at + c, cls] = 1.0
            at += c
        rng = np.random.default_rng(0)
        feats = rng.uniform(-1, 1, size=(n, 3))
        return Dataset(feats, targets, tuple(str(i) for i in range(len(counts))),
                       -np.ones(3), np.ones(3))

    def test_canonical_car_floor_rule(self):
        # canonical class counts: floor(0.8 * n_c) per class sums to 1382
        ds = self._dataset_with_counts([1210, 384, 69, 65])
        train, val = split(ds, 0.8, seed=0)
        assert train.n == 1382
        assert val.n == 346

    def test_proportions_within_one_sample(self):
        ds = self._dataset_with_counts([100, 50, 10])
        train, _ = split(ds, 0.8, seed=1)
        counts = train.targets.sum(axis=0)
        for c, total in zip(counts, [100, 50, 10]):
            assert abs(c - 0.8 * total) <= 1

    def test_deterministic(self, car_dataset):
        a1, b1 = split(car_dataset, 0.8, seed=5)
        a2, b2 = split(car_dataset, 0.8, seed=5)
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.targets, b2.targets)

    def test_tiny_class_rejected(self):
        ds = self._dataset_with_counts([50, 1])
        with pytest.raises(ConfigurationError):
            split(ds, 0.8, seed=0)

    def test_bad_fraction(self, car_dataset):
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigurationError):
                split(car_dataset, frac, seed=0)

    def test_train_only_statistics_and_clipping(self, tmp_path):
        # adversarial validation outliers must clip, not stretch the range
        lines = [f"{v},0\n" for v in np.linspace(0, 10, 20)]
        p = tmp_path / "g.csv"
        p.write_text("".join(f"{v:.3f},{i % 2}\n" for i, v in enumerate(np.linspace(0, 10, 40))))
        ds = load_csv_generic(p, 1)
        # plant an outlier and force it into validation by seed search
        raw = ds.features.copy()
        raw[-1, 0] = 1000.0
        ds2 = Dataset(raw, ds.targets, ds.class_names)
        for seed in range(50):
            train, val = split(ds2, 0.8, seed=seed)
            if train.norm_hi[0] < 1000.0:  # outlier not in train split
                assert val.features.max() == 1.0  # clipped, not rescaled
                assert train.features.max() <= 1.0
                break
        else:
            pytest.fail("outlier landed in train for all seeds")

    def test_split_normalizes_by_training_range(self, tmp_path):
        p = tmp_path / "g.csv"
        rng = np.random.default_rng(4)
        raw = rng.uniform(-3, 9, size=(50, 2))
        p.write_text("".join(f"{a},{b},{i % 2}\n" for i, (a, b) in enumerate(raw)))
        ds = load_csv_generic(p, 2)
        train, val = split(ds, 0.8, seed=0)
        # split keeps file order, so each side is a subsequence of the rows;
        # the raw values are distinct, which identifies the training rows
        lo, hi = train.norm_lo, train.norm_hi
        scaled = normalize_features(ds.features, lo, hi)
        in_train = (scaled[:, None, :] == train.features[None, :, :]).all(axis=2).any(axis=1)
        assert in_train.sum() == train.n
        raw_train = ds.features[in_train].astype(np.float64)
        np.testing.assert_array_equal(lo, raw_train.min(axis=0))
        np.testing.assert_array_equal(hi, raw_train.max(axis=0))
        np.testing.assert_array_equal(train.features, scaled[in_train])
        np.testing.assert_array_equal(val.features, scaled[~in_train])
