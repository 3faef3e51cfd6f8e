"""Dataset ingestion, encoding, normalization, and splitting.

Features are min-max normalized into [-1, 1]. For the categorical car
loader the normalization is fixed by the category tables; for numeric CSVs
and the synthetic generators the min/max statistics are bound at split time
from the training rows only, and validation outliers clip rather than
rescale. Datasets are immutable after load.
"""

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, FormatError

# Category orders for the car-acceptability schema, lowest to highest.
CAR_ATTRIBUTES = (
    ("buying", ("low", "med", "high", "vhigh")),
    ("maint", ("low", "med", "high", "vhigh")),
    ("doors", ("2", "3", "4", "5more")),
    ("persons", ("2", "4", "more")),
    ("lug_boot", ("small", "med", "big")),
    ("safety", ("low", "med", "high")),
)
CAR_CLASSES = ("unacc", "acc", "good", "vgood")
CAR_CANONICAL_ROWS = 1728


def _check_seed(seed):
    """The seed rule, checked before a seed reaches a numpy generator: a
    Python or numpy integer >= 0, not a bool, else ConfigurationError. Returns the seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def predict_labels(outputs):
    """Decision rule from outputs or targets [n x c] (or one row [c]) to
    class labels: threshold 0.5 for a single column, else argmax (ties
    broken by lowest index)."""
    arr = np.atleast_2d(np.asarray(outputs))
    if arr.shape[1] == 1:
        return (arr[:, 0] >= 0.5).astype(np.int64)
    return np.argmax(arr, axis=1)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix [n x d] plus targets [n x c] (c=1 binary, else one-hot).

    ``norm_lo``/``norm_hi`` record the per-feature raw range mapped onto
    [-1, 1]; they are None while normalization statistics are still pending
    (numeric loaders defer them to split() so only training rows contribute).
    """

    features: np.ndarray
    targets: np.ndarray
    class_names: tuple
    norm_lo: np.ndarray = None
    norm_hi: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float32))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=np.float32))
        if len(self.features) != len(self.targets):
            raise DataError("features and targets disagree on sample count")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_outputs(self):
        return self.targets.shape[1]

    @property
    def n_classes(self):
        return 2 if self.n_outputs == 1 else self.n_outputs

    def labels(self):
        """Integer class labels of the targets, by ``predict_labels``."""
        return predict_labels(self.targets)


def normalize_features(raw, lo, hi):
    """Map raw features into [-1, 1] given per-feature lo/hi; clip outliers.

    Degenerate columns (lo == hi) map to 0.0.
    """
    raw = np.asarray(raw, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    out = (raw - (lo + hi) / 2.0) / safe * 2.0
    out = np.where(span == 0.0, 0.0, out)
    return np.clip(out, -1.0, 1.0).astype(np.float32)


def _read_rows(path, n_cols):
    """A UTF-8 CSV file's non-blank rows (numbered from 1), each n_cols wide."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise FormatError(f"{path}: no data rows")
    for r, row in enumerate(rows, 1):
        if len(row) != n_cols:
            raise FormatError(f"{path}: row {r} has {len(row)} columns, expected {n_cols}")
    return rows


def load_car_evaluation(path):
    """Load a car-acceptability CSV (6 categorical attributes + class).

    Attributes are ordinal-encoded by their documented category order and
    scaled to [-1, 1]; the class column becomes a one-hot row over
    (unacc, acc, good, vgood). A row count other than the canonical 1728
    only warns.
    """
    n_cols = len(CAR_ATTRIBUTES) + 1
    rows = _read_rows(path, n_cols)
    ordinals = np.empty((len(rows), len(CAR_ATTRIBUTES)), dtype=np.float64)
    targets = np.zeros((len(rows), len(CAR_CLASSES)), dtype=np.float32)
    class_index = {c: i for i, c in enumerate(CAR_CLASSES)}
    for r, row in enumerate(rows):
        for c, (name, order) in enumerate(CAR_ATTRIBUTES):
            token = row[c].strip()
            try:
                ordinals[r, c] = order.index(token)
            except ValueError:
                raise DataError(
                    f"{path}: row {r + 1}, column {c + 1} ({name}): "
                    f"unknown category {token!r}"
                ) from None
        token = row[-1].strip()
        if token not in class_index:
            raise DataError(
                f"{path}: row {r + 1}, column {n_cols}: unknown class {token!r}"
            )
        targets[r, class_index[token]] = 1.0
    if len(rows) != CAR_CANONICAL_ROWS:
        warnings.warn(
            f"{path}: {len(rows)} rows; the canonical car-acceptability file "
            f"has {CAR_CANONICAL_ROWS}",
            stacklevel=2,
        )
    lo = np.zeros(len(CAR_ATTRIBUTES))
    hi = np.array([len(order) - 1 for _, order in CAR_ATTRIBUTES], dtype=np.float64)
    return Dataset(normalize_features(ordinals, lo, hi), targets, CAR_CLASSES, lo, hi)


def read_numeric_csv(path, n_cols):
    """Read a CSV of finite numbers, n_cols per row, as a float64 array.

    A row with another column count raises FormatError; a cell that is not
    a number, or whose value is not finite once cast to the float32 that
    datasets and calibration sets hold, raises DataError naming its row and
    column.
    """
    rows = _read_rows(path, n_cols)
    values = np.empty((len(rows), n_cols), dtype=np.float64)
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                values[r, c] = math.nan  # reported as not a finite number, below
    with np.errstate(over="ignore"):  # the cast makes inf of a cell too large
        bad = np.argwhere(~np.isfinite(values.astype(np.float32)))
    if bad.size:
        r, c = bad[0]
        raise DataError(
            f"{path}: row {r + 1}, column {c + 1}: "
            f"{rows[r][c].strip()!r} is not a finite number in float32"
        )
    return values


def load_csv_generic(path, n_features):
    """Load a numeric CSV: n_features columns, then one {0,1} target column.

    Features are left raw here; split() binds min-max normalization
    statistics from the training rows only.
    """
    values = read_numeric_csv(path, n_features + 1)
    features = values[:, :n_features]
    targets = values[:, n_features:].astype(np.float32)
    if not np.all(np.isin(targets, (0.0, 1.0))):
        raise DataError(f"{path}: binary target column must contain only 0/1")
    return Dataset(features, targets, ("negative", "positive"))


def synth_cogdist(seed):
    """Synthetic stand-in for the non-public cognitive-distraction task.

    Matches its shape only: 3600 samples, 6 features, binary labels. Each
    class is two Gaussian clusters arranged so the classes are not linearly
    separable, with 5% label noise. Deterministic under seed. Normalization
    statistics are bound at split time.
    """
    rng = np.random.default_rng(_check_seed(seed))
    a, sigma = 1.5, 0.8
    base = np.full(6, a)
    alt = a * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    centers = [(base, 0), (-base, 0), (alt, 1), (-alt, 1)]
    per_cluster = 900
    feats, labels = [], []
    for center, lab in centers:
        feats.append(rng.normal(center, sigma, size=(per_cluster, 6)))
        labels.append(np.full(per_cluster, lab))
    X = np.concatenate(feats)
    y = np.concatenate(labels)
    flip = rng.random(len(y)) < 0.05
    y = np.where(flip, 1 - y, y)
    order = rng.permutation(len(y))
    return Dataset(X[order], y[order].reshape(-1, 1), ("negative", "positive"))


def _car_surrogate_label(buying, maint, doors, persons, lug_boot, safety):
    """Deterministic rule labeling the surrogate car file; see generate_car_surrogate."""
    if safety == 0 or persons == 0:
        return "unacc"
    price = buying + maint
    comfort = int(doors >= 1) + int(lug_boot >= 1) + int(persons >= 1) + int(lug_boot == 2)
    if price >= 5 or (price == 4 and comfort <= 1):
        return "unacc"
    value = comfort + 2 * (safety - 1) - price
    if value >= 4 and safety == 2 and price <= 1:
        return "vgood"
    if value >= 3 and price <= 2:
        return "good"
    if value >= 0:
        return "acc"
    return "unacc"


def generate_car_surrogate(path):
    """Write a surrogate car-acceptability CSV with the canonical schema.

    The canonical UCI file is not redistributable from this package, so this
    generates a stand-in: the full 1728-row cartesian product of the same six
    attributes, labeled by a fixed hand-written rule with a similar class
    imbalance (roughly 70/22/5/3% over unacc/acc/good/vgood). Deterministic;
    loads through load_car_evaluation. Returns the path.
    """
    # rows run over the ordinals, buying and maint from high to low
    ordinals = [
        range(len(order))[::-1 if name in ("buying", "maint") else 1]
        for name, order in CAR_ATTRIBUTES
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for ords in product(*ordinals):
            tokens = [order[o] for (_, order), o in zip(CAR_ATTRIBUTES, ords)]
            writer.writerow(tokens + [_car_surrogate_label(*ords)])
    return path


def split(ds, train_fraction=0.8, seed=0):
    """Deterministic stratified train/validation split.

    Per class, floor(train_fraction * n) samples go to train and the
    remainder to validation. Selected indices keep their original file
    order. If the dataset's normalization statistics are still pending,
    they are computed here from the training rows only and applied to both
    splits (validation values outside the training range clip).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError(f"train fraction {train_fraction} outside (0, 1)")
    if ds.n < 2:
        raise ConfigurationError("cannot split fewer than 2 samples")
    rng = np.random.default_rng(_check_seed(seed))
    labels = ds.labels()

    train_idx, val_idx = [], []
    for cls in range(ds.n_classes):
        members = np.flatnonzero(labels == cls)
        if len(members) < 2:
            raise ConfigurationError(
                f"class {cls} has {len(members)} samples; "
                "stratified split needs at least 2 per class"
            )
        members = members[rng.permutation(len(members))]
        take = int(np.floor(train_fraction * len(members)))
        if take == 0 or take == len(members):
            raise ConfigurationError(
                f"train fraction {train_fraction} empties one side of "
                f"class {cls} ({len(members)} samples)"
            )
        train_idx.append(members[:take])
        val_idx.append(members[take:])
    train_idx = np.sort(np.concatenate(train_idx))
    val_idx = np.sort(np.concatenate(val_idx))

    if ds.norm_lo is None:
        raw_train = ds.features[train_idx].astype(np.float64)
        lo = raw_train.min(axis=0)
        hi = raw_train.max(axis=0)
        feats = normalize_features(ds.features, lo, hi)
    else:
        lo, hi = ds.norm_lo, ds.norm_hi
        feats = ds.features

    make = lambda idx: Dataset(feats[idx], ds.targets[idx], ds.class_names, lo, hi)
    return make(train_idx), make(val_idx)
