"""Tabular data ingestion: column roles, validation, design matrix
and response vector construction.

The design matrix convention matches standard regression practice: an
intercept column of ones comes first (position 0), followed by the data
columns in their original order.  Column positions everywhere in this
package are 0-based.
"""

import csv
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "ColumnRole",
    "Column",
    "Dataset",
    "DesignMatrix",
    "load_csv",
    "design_matrix",
    "response_vector",
]


class ColumnRole(str, Enum):
    RESPONSE = "response"
    QUANTITATIVE = "quantitative"
    DUMMY = "dummy"


@dataclass(frozen=True)
class Column:
    label: str
    role: ColumnRole
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "role", ColumnRole(self.role))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"column {self.label!r}: values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"column {self.label!r} contains missing or non-finite values")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Dataset:
    """Named columns with declared roles; immutable after construction."""

    name: str
    columns: tuple[Column, ...]
    add_intercept: bool = True
    skipped: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise ValueError("dataset has no columns")
        lengths = {c.values.size for c in self.columns}
        if len(lengths) != 1:
            raise ValueError(f"columns have differing lengths: {sorted(lengths)}")
        if self.n < 2:
            raise ValueError("at least 2 observations are required")
        labels = [c.label for c in self.columns]
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate column labels: {dup}")
        responses = [c for c in self.columns if c.role is ColumnRole.RESPONSE]
        if len(responses) > 1:
            raise ValueError("more than one response column declared")
        for c in self.columns:
            if c.role is ColumnRole.DUMMY and not np.all(np.isin(c.values, (0.0, 1.0))):
                raise ValueError(f"dummy column {c.label!r} contains values other than 0 and 1")

    @property
    def n(self) -> int:
        return self.columns[0].values.size

    def column(self, label: str) -> Column:
        for c in self.columns:
            if c.label == label:
                return c
        raise KeyError(f"no column labeled {label!r}")


@dataclass(frozen=True)
class DesignMatrix:
    """An n x k regression design matrix that knows its column roles.

    When intercept_present, column 0 is exactly the all-ones vector.
    quantitative_idx and dummy_idx are 0-based column indices into X and,
    together with the intercept, partition all columns.
    """

    X: np.ndarray
    intercept_present: bool
    quantitative_idx: tuple[int, ...]
    dummy_idx: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        if not np.all(np.isfinite(X)):
            raise ValueError("design matrix contains missing or non-finite values")
        X = X.copy()
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "quantitative_idx", tuple(int(i) for i in self.quantitative_idx))
        object.__setattr__(self, "dummy_idx", tuple(int(i) for i in self.dummy_idx))
        object.__setattr__(self, "labels", tuple(self.labels))

        n, k = X.shape
        if len(self.labels) != k:
            raise ValueError(f"{len(self.labels)} labels for {k} columns")
        claimed = set(self.quantitative_idx) | set(self.dummy_idx)
        if self.intercept_present:
            if k == 0 or not np.array_equal(X[:, 0], np.ones(n)):
                raise ValueError("intercept_present but column 0 is not all ones")
            claimed |= {0}
        if len(self.quantitative_idx) + len(self.dummy_idx) + int(self.intercept_present) != k \
                or claimed != set(range(k)):
            raise ValueError("column roles do not partition the design matrix columns")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @property
    def quantitative_labels(self) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.quantitative_idx)

    @property
    def dummy_labels(self) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.dummy_idx)

    @property
    def non_intercept_idx(self) -> tuple[int, ...]:
        """Column indices excluding the intercept, in matrix order."""
        start = 1 if self.intercept_present else 0
        return tuple(range(start, self.k))

    @cached_property
    def factors(self) -> np.ndarray:
        """R of the QR factorization X = QR, computed once per design.

        X[:, cols] = Q R[:, cols] with Q orthonormal, so every column
        block of R has the singular values, column norms and cross
        products of the same block of X.  Caching is safe because X is
        a read-only copy.
        """
        return np.linalg.qr(self.X, mode="r")


def load_csv(path, roles, add_intercept: bool = True, name: str | None = None) -> Dataset:
    """Load a CSV file into a Dataset.

    roles maps column labels to ColumnRole (or its string value).  Header
    columns absent from roles are skipped and recorded in
    Dataset.skipped.  Comma separator, '.' decimal mark, first row is the
    header, UTF-8; any missing cell is an error, never imputed.
    """
    roles = {label: ColumnRole(role) for label, role in roles.items()}
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"data file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no header row (empty file)") from None
        header = [h.strip() for h in header]
        unknown = sorted(set(roles) - set(header))
        if unknown:
            raise ValueError(f"{path}: labels in roles not present in header: {unknown}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, found {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    columns = []
    skipped = []
    for j, label in enumerate(header):
        if label not in roles:
            skipped.append(label)
            continue
        values = np.empty(len(rows))
        for i, row in enumerate(rows):
            cell = row[j].strip()
            if cell == "":
                raise ValueError(f"{path}:{i + 2}: missing value in column {label!r}")
            try:
                values[i] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{i + 2}: non-numeric value {cell!r} in column {label!r}"
                ) from None
        columns.append(Column(label, roles[label], values))

    return Dataset(
        name=name if name is not None else str(path),
        columns=tuple(columns),
        add_intercept=add_intercept,
        skipped=tuple(skipped),
    )


def design_matrix(d: Dataset) -> DesignMatrix:
    """Build the design matrix from all non-response columns of d.

    The intercept ones column is synthesized first when d.add_intercept.
    A zero-variance quantitative column is rejected because a constant
    regressor duplicates the intercept.
    """
    regressors = [c for c in d.columns if c.role is not ColumnRole.RESPONSE]
    if not regressors:
        raise ValueError("dataset has no regressor columns")
    for c in regressors:
        if c.role is ColumnRole.QUANTITATIVE and np.ptp(c.values) == 0.0:
            raise ValueError(f"quantitative column {c.label!r} has zero variance")

    cols = []
    labels = []
    quant = []
    dummy = []
    offset = 0
    if d.add_intercept:
        cols.append(np.ones(d.n))
        labels.append("intercept")
        offset = 1
    for i, c in enumerate(regressors):
        cols.append(c.values)
        labels.append(c.label)
        (quant if c.role is ColumnRole.QUANTITATIVE else dummy).append(offset + i)

    return DesignMatrix(
        X=np.column_stack(cols),
        intercept_present=d.add_intercept,
        quantitative_idx=tuple(quant),
        dummy_idx=tuple(dummy),
        labels=tuple(labels),
    )


def response_vector(d: Dataset) -> np.ndarray:
    """The single declared response column of d."""
    responses = [c for c in d.columns if c.role is ColumnRole.RESPONSE]
    if len(responses) != 1:
        raise ValueError(f"exactly one response column required, found {len(responses)}")
    return responses[0].values.copy()
