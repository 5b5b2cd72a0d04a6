"""Tabular data ingestion: column roles, validation, design matrix
and response vector construction.

The design matrix convention matches standard regression practice: an
intercept column of ones comes first (position 0), followed by the data
columns in their original order.  Column positions everywhere in this
package are 0-based.
"""

import csv
import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import linalg

__all__ = [
    "ColumnRole",
    "Column",
    "Dataset",
    "DesignMatrix",
    "load_csv",
    "roles_from_flags",
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


def _check_unique(labels: tuple[str, ...]) -> None:
    dup = sorted({l for l in labels if labels.count(l) > 1})
    if dup:
        raise ValueError(f"duplicate column labels: {dup}")


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
        _check_unique(tuple(c.label for c in self.columns))
        responses = [c for c in self.columns if c.role is ColumnRole.RESPONSE]
        if len(responses) > 1:
            raise ValueError("more than one response column declared")
        for c in self.columns:
            if c.role is ColumnRole.DUMMY and not np.all(np.isin(c.values, (0.0, 1.0))):
                raise ValueError(f"dummy column {c.label!r} contains values other than 0 and 1")

    @property
    def n(self) -> int:
        return self.columns[0].values.size


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
        _check_unique(self.labels)
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
        a read-only copy; so is R.
        """
        R = linalg._r_factor(self.X)
        R.flags.writeable = False
        return R

    @cached_property
    def _shared(self) -> dict:
        """Read-only intermediates the measures derive from factors (diagnostics._once)."""
        return {}


def roles_from_flags(header, response=None, dummies=(), quants=()) -> dict[str, ColumnRole]:
    """Column roles as the CLI's flags declare them, checked against the
    CSV header.  Each label named must be in the header, once; when no
    quantitative label is named, every other header label is quantitative."""
    roles: dict[str, ColumnRole] = {}
    declared = [(response, ColumnRole.RESPONSE)] if response else []
    declared += [(label, ColumnRole.DUMMY) for label in dummies]
    declared += [(label, ColumnRole.QUANTITATIVE) for label in quants]
    for label, role in declared:
        if label not in header:
            raise ValueError(f"column {label!r} not present in the CSV header")
        if label in roles:
            raise ValueError(f"column {label!r} declared with more than one role")
        roles[label] = role
    if not quants:
        for label in header:
            roles.setdefault(label, ColumnRole.QUANTITATIVE)
    return roles


# np.loadtxt's float grammar (Python's float() without digit-group
# underscores or non-ASCII digits), spelled out for the error path
_NUMBER = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?|inf(inity)?|nan)",
                     re.IGNORECASE)


def load_csv(path, roles, add_intercept: bool = True) -> Dataset:
    """Load a CSV file into a Dataset.

    roles maps column labels to ColumnRole (or its string value), or is a
    function of the header returning that map.  Header columns absent
    from roles are skipped and recorded in Dataset.skipped.  Comma
    separator, '"' quoting, '.' decimal mark, first row is the header,
    UTF-8 with or without a byte-order mark.  A cell is a number in
    numpy's float syntax, optionally quoted and padded with whitespace;
    no comments.  Blank lines are skipped.  A missing, non-numeric or
    non-finite cell is an error naming its line and column, never imputed.
    """
    try:  # universal newlines: np.loadtxt rejects a bare '\r' line end
        fh = open(path, encoding="utf-8-sig")
    except FileNotFoundError:
        raise FileNotFoundError(f"data file not found: {path}") from None
    try:
        with fh:
            try:
                header = [h.strip() for h in next(csv.reader(fh))]
            except StopIteration:
                raise ValueError(f"{path}: no header row (empty file)") from None
            roles = {label: ColumnRole(role)
                     for label, role in (roles(header) if callable(roles) else roles).items()}
            unknown = sorted(set(roles) - set(header))
            if unknown:
                raise ValueError(f"{path}: labels in roles not present in header: {unknown}")
            used = [j for j, label in enumerate(header) if label in roles]
            skip = {j: lambda cell: 0.0 for j in range(len(header)) if j not in used}
            try:
                with warnings.catch_warnings():  # an empty body warns; it is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                                      converters=skip)
                failure = None
            except ValueError as exc:
                data, failure = np.empty((0, 0)), exc
            if not (len(data) and data.shape[1] == len(header) and np.isfinite(data).all()):
                fh.seek(0)
                rows = csv.reader(fh)
                next(rows)
                raise _first_error(rows, path, header, roles, failure)
    except UnicodeDecodeError:
        raise _not_utf8(path, "utf-8-sig") from None

    return Dataset(
        name=str(path),
        columns=tuple(Column(header[j], roles[header[j]], data[:, j]) for j in used),
        add_intercept=add_intercept,
        skipped=tuple(label for label in header if label not in roles),
    )


def _not_utf8(path, encoding: str) -> ValueError:
    """The error for a text file that failed to decode as encoding (a UTF-8
    codec), naming the first line with a bad byte: surrogateescape reads
    each such byte as one of U+DC80-DCFF."""
    with open(path, encoding=encoding, errors="surrogateescape") as fh:
        lineno = next(i for i, line in enumerate(fh, 1) if re.search("[\udc80-\udcff]", line))
    return ValueError(f"{path}:{lineno}: not valid UTF-8")


def _first_error(rows, path, header, roles, failure) -> ValueError:
    """The error np.loadtxt's failure stands for, found again row by row:
    the first row of the wrong width, else the first bad cell of the first
    used column that has one.  Line numbers count blank lines."""
    kept = []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            return ValueError(f"{path}:{lineno}: expected {len(header)} cells, found {len(row)}")
        kept.append((lineno, row))
    if not kept:
        return ValueError(f"{path}: no data rows")
    for j, label in enumerate(header):
        if label not in roles:
            continue
        cells = [(lineno, row[j].strip()) for lineno, row in kept]
        for lineno, cell in cells:
            if cell == "":
                return ValueError(f"{path}:{lineno}: missing value in column {label!r}")
            if not _NUMBER.fullmatch(cell):
                return ValueError(f"{path}:{lineno}: non-numeric value {cell!r} in column {label!r}")
        for lineno, cell in cells:
            if not math.isfinite(float(cell)):
                return ValueError(f"{path}:{lineno}: non-finite value {cell!r} in column {label!r}")
    return ValueError(f"{path}: {failure or 'rows do not split into the header columns'}")


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

    start = int(d.add_intercept)  # regressors follow the intercept column, if any
    return DesignMatrix(
        X=np.column_stack([np.ones(d.n)] * start + [c.values for c in regressors]),
        intercept_present=d.add_intercept,
        quantitative_idx=tuple(start + i for i, c in enumerate(regressors)
                               if c.role is ColumnRole.QUANTITATIVE),
        dummy_idx=tuple(start + i for i, c in enumerate(regressors) if c.role is ColumnRole.DUMMY),
        labels=("intercept",) * start + tuple(c.label for c in regressors),
    )


def response_vector(d: Dataset) -> np.ndarray:
    """The single declared response column of d."""
    responses = [c for c in d.columns if c.role is ColumnRole.RESPONSE]
    if len(responses) != 1:
        raise ValueError(f"exactly one response column required, found {len(responses)}")
    return responses[0].values.copy()
