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


def _check_unique(labels: tuple[str, ...]) -> None:
    dup = sorted({l for l in labels if labels.count(l) > 1})
    if dup:
        raise ValueError(f"duplicate column labels: {dup}")


@dataclass(frozen=True)
class Dataset:
    """A table with declared roles: column j of the n x m array values is
    labels[j], in role roles[j] (a ColumnRole or its string).  values is
    copied once and read-only, and each column passes linalg._check_columns."""

    name: str
    labels: tuple[str, ...]
    roles: tuple[ColumnRole, ...]
    values: np.ndarray

    def __post_init__(self):
        labels, roles = tuple(self.labels), tuple(map(ColumnRole, self.roles))
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "values", values)
        if not labels:
            raise ValueError("dataset has no columns")
        if values.shape[1:] != (len(labels),) or len(roles) != len(labels):
            raise ValueError(f"{len(labels)} labels, {len(roles)} roles, {values.shape} values")
        if self.n < 2:
            raise ValueError("at least 2 observations are required")
        _check_unique(labels)
        if roles.count(ColumnRole.RESPONSE) > 1:
            raise ValueError("more than one response column declared")
        linalg._check_columns(values, labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DesignMatrix:
    """An n x k regression design matrix that knows its column roles.

    X is a read-only copy kept column-major (Fortran order), so each
    column is one contiguous run, as LAPACK and the per-column measures
    read it.  When intercept_present, column 0 is exactly the all-ones
    vector.  quantitative_idx and dummy_idx are 0-based column indices
    into X and, together with the intercept, partition all columns.  Construction is
    the one gate of every design, built from a table or by hand, checked in
    this order: X is 2-d, the labels are one per column and unique, every
    column passes linalg._check_columns (finite, small enough to sum), the
    roles partition the columns, a dummy holds only 0 and 1, and no
    quantitative column is constant (its correlation with any column is
    undefined, with or without an intercept).  Errors name the column.
    """

    X: np.ndarray
    intercept_present: bool
    quantitative_idx: tuple[int, ...]
    dummy_idx: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        X = np.array(self.X, dtype=float, order="F")
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "quantitative_idx", tuple(int(i) for i in self.quantitative_idx))
        object.__setattr__(self, "dummy_idx", tuple(int(i) for i in self.dummy_idx))
        object.__setattr__(self, "labels", tuple(self.labels))

        n, k = X.shape
        if len(self.labels) != k:
            raise ValueError(f"{len(self.labels)} labels for {k} columns")
        _check_unique(self.labels)
        lo, hi = linalg._check_columns(X, self.labels)
        claimed = set(self.quantitative_idx) | set(self.dummy_idx)
        if self.intercept_present:
            if k == 0 or not np.array_equal(X[:, 0], np.ones(n)):
                raise ValueError("intercept_present but column 0 is not all ones")
            claimed |= {0}
        if len(self.quantitative_idx) + len(self.dummy_idx) + int(self.intercept_present) != k \
                or claimed != set(range(k)):
            raise ValueError("column roles do not partition the design matrix columns")
        for i in self.dummy_idx:
            if not np.isin(X[:, i], (0.0, 1.0)).all():
                raise ValueError(f"dummy column {self.labels[i]!r} contains values other than 0 and 1")
        for i in self.quantitative_idx:
            if lo[i] == hi[i]:
                raise ValueError(f"quantitative column {self.labels[i]!r} has zero variance")

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
        """M with A = QM, Q orthonormal, computed once per design from the
        centered columns: A is X, or [X | 1] when X has no intercept.  M is
        [[sqrt(n), sqrt(n) m'], [0, R_c]], m the means of X's non-intercept
        columns and R_c the R of those columns centered (linalg._center),
        with at most n - 1 rows, as they have rank n - 1 at most; without an
        intercept the ones column moves last, so X's columns keep their
        indexes.  Each column block of M has the singular values, norms and
        cross products of the same block of A, and the centered block loses
        no digit to a low CV.  Caching is safe: X is a read-only copy; so is M.
        """
        n, start = self.n, int(self.intercept_present)
        C, mean = linalg._center(self.X[:, start:])  # column-major, as X
        # reflect the ones vector onto the last row: the rows above are then the columns
        # centered to the last digit, of rank n - 1 at most, and the last row, -sqrt(n)
        # times the means' own rounding, is dropped (all of C is updated, in one
        # contiguous pass, since its last row is zeroed anyway)
        C -= (C.sum(axis=0) + math.sqrt(n) * C[-1]) / (n + math.sqrt(n))
        C[-1] = 0.0
        R_c = linalg._r_factor(C)[:n - 1]
        M = np.zeros((1 + len(R_c), C.shape[1] + 1))
        own = slice(1, None) if start else slice(-1)  # the ones column first, or last
        M[0, 0 if start else -1] = math.sqrt(n)
        M[0, own], M[1:, own] = math.sqrt(n) * mean, R_c
        M.flags.writeable = False
        return M

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


def load_csv(path, roles) -> Dataset:
    """Load a CSV file into a Dataset.

    roles maps column labels to ColumnRole (or its string value), or is a
    function of the header returning that map.  Header columns absent
    from roles are skipped.  Comma separator, '"' quoting, '.' decimal
    mark, first row is the header, UTF-8 with or without a byte-order
    mark.  A cell is a number in numpy's float syntax, optionally quoted
    and padded with whitespace; no comments.  Blank lines are skipped.  A
    missing, non-numeric or non-finite cell is an error naming its line
    and column, never imputed; a table rule that fails names the file.
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

    labels = [header[j] for j in used]
    try:
        return Dataset(str(path), labels, [roles[label] for label in labels], data[:, used])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


def design_matrix(d: Dataset, intercept: bool = True) -> DesignMatrix:
    """Build the design matrix from all non-response columns of d.

    The intercept ones column is synthesized first when intercept is true.
    A rule of DesignMatrix that the design breaks is an error naming d.
    """
    regressors = [j for j, role in enumerate(d.roles) if role is not ColumnRole.RESPONSE]
    if not regressors:
        raise ValueError(f"{d.name}: dataset has no regressor columns")

    start = int(intercept)  # regressors follow the intercept column, if any
    roles = [d.roles[j] for j in regressors]
    try:
        return DesignMatrix(
            X=np.column_stack([np.ones(d.n)] * start + [d.values[:, j] for j in regressors]),
            intercept_present=intercept,
            quantitative_idx=tuple(start + i for i, role in enumerate(roles)
                                   if role is ColumnRole.QUANTITATIVE),
            dummy_idx=tuple(start + i for i, role in enumerate(roles) if role is ColumnRole.DUMMY),
            labels=("intercept",) * start + tuple(d.labels[j] for j in regressors),
        )
    except ValueError as exc:
        raise ValueError(f"{d.name}: {exc}") from None


def response_vector(d: Dataset) -> np.ndarray:
    """The single declared response column of d, as a read-only view."""
    responses = [j for j, role in enumerate(d.roles) if role is ColumnRole.RESPONSE]
    if len(responses) != 1:
        raise ValueError(f"exactly one response column required, found {len(responses)}")
    return d.values[:, responses[0]]
