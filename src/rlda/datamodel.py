"""Core data containers, group statistics, CSV ingestion, and simulation.

Conventions
-----------
- Observation matrices have shape ``(n, p)``: rows are observations.
- Group labels are 0-based integer indices into ``group_names``; names are
  assigned by first appearance during ingestion, which keeps the encoding
  deterministic.
- :func:`load_csv` (labeled) and :func:`load_matrix_csv` (unlabeled)
  parse a CSV file with numpy's C reader, ``_parse_in_c``, whose values
  equal ``float()``'s bit for bit. Only that reader parses; it decides no
  error message. Every file it does not read exactly as ``csv.reader``
  and ``float()`` would, every malformed one included, goes to the
  ``csv.reader`` path, ``_parse_with_csv_reader``. There ``_read_rows``
  rejects a file that is not UTF-8 or that ``csv`` refuses, an empty
  file, a ragged row and a file without data rows, and ``_numeric_matrix``
  names the first bad cell by file row and column.
- All containers are immutable after construction and safe to share across
  threads.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import require_finite, require_lower_bound

__all__ = [
    "GroupedDataset",
    "GroupMeans",
    "SimulationConfig",
    "group_means",
    "load_csv",
    "load_matrix_csv",
    "save_csv",
    "simulate",
    "sparse_shift",
]


def _as_float_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class GroupedDataset:
    """An ``(n, p)`` observation matrix with group labels.

    Parameters
    ----------
    values : ndarray of shape (n, p)
        Observations, one per row. Must be finite.
    labels : ndarray of shape (n,)
        Group index of each row, 0-based.
    group_names : tuple of str
        One display name per group, in first-appearance order.

    Notes
    -----
    The container accepts a single group so that group statistics can be
    computed on one sample; ingestion and the classifiers require at least
    two groups.
    """

    values: np.ndarray
    labels: np.ndarray
    group_names: tuple[str, ...]
    group_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        values = _as_float_matrix(self.values, "values")
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.shape[0] != values.shape[0]:
            raise ValueError("labels must be a 1-D array with one entry per row")
        if values.shape[0] == 0 or values.shape[1] == 0:
            raise ValueError("dataset must contain at least one row and one column")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"non-finite value at row {bad[0]}, column {bad[1]}")
        k = len(self.group_names)
        if k < 1:
            raise ValueError("at least one group is required")
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError("labels reference a non-existing group")
        counts = np.bincount(labels, minlength=k)
        if np.any(counts < 1):
            empty = self.group_names[int(np.argmin(counts))]
            raise ValueError(f"group {empty!r} has no observations")
        values.setflags(write=False)
        labels.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "group_names", tuple(self.group_names))
        object.__setattr__(self, "group_counts", counts)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    def subset(self, rows: np.ndarray) -> "GroupedDataset":
        """Restrict to the given row indices, keeping the group encoding."""
        rows = np.asarray(rows, dtype=int)
        return GroupedDataset(self.values[rows], self.labels[rows], self.group_names)


@dataclass(frozen=True)
class GroupMeans:
    """Pooled mean and per-group means of a grouped dataset.

    ``pooled`` is the mean over all rows; row ``k`` of ``per_group`` is the
    arithmetic mean of group ``k``. By construction ``pooled`` equals the
    count-weighted average of the ``per_group`` rows.
    """

    pooled: np.ndarray
    per_group: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        pooled = np.asarray(self.pooled, dtype=float)
        per_group = _as_float_matrix(self.per_group, "per_group")
        counts = np.asarray(self.counts, dtype=int)
        if pooled.shape != (per_group.shape[1],):
            raise ValueError("pooled mean length must match per_group columns")
        if counts.shape != (per_group.shape[0],):
            raise ValueError("counts must have one entry per group")
        weighted = counts @ per_group / counts.sum()
        if not np.allclose(weighted, pooled, rtol=1e-9, atol=1e-9):
            raise ValueError("pooled mean must be the count-weighted average of group means")
        for arr in (pooled, per_group, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "pooled", pooled)
        object.__setattr__(self, "per_group", per_group)
        object.__setattr__(self, "counts", counts)


def group_means(data: GroupedDataset) -> GroupMeans:
    """Compute the pooled mean and the per-group means.

    Parameters
    ----------
    data : GroupedDataset

    Returns
    -------
    GroupMeans
    """
    k = data.n_groups
    per_group = np.empty((k, data.p))
    for g in range(k):
        per_group[g] = data.values[data.labels == g].mean(axis=0)
    pooled = data.values.mean(axis=0)
    return GroupMeans(pooled=pooled, per_group=per_group, counts=data.group_counts.copy())


@dataclass(frozen=True)
class SimulationConfig:
    """Two-group equicorrelated Gaussian design.

    Group one follows ``N_p(0, Sigma)`` and group two ``N_p(shift, Sigma)``
    with ``Sigma = sigma^2 [(1 - c) I + c 11^T]``, positive definite for
    ``c`` in ``[0, 1)``.

    Parameters
    ----------
    n, m : int
        Group sample sizes.
    p : int
        Dimension.
    sigma : float
        Scale; must be positive and finite.
    c : float
        Equicorrelation in ``[0, 1)``.
    shift : ndarray of shape (p,)
        Mean of the second group; must be finite.
    seed : int
        64-bit seed; generation is bit-reproducible given the seed.
    """

    n: int
    m: int
    p: int
    sigma: float
    c: float
    shift: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("n", "m", "p"):
            require_lower_bound(getattr(self, name), name, 1)
        require_lower_bound(self.sigma, "sigma", positive=True)
        if not 0.0 <= self.c < 1.0:
            raise ValueError(f"c must lie in [0, 1), got {self.c}")
        shift = np.asarray(self.shift, dtype=float)
        if shift.shape != (self.p,):
            raise ValueError("shift must be a length-p vector")
        require_finite(shift, "shift")
        shift.setflags(write=False)
        object.__setattr__(self, "shift", shift)


def sparse_shift(p: int, shift_count: int = 5, value: float = 3.0) -> np.ndarray:
    """A p-vector whose first ``shift_count`` coordinates equal ``value``.

    ``p`` is checked first and ``shift_count`` against it, so a simulation
    built on this shift names the dimension or the count that is wrong.
    """
    require_lower_bound(p, "p", 1)
    if not 0 <= shift_count <= p:
        raise ValueError(f"shift_count must lie in [0, p] with p={p}, got {shift_count}")
    shift = np.zeros(p)
    shift[:shift_count] = value
    return shift


def _equicorrelated_sample(rng: np.random.Generator, rows: int, p: int, sigma: float, c: float) -> np.ndarray:
    # Factor form sigma * (sqrt(1-c) z + sqrt(c) z0 1): covariance
    # sigma^2 [(1-c) I + c 11^T] without any p x p factorization.
    z = rng.standard_normal((rows, p))
    z0 = rng.standard_normal(rows)
    return sigma * (np.sqrt(1.0 - c) * z + np.sqrt(c) * z0[:, None])


def simulate(config: SimulationConfig) -> GroupedDataset:
    """Draw the two-group equicorrelated Gaussian dataset.

    The generator is numpy's PCG64 seeded through ``SeedSequence(seed)``,
    with one spawned child stream per group; normal variates come from the
    generator's ziggurat method. Two calls with the same config are
    bitwise identical.

    Returns
    -------
    GroupedDataset
        ``n + m`` rows; group names ``("x", "y")``.
    """
    ss = np.random.SeedSequence(config.seed)
    stream_x, stream_y = ss.spawn(2)
    x = _equicorrelated_sample(np.random.default_rng(stream_x), config.n, config.p, config.sigma, config.c)
    y = _equicorrelated_sample(np.random.default_rng(stream_y), config.m, config.p, config.sigma, config.c)
    y += config.shift
    values = np.vstack([x, y])
    labels = np.concatenate([np.zeros(config.n, dtype=int), np.ones(config.m, dtype=int)])
    return GroupedDataset(values=values, labels=labels, group_names=("x", "y"))


@contextlib.contextmanager
def _csv_reader(path):
    """A ``csv.reader`` over ``path`` as UTF-8 text, without its byte-order mark.

    A file that is not UTF-8 is refused with a ``ValueError`` naming it,
    and so is one that ``csv`` refuses (a field over its size limit, or a
    NUL before Python 3.11), naming the file row as well.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: row {reader.line_num}: {exc}") from None


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    """The stripped header and the data rows of a comma-separated UTF-8 file, with or without a byte-order mark.

    This is the ``csv.reader`` path's reader. It raises ``ValueError`` on
    a file that is not UTF-8 or that ``csv`` refuses, on an empty file, on
    a row whose cell count differs from the header's (reporting its file
    row), and on a file with no data rows.
    """
    with _csv_reader(path) as reader:
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    for row_num, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows


def _csv_header(path) -> list[str]:
    """The stripped header of a CSV file, without reading its data rows; ``[]`` for an empty file."""
    with _csv_reader(path) as reader:
        return [h.strip() for h in next(reader, [])]


# The parse of a file: its stripped header, the (n, p) feature matrix, and for
# a labeled file the group index of each row and the group names.
_Parsed = tuple[list[str], np.ndarray, np.ndarray | None, tuple[str, ...]]


def _parse_in_c(path, label_column: str | None = None) -> _Parsed | None:
    """The file parsed by numpy's C reader; ``None`` where it could differ from ``csv.reader`` + ``float()``.

    ``numpy.loadtxt`` splits cells as ``csv.reader``'s default dialect
    does and converts each through ``PyOS_string_to_double``, which
    ``float()`` calls too, so the values are bit-identical. ``None`` hands
    the file to :func:`_parse_with_csv_reader`, which parses it or names
    its first bad row or cell. It is returned when numpy refuses the file,
    as it does a digit separator such as ``1_0`` or a non-ASCII digit,
    which ``float()`` reads; when numpy's row count differs from the
    file's lines, as where it skips a blank line, which ``csv.reader``
    reads as a row of 0 cells, or joins a quoted line break; on a field
    longer than ``csv``'s field size limit; on a NUL in a label, which
    ``csv`` refuses before Python 3.11; on a cell that is not finite; and
    on a file that fails a label or column check of :func:`load_csv`.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header = [h.strip() for h in next(csv.reader(fh), [])]
            lines = fh.readlines()  # split at \n, \r\n or a lone \r, as csv.reader reads them
    except (UnicodeDecodeError, csv.Error):
        return None
    # numpy warns on a file of blank lines, so a blank first line goes to csv.reader (which refuses it) unread.
    if not lines or not lines[0].rstrip("\r\n"):
        return None
    # A field over csv's size limit goes to csv.reader, which refuses it. Splitting a line at every comma can cut a
    # quoted field short, but numpy refuses a number holding a comma and group_index measures a label itself.
    limit = csv.field_size_limit()
    if any(len(line) > limit and max(map(len, line.split(","))) > limit for line in lines):
        return None
    groups: dict[str, int] = {}  # name -> index, in first-appearance order
    converters = None
    if label_column is not None:
        if label_column not in header or len(header) < 2:
            return None
        label_idx = header.index(label_column)

        def group_index(cell: str) -> int:
            name = cell.strip()
            if not name or "\0" in name or len(cell) > limit:
                raise ValueError("empty label, NUL or a field over the size limit")
            return groups.setdefault(name, len(groups))

        converters = {label_idx: group_index}
    try:  # encoding=None hands the converter str, not numpy 1.x's default latin-1 bytes
        table = np.loadtxt(
            lines, delimiter=",", quotechar='"', comments=None, ndmin=2, converters=converters, encoding=None
        )
    except ValueError:
        return None
    if table.shape != (len(lines), len(header)):
        return None
    labels = None
    if label_column is not None:
        labels = table[:, label_idx].astype(int)
        table = np.delete(table, label_idx, axis=1)
    if not np.isfinite(table).all():
        return None
    return header, table, labels, tuple(groups)


def _parse_with_csv_reader(path, label_column: str | None = None) -> _Parsed:
    """The file parsed by ``csv.reader`` and one ``float()`` per cell; a malformed file is refused by its first fault.

    Raises
    ------
    ValueError
        On a file that is not UTF-8 or that ``csv`` refuses (reporting its
        row), an empty file, a ragged row, no data rows, a missing label
        column, no feature column, an empty label, or a missing,
        non-numeric or non-finite cell (reporting row and column).
    """
    header, rows = _read_rows(path)
    if label_column is None:
        return header, _numeric_matrix(path, header, rows), None, ()
    if label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not found in header {header}")
    label_idx = header.index(label_column)
    feature_names = header[:label_idx] + header[label_idx + 1 :]
    if not feature_names:
        raise ValueError(f"{path}: no feature columns besides the label column")
    groups: dict[str, int] = {}  # name -> index, in first-appearance order
    labels: list[int] = []
    for row_num, row in enumerate(rows, start=2):
        name = row.pop(label_idx).strip()
        if not name:
            raise ValueError(f"{path}: row {row_num}, column {label_column!r}: empty label")
        labels.append(groups.setdefault(name, len(groups)))
    return header, _numeric_matrix(path, feature_names, rows), np.array(labels), tuple(groups)


def load_csv(path, label_column: str, min_groups: int = 2) -> GroupedDataset:
    """Load a grouped dataset from a headered, comma-separated UTF-8 file.

    Every column except ``label_column`` must be numeric and finite. Label
    strings are mapped to group indices in order of first appearance.
    Fitting needs ``min_groups=2``; a labeled batch of queries may hold a
    single group. Numbers are parsed in C and equal ``float()`` of each
    cell bit for bit.

    Raises
    ------
    FileNotFoundError
        If the file does not exist.
    ValueError
        On a file that is not UTF-8 or that ``csv`` refuses (reporting its
        row), an empty file, a ragged row, no data rows, a missing label
        column, no feature column, an empty label, a missing or
        non-numeric cell (reporting row and column), or fewer than
        ``min_groups`` groups.
    """
    _, values, labels, group_names = _parse_in_c(path, label_column) or _parse_with_csv_reader(path, label_column)
    if len(group_names) < min_groups:
        raise ValueError(f"{path}: fewer than {min_groups} groups (found {len(group_names)})")
    return GroupedDataset(values=values, labels=labels, group_names=group_names)


def load_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    """Load an unlabeled numeric CSV as ``(matrix, column_names)``.

    Every cell must be numeric and finite; a bad cell is reported by row
    and column, as in :func:`load_csv`.
    """
    header, values, _, _ = _parse_in_c(path) or _parse_with_csv_reader(path)
    return values, header


def _numeric_matrix(path, names: list[str], rows: list[list[str]]) -> np.ndarray:
    """The cells of the data rows (file rows 2, 3, ...) as one finite float matrix, by one ``float()`` per cell.

    This is the ``csv.reader`` path's parser. ``names`` labels the columns
    in error messages. Every cell is parsed and the matrix checked by one
    ``isfinite``; only a failure scans the cells again, to name the first
    bad one.
    """
    try:
        values = np.array([[float(cell) for cell in row] for row in rows])
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for row_num, row in enumerate(rows, start=2):
        for name, cell in zip(names, row):
            cell = cell.strip()
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                raise ValueError(f"{path}: row {row_num}, column {name!r}: non-numeric cell {cell!r}") from None
            if not finite:
                raise ValueError(f"{path}: row {row_num}, column {name!r}: non-finite value {cell!r}")
    raise AssertionError("a cell failed the vectorized check but not the scan")


def save_csv(data: GroupedDataset, path, label_column: str = "group") -> None:
    """Write a grouped dataset in the format accepted by :func:`load_csv`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"v{j + 1}" for j in range(data.p)] + [label_column])
        for row, lab in zip(data.values, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [data.group_names[lab]])
