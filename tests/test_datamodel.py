import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rlda.datamodel import (
    GroupedDataset,
    GroupMeans,
    SimulationConfig,
    group_means,
    load_csv,
    load_matrix_csv,
    save_csv,
    simulate,
    sparse_shift,
)
from rlda.datamodel import _parse_in_c

from conftest import random_grouped


def naive_column_means(values, labels, k):
    """Independent oracle: plain Python accumulation, no vectorization."""
    p = values.shape[1]
    sums = [[0.0] * p for _ in range(k)]
    counts = [0] * k
    for row, lab in zip(values, labels):
        counts[lab] += 1
        for j in range(p):
            sums[lab][j] += row[j]
    return np.array([[s / c for s in row] for row, c in zip(sums, counts)])


class TestGroupedDataset:
    def test_valid_construction(self):
        d = GroupedDataset(np.zeros((3, 2)), np.array([0, 1, 0]), ("a", "b"))
        assert d.n == 3 and d.p == 2 and d.n_groups == 2
        assert_array_equal(d.group_counts, [2, 1])

    def test_rejects_nonfinite(self):
        values = np.array([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="row 1, column 0"):
            GroupedDataset(values, np.array([0, 1]), ("a", "b"))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="non-existing group"):
            GroupedDataset(np.zeros((2, 2)), np.array([0, 2]), ("a", "b"))

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="no observations"):
            GroupedDataset(np.zeros((2, 2)), np.array([0, 0]), ("a", "b"))

    def test_values_immutable(self):
        d = GroupedDataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "b"))
        with pytest.raises(ValueError):
            d.values[0, 0] = 1.0


class TestGroupMeans:
    def test_two_singleton_groups(self):
        d = GroupedDataset(np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([0, 1]), ("a", "b"))
        m = group_means(d)
        assert_allclose(m.per_group, [[0.0, 0.0], [2.0, 2.0]])
        assert_allclose(m.pooled, [1.0, 1.0])

    def test_single_group_identical_rows(self):
        v = np.array([3.0, -1.0, 2.0])
        d = GroupedDataset(np.tile(v, (4, 1)), np.zeros(4, dtype=int), ("only",))
        m = group_means(d)
        assert_allclose(m.per_group[0], v)
        assert_allclose(m.pooled, v)

    def test_matches_naive_summation_oracle(self, rng):
        values = rng.standard_normal((6, 3))
        labels = np.array([0, 1, 0, 1, 1, 0])
        d = GroupedDataset(values, labels, ("a", "b"))
        m = group_means(d)
        assert_allclose(m.per_group, naive_column_means(values, labels, 2), atol=1e-12)
        assert_allclose(m.pooled, values.sum(axis=0) / 6, atol=1e-12)

    def test_pooled_mean_minimizes_squared_residuals(self, rng):
        d = random_grouped(rng, (4, 5), p=3)
        m = group_means(d)
        base = np.sum((d.values - m.pooled) ** 2)
        for _ in range(20):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            v *= rng.uniform(0.01, 2.0)
            assert np.sum((d.values - (m.pooled + v)) ** 2) > base

    def test_invariant_under_within_group_permutation(self, rng):
        d = random_grouped(rng, (5, 4), p=3)
        perm = np.concatenate([rng.permutation(np.flatnonzero(d.labels == g)) for g in range(2)])
        shuffled = GroupedDataset(d.values[perm], d.labels[perm], d.group_names)
        assert_allclose(group_means(shuffled).per_group, group_means(d).per_group)
        assert_allclose(group_means(shuffled).pooled, group_means(d).pooled)

    def test_consistency_validated(self):
        with pytest.raises(ValueError, match="count-weighted"):
            GroupMeans(pooled=np.array([9.0]), per_group=np.array([[0.0], [1.0]]), counts=np.array([1, 1]))


class TestLoadMatrixCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "matrix.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_reads_matrix_and_header(self, tmp_path):
        matrix, header = load_matrix_csv(self.write(tmp_path, "a, b\n1,2\n3, 4\n"))
        assert header == ["a", "b"]
        assert_array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8-sig")
        matrix, header = load_matrix_csv(path)
        assert header == ["a", "b"]
        assert_array_equal(matrix, [[1.0, 2.0]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        path = self.write(tmp_path, f"a,b,c\n1,2,3\n4,5,6\n7,8,{cell}\n")
        with pytest.raises(ValueError, match=f"row 4, column 'c': non-finite value '{cell}'"):
            load_matrix_csv(path)

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,x\n")
        with pytest.raises(ValueError, match="row 3, column 'b': non-numeric cell 'x'"):
            load_matrix_csv(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty file"),
            ("a,b\n1,2\n3\n", "row 3 has 1 cells, expected 2"),
            ("a,b\n", "no data rows"),
        ],
        ids=["empty", "ragged", "header-only"],
    )
    def test_malformed_file_is_named(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_matrix_csv(path)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_small_fixture(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,grp\n1,2,a\n3,4,b\n5,6,a\n7,8,b\n")
        d = load_csv(path, "grp")
        assert d.n == 4 and d.n_groups == 2 and d.p == 2
        assert d.group_names == ("a", "b")
        assert_array_equal(d.labels, [0, 1, 0, 1])

    def test_label_order_is_first_appearance(self, tmp_path):
        path = self.write(tmp_path, "f1,grp\n1,zebra\n2,ant\n3,zebra\n")
        d = load_csv(path, "grp")
        assert d.group_names == ("zebra", "ant")

    def test_blank_cell_names_location(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,grp\n1,2,a\n3,,b\n")
        with pytest.raises(ValueError, match="row 3, column 'f2'"):
            load_csv(path, "grp")

    def test_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "f1,grp\nok,a\n2,b\n")
        with pytest.raises(ValueError, match="non-numeric cell 'ok'"):
            load_csv(path, "grp")

    def test_nan_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, "f1,grp\nnan,a\n2,b\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(path, "grp")

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999", "NaN"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        path = self.write(tmp_path, f"f1,f2,grp\n1,2,a\n3,{cell},b\n")
        with pytest.raises(ValueError, match=f"row 3, column 'f2': non-finite value '{cell}'"):
            load_csv(path, "grp")

    def test_first_bad_cell_reported(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,grp\n1,nan,a\nx,2,b\n")
        with pytest.raises(ValueError, match="row 2, column 'f2': non-finite"):
            load_csv(path, "grp")

    def test_single_group_rejected(self, tmp_path):
        path = self.write(tmp_path, "f1,grp\n1,a\n2,a\n")
        with pytest.raises(ValueError, match="fewer than 2 groups"):
            load_csv(path, "grp")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "grp")

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "f1,f2\n1,2\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path, "grp")

    def test_round_trip(self, tmp_path, rng):
        d = random_grouped(rng, (3, 4), p=2)
        path = tmp_path / "rt.csv"
        save_csv(d, path, label_column="grp")
        back = load_csv(path, "grp")
        assert_array_equal(back.labels, d.labels)
        assert_allclose(back.values, d.values, rtol=0, atol=0)

    def test_byte_order_mark_before_the_label_column(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("grp,f1,f2\nx,1,2\ny,3,4\n", encoding="utf-8-sig")
        d = load_csv(path, "grp")
        assert d.group_names == ("x", "y")
        assert_array_equal(d.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_crlf_and_padded_cells(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"f1, f2 ,grp\r\n1, 2 , a\r\n3,4,b\r\n")
        d = load_csv(path, "grp")
        assert d.n == 2 and d.group_names == ("a", "b")
        assert_allclose(d.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_reports_position(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f1,f2,grp\n1,2,a\n3,b\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 3 has 2 cells"):
            load_csv(path, "grp")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty file"),
            ("f1,grp\n", "no data rows"),
            ("f1,grp\n1,a\n2, \n", "row 3, column 'grp': empty label"),
            ("grp\na\nb\n", "no feature columns besides the label column"),
        ],
        ids=["empty", "header-only", "empty-label", "no-feature-column"],
    )
    def test_malformed_file_is_named(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_csv(path, "grp")


@pytest.mark.parametrize(
    "load", [lambda path: load_csv(path, "grp"), load_matrix_csv], ids=["load_csv", "load_matrix_csv"]
)
def test_file_that_is_not_utf8_is_refused_by_name(tmp_path, load):
    # Latin-1 text: the C reader hands the file on, and the csv.reader path names it.
    path = tmp_path / "latin1.csv"
    path.write_bytes("f1,f2,grp\n1,2,caf\xe9\n3,4,th\xe9\n".encode("latin-1"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xe9")):
        load(path)


def read_with_float(path, label_column=None):
    """Oracle: ``csv.reader``'s cells and one ``float()`` per cell; labels coded by first appearance."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header, *rows = csv.reader(fh)
    groups = {}
    labels = []
    if label_column is not None:
        idx = [h.strip() for h in header].index(label_column)
        labels = [groups.setdefault(row.pop(idx).strip(), len(groups)) for row in rows]
    return np.array([[float(c) for c in row] for row in rows]), labels, tuple(groups)


def load_either(path, label_column=None):
    """``load_matrix_csv`` without a label column, else ``load_csv`` taking a single group."""
    return load_matrix_csv(path) if label_column is None else load_csv(path, label_column, min_groups=1)


def assert_reads_as_float_does(path, label_column=None):
    expected, labels, names = read_with_float(path, label_column)
    loaded = load_either(path, label_column)
    if label_column is None:
        values, _ = loaded
    else:
        values = loaded.values
        assert loaded.labels.tolist() == labels and loaded.group_names == names
    assert values.shape == expected.shape
    assert_array_equal(values.view(np.int64), expected.view(np.int64))


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0.0", "5e-324", "1.7976931348623157e308", "-2.2250738585072014e-308", "1E+300", "4e-7"]),
)
CELL_STYLES = ["{}", " {} ", '"{}"', '" {}\t"']


class TestCsvReaderMatchesFloat:
    """The C reader against the per-cell ``float()`` oracle, compared bit for bit."""

    @pytest.mark.parametrize(
        "text,label_column",
        [
            ("a,b,c\n-0.0,5e-324,1.7976931348623157e308\n7,-12345678901234567890,1e-5\n1E+300,.5,+2.\n", None),
            ('a,b\n 1.5 ,"2.5"\n" -3 ",\t4e2\t\n', None),
            ("a,b\r\n1,2\r\n3,4\r\n", None),
            ("\ufeffa,b\n0.1,0.2\n", None),
            ('f1,grp,f2\n1,"a,b",2\n3, c ,4\n5,"a,b",6\n', "grp"),
            ('\ufeffgrp,f1\r\n"x ""y""",0.30000000000000004\r\nz,-0.0', "grp"),
        ],
        ids=["edge-values", "padded-and-quoted", "crlf", "bom", "quoted-label-with-comma", "bom-crlf-escaped-quote"],
    )
    def test_files(self, tmp_path, text, label_column):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _parse_in_c(path, label_column) is not None  # the C reader, not the fallback, reads it
        assert_reads_as_float_does(path, label_column)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.lists(st.tuples(NUMBERS, st.sampled_from(CELL_STYLES)), min_size=2, max_size=2),
                      min_size=1, max_size=5),
        labels=st.lists(st.sampled_from(["a", " b ", '"c,d"']), min_size=5, max_size=5),
        newline=st.sampled_from(["\n", "\r\n"]),
        encoding=st.sampled_from(["utf-8", "utf-8-sig"]),
    )
    def test_random_cells(self, tmp_path_factory, rows, labels, newline, encoding):
        lines = [[style.format(number) for number, style in row] for row in rows]
        unlabeled = newline.join(["a,b", *(",".join(cells) for cells in lines)]) + newline
        labeled = newline.join(["a,grp,b", *(f"{a},{g},{b}" for (a, b), g in zip(lines, labels))]) + newline
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        for text, label_column in ((unlabeled, None), (labeled, "grp")):
            path.write_text(text, encoding=encoding, newline="")
            assert _parse_in_c(path, label_column) is not None
            assert_reads_as_float_does(path, label_column)

    # Where numpy's reader and csv.reader + float() part ways, the csv.reader reading holds.
    @pytest.mark.parametrize(
        "text,row",
        [("a,g\n1,x\n\n2,y\n", 3), ("a,g\n1,x\n2,y\n\n", 4), ("a,g\r\n1,x\r\n\r\n", 3)],
        ids=["mid-file", "at-the-end", "crlf"],
    )
    def test_blank_line_is_a_row_of_no_cells(self, tmp_path, text, row):
        path = tmp_path / "blank.csv"
        path.write_bytes(text.encode("utf-8"))
        for label_column in (None, "g"):
            with pytest.raises(ValueError, match=re.escape(f"{path}: row {row} has 0 cells, expected 2")):
                load_either(path, label_column)

    def test_digit_separators_and_non_ascii_digits_read_as_float_does(self, tmp_path):
        path = tmp_path / "digits.csv"
        path.write_text("a,b,g\n1_0,\u0661\u0662,x\n2,3,y\n", encoding="utf-8")
        assert_array_equal(load_csv(path, "g").values, [[10.0, 12.0], [2.0, 3.0]])
        assert_reads_as_float_does(path, "g")

    def test_hash_is_a_cell_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("a,b\n1,2\n#1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape("row 3, column 'a': non-numeric cell '#1'")):
            load_matrix_csv(path)

    @pytest.mark.parametrize(
        "text,label_column",
        [
            ("a,b\n" + " " * 131073 + "1,2\n", None),
            ("a,g\n1," + "x" * 131073 + "\n2,y\n", "g"),
            ('a,g\n1,"' + "x," * 65537 + '"\n2,y\n', "g"),
        ],
        ids=["number", "label", "quoted-label-with-commas"],
    )
    def test_field_over_the_csv_size_limit_is_refused(self, tmp_path, text, label_column):
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8")
        message = f"{path}: row 2: field larger than field limit ({csv.field_size_limit()})"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_either(path, label_column)

    def test_line_over_the_csv_size_limit_with_short_fields_is_read_in_c(self, tmp_path):
        path = tmp_path / "wide.csv"
        save_csv(random_grouped(np.random.default_rng(3), (2, 2), p=8000), path)
        with open(path, encoding="utf-8") as fh:
            assert max(map(len, fh)) > csv.field_size_limit()
        assert _parse_in_c(path, "group") is not None
        assert_reads_as_float_does(path, "group")

    def test_nul_in_a_label_reads_as_csv_reader_does(self, tmp_path):
        path = tmp_path / "nul.csv"
        path.write_text("a,g\n1,x\0y\n2,z\n", encoding="utf-8")
        try:
            read_with_float(path, "g")
        except csv.Error as exc:  # csv refuses NUL before Python 3.11
            with pytest.raises(ValueError, match=re.escape(f"{path}: row 2: {exc}")):
                load_csv(path, "g")
        else:
            assert_reads_as_float_does(path, "g")

    def test_reading_peaks_below_three_times_the_file(self, tmp_path):
        path = tmp_path / "train.csv"
        save_csv(random_grouped(np.random.default_rng(5), (50, 50), p=1000), path)
        load_csv(path, "group")  # first-call imports stay out of the measurement
        tracemalloc.start()
        try:
            load_csv(path, "group")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The file's lines and the parsed table; one Python str per cell would take about 6x.
        assert peak <= 3 * path.stat().st_size


class TestSimulate:
    def benchmark_config(self, seed=11, **overrides):
        kwargs = dict(n=50, m=50, p=1000, sigma=1.0, c=0.4, shift=sparse_shift(1000, 5, 3.0), seed=seed)
        kwargs.update(overrides)
        return SimulationConfig(**kwargs)

    def test_reference_design_shape(self):
        d = simulate(self.benchmark_config())
        assert d.values.shape == (100, 1000)
        assert d.n_groups == 2
        assert_array_equal(d.group_counts, [50, 50])
        # shifted group: first 5 coordinates near 3, the rest near 0
        mean_y = d.values[d.labels == 1].mean(axis=0)
        assert np.all(np.abs(mean_y[:5] - 3.0) < 1.0)
        assert np.all(np.abs(mean_y[5:]) < 1.0)

    def test_independent_case_recovers_identity_covariance(self):
        n = 4000
        cfg = SimulationConfig(n=n, m=1, p=5, sigma=1.5, c=0.0, shift=np.zeros(5), seed=3)
        d = simulate(cfg)
        x = d.values[d.labels == 0]
        cov = np.cov(x, rowvar=False)
        se_diag = 1.5**2 * np.sqrt(2.0 / n)
        se_off = 1.5**2 / np.sqrt(n)
        for i in range(5):
            for j in range(5):
                tol = 3 * (se_diag if i == j else se_off)
                expected = 1.5**2 if i == j else 0.0
                assert abs(cov[i, j] - expected) < tol, (i, j)

    def test_deterministic_given_seed(self):
        a = simulate(self.benchmark_config(seed=5, p=50, shift=sparse_shift(50, 5, 3.0)))
        b = simulate(self.benchmark_config(seed=5, p=50, shift=sparse_shift(50, 5, 3.0)))
        assert_array_equal(a.values, b.values)
        assert_array_equal(a.labels, b.labels)

    def test_equicorrelation_monte_carlo(self):
        cfg = SimulationConfig(n=5000, m=1, p=4, sigma=1.0, c=0.4, shift=np.zeros(4), seed=9)
        x = simulate(cfg).values[:5000]
        corr = np.corrcoef(x, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - 0.4) < 0.05)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match=r"c must lie"):
            SimulationConfig(n=2, m=2, p=2, sigma=1.0, c=1.0, shift=np.zeros(2), seed=0)
        with pytest.raises(ValueError, match="sigma"):
            SimulationConfig(n=2, m=2, p=2, sigma=0.0, c=0.5, shift=np.zeros(2), seed=0)
        with pytest.raises(ValueError, match="length-p"):
            SimulationConfig(n=2, m=2, p=2, sigma=1.0, c=0.5, shift=np.zeros(3), seed=0)
        with pytest.raises(ValueError, match="sigma must be finite, got inf"):
            SimulationConfig(n=2, m=2, p=2, sigma=np.inf, c=0.5, shift=np.zeros(2), seed=0)
        with pytest.raises(ValueError, match="shift must be finite, got -inf"):
            SimulationConfig(n=2, m=2, p=2, sigma=1.0, c=0.5, shift=np.array([0.0, -np.inf]), seed=0)

    def test_sparse_shift(self):
        assert_allclose(sparse_shift(4, 2, 1.5), [1.5, 1.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            sparse_shift(2, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: GroupedDataset(np.zeros(3), np.zeros(3, dtype=int), ("a",)),
            "values must be a 2-D array, got ndim=1",
            id="values-ndim",
        ),
        pytest.param(
            lambda: GroupedDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), ("a",)),
            "labels must be a 1-D array with one entry per row",
            id="labels-shape",
        ),
        pytest.param(
            lambda: GroupedDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ("a",)),
            "dataset must contain at least one row and one column",
            id="empty",
        ),
        pytest.param(
            lambda: GroupedDataset(np.zeros((2, 2)), np.zeros(2, dtype=int), ()),
            "at least one group is required",
            id="no-groups",
        ),
        pytest.param(
            lambda: GroupMeans(np.zeros(3), np.zeros((2, 2)), np.array([1, 1])),
            "pooled mean length must match per_group columns",
            id="means-pooled-shape",
        ),
        pytest.param(
            lambda: GroupMeans(np.zeros(2), np.zeros((2, 2)), np.array([1])),
            "counts must have one entry per group",
            id="means-counts-shape",
        ),
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
