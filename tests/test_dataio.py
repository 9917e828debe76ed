"""Tests for CSV loading and horizontal splitting."""

import numpy as np
import pytest

from maskreg.dataio import Dataset, load_csv, split_horizontal
from maskreg.errors import (
    MissingResponse,
    NonNumericCell,
    ParseError,
    TooManyAgencies,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_with_header_by_name(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_csv(path, "y")
    assert ds.x.shape == (3, 2)
    assert ds.y.tolist() == [3.0, 6.0, 9.0]
    assert ds.feature_names == ("a", "b")
    assert ds.response_name == "y"


def test_load_with_header_by_index(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
    ds = load_csv(path, 0)
    assert ds.y.tolist() == [1.0, 4.0]
    assert ds.feature_names == ("b", "y")


def test_load_without_header(tmp_path):
    path = write(tmp_path, "1,2,3\n4,5,6\n")
    ds = load_csv(path, 2, has_header=False)
    assert ds.y.tolist() == [3.0, 6.0]
    assert ds.feature_names == ("x0", "x1")


def test_negative_response_index(tmp_path):
    path = write(tmp_path, "1,2,3\n4,5,6\n", name="n.csv")
    ds = load_csv(path, -1, has_header=False)
    assert ds.y.tolist() == [3.0, 6.0]


def test_blank_line_rejected_with_line_number(tmp_path):
    path = write(tmp_path, "a,y\n1,2\n\n3,4\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path, "y")


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path, "y")


def test_non_numeric_cell_position(tmp_path):
    path = write(tmp_path, "a,y\n1,2\n3,oops\n")
    with pytest.raises(NonNumericCell, match="line 3, column 2"):
        load_csv(path, "y")


def test_nan_and_inf_rejected(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = write(tmp_path, f"a,y\n1,{bad}\n", name=f"{bad.strip('-')}.csv")
        with pytest.raises(NonNumericCell):
            load_csv(path, "y")


def test_response_name_without_header(tmp_path):
    path = write(tmp_path, "1,2\n3,4\n")
    with pytest.raises(MissingResponse):
        load_csv(path, "y", has_header=False)


def test_unknown_response_name(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(MissingResponse):
        load_csv(path, "z")


def test_response_index_out_of_range(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(MissingResponse):
        load_csv(path, 5)


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "a,b\n")
    with pytest.raises(ParseError):
        load_csv(path, "a")


def test_wide_survey_scale_file(tmp_path):
    # a dataset the shape of a mid-sized clinical registry: 7200 rows,
    # 21 features plus response
    rng = np.random.default_rng(0)
    data = rng.standard_normal((7200, 22))
    header = ",".join([f"f{i}" for i in range(21)] + ["y"])
    body = "\n".join(",".join(f"{v:.6f}" for v in row) for row in data)
    path = write(tmp_path, header + "\n" + body + "\n", name="wide.csv")
    ds = load_csv(path, "y")
    assert ds.x.shape == (7200, 21)
    assert ds.p == 21


def _dataset(n, p=3):
    rng = np.random.default_rng(n)
    return Dataset(
        x=rng.standard_normal((n, p)),
        y=rng.standard_normal(n),
        feature_names=tuple(f"f{i}" for i in range(p)),
        response_name="y",
    )


def test_split_equal_sizes():
    parts = split_horizontal(_dataset(10), 2)
    assert [s.n for s in parts] == [5, 5]
    parts = split_horizontal(_dataset(10), 3)
    assert [s.n for s in parts] == [4, 3, 3]


def test_split_preserves_row_order():
    ds = _dataset(9)
    parts = split_horizontal(ds, 2)
    np.testing.assert_array_equal(np.vstack([p.x for p in parts]), ds.x)
    np.testing.assert_array_equal(np.concatenate([p.y for p in parts]), ds.y)


def test_split_too_many_agencies():
    with pytest.raises(TooManyAgencies):
        split_horizontal(_dataset(3), 4)


def test_split_many_small_shards():
    parts = split_horizontal(_dataset(5000), 100)
    assert len(parts) == 100
    assert all(s.n == 50 for s in parts)
