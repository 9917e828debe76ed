"""CSV ingestion and horizontal partitioning of a dataset across agencies."""

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MissingResponse,
    NonNumericCell,
    ParseError,
    TooManyAgencies,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Dataset:
    """A design matrix with its response column split out."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple
    response_name: str

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def p(self):
        return self.x.shape[1]


def load_csv(path, response_column, has_header=True):
    """Load a numeric CSV, peeling off the response column.

    `response_column` is a header name (requires has_header) or a 0-based
    column index. Every cell must parse as a finite float; errors carry
    1-based line numbers. Blank lines anywhere are rejected rather than
    skipped so that silent row loss cannot occur.
    """
    rows = []
    header = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if not row or all(c.strip() == "" for c in row):
                raise ParseError(f"line {line_no}: blank line")
            if line_no == 1 and has_header:
                header = [c.strip() for c in row]
                continue
            rows.append((line_no, row))
    if not rows:
        raise ParseError(f"{path}: no data rows")

    width = len(rows[0][1])
    if header is not None and len(header) != width:
        raise ParseError(
            f"line {rows[0][0]}: {width} cells but header has {len(header)}"
        )

    if isinstance(response_column, str):
        if header is None:
            raise MissingResponse(
                f"response {response_column!r} given by name but the file "
                "has no header"
            )
        try:
            resp_idx = header.index(response_column)
        except ValueError:
            raise MissingResponse(
                f"response column {response_column!r} not in header {header}"
            ) from None
    else:
        resp_idx = int(response_column)
        if resp_idx < 0:
            resp_idx += width
        if not 0 <= resp_idx < width:
            raise MissingResponse(
                f"response index {response_column} out of range for "
                f"{width} columns"
            )

    data = np.empty((len(rows), width))
    for i, (line_no, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"line {line_no}: expected {width} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                val = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"line {line_no}, column {j + 1}: {cell!r} is not numeric"
                ) from None
            if not math.isfinite(val):
                raise NonNumericCell(
                    f"line {line_no}, column {j + 1}: non-finite value {cell!r}"
                )
            data[i, j] = val

    feat_idx = [j for j in range(width) if j != resp_idx]
    if header is not None:
        feature_names = tuple(header[j] for j in feat_idx)
        response_name = header[resp_idx]
    else:
        feature_names = tuple(f"x{j}" for j in feat_idx)
        response_name = f"x{resp_idx}"
    logger.info(
        "loaded %s: %d rows, %d features, response %r",
        path, data.shape[0], len(feat_idx), response_name,
    )
    return Dataset(
        x=data[:, feat_idx],
        y=data[:, resp_idx],
        feature_names=feature_names,
        response_name=response_name,
    )


def split_horizontal(data, k):
    """Split rows into k contiguous shards whose sizes differ by at most
    one row (earlier shards take the remainder)."""
    n = data.n
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n:
        raise TooManyAgencies(f"cannot split {n} rows across {k} agencies")
    base, extra = divmod(n, k)
    shards, start = [], 0
    for i in range(k):
        stop = start + base + (1 if i < extra else 0)
        shards.append(Dataset(
            x=data.x[start:stop],
            y=data.y[start:stop],
            feature_names=data.feature_names,
            response_name=data.response_name,
        ))
        start = stop
    return shards
