"""The row layout ``runner.fold_rows`` reads, built from public row counts."""

from types import SimpleNamespace

from maskreg.matrix_core import split_block_sizes


def fold_layout(row_counts, block_size):
    """Each origin's row range and each block's, in the stacked order of
    the origins' rows: block j of an origin covers its rows
    j·block_size onward, the tail block last."""
    origin_rows, block_ranges, offset = [], [], 0
    for n in row_counts:
        origin_rows.append((offset, offset + n))
        for size in split_block_sizes(n, block_size):
            block_ranges.append((offset, offset + size))
            offset += size
    return SimpleNamespace(origin_rows=tuple(origin_rows),
                           block_ranges=tuple(block_ranges))
