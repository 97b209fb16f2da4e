"""Exact window-join aggregates, brute-forced with numpy.

The benchmark checks the program's answers against these values, so they
are computed here from the generated columns alone and share no code with
``repro``: per (group, key) the R count, the S count and the R payload
sum, then per group ``COUNT = sum_k cR_k * cS_k`` and
``SUM = sum_k sumR_k * cS_k`` (every joined pair contributes its R
payload).  A group is a tumbling window, or a (window, shard) pair for
the service.
"""

from __future__ import annotations

import math

import numpy as np


def group_join(groups, key, payload, is_r, num_groups):
    """Exact ``(count, sum)`` join aggregates per group.

    Args:
        groups: Non-negative group index of every tuple; tuples with a
            negative index are ignored.
        key, payload, is_r: The tuples' columns.
        num_groups: Length of the returned arrays.

    Returns:
        Two float arrays of length ``num_groups``: the join COUNT and the
        join SUM(R.v) of each group.
    """
    groups = np.asarray(groups, dtype=np.int64)
    key = np.asarray(key, dtype=np.int64)
    keep = (groups >= 0) & (groups < num_groups)
    num_keys = int(key.max()) + 1 if len(key) else 1
    cell = groups[keep] * num_keys + key[keep]
    side_r = np.asarray(is_r, dtype=bool)[keep]
    pay = np.asarray(payload, dtype=np.float64)[keep]
    cells_r, inv_r, count_r = np.unique(
        cell[side_r], return_inverse=True, return_counts=True
    )
    sum_r = np.bincount(inv_r, weights=pay[side_r], minlength=len(cells_r))
    cells_s, count_s = np.unique(cell[~side_r], return_counts=True)
    common, at_r, at_s = np.intersect1d(
        cells_r, cells_s, assume_unique=True, return_indices=True
    )
    owner = common // num_keys
    pairs = count_r[at_r].astype(np.float64) * count_s[at_s]
    count = np.bincount(owner, weights=pairs, minlength=num_groups)
    total = np.bincount(
        owner, weights=sum_r[at_r] * count_s[at_s], minlength=num_groups
    )
    return count, total


def window_join(event, key, payload, is_r, window_ms, num_windows):
    """Exact join aggregates of the tumbling windows ``[i*W, (i+1)*W)``."""
    groups = np.floor(np.asarray(event) / window_ms).astype(np.int64)
    return group_join(groups, key, payload, is_r, num_windows)


def bounded_error(value: float, exact: float) -> float:
    """The paper's relative error, scored ``min(1, |miss|)`` on an empty oracle."""
    if exact == 0.0:
        return 0.0 if value == 0.0 else min(1.0, abs(value - exact))
    return abs(value - exact) / abs(exact)


def agrees(value: float, exact: float, integral: bool) -> bool:
    """Whether a program aggregate equals the brute-forced one.

    Counts are integers and must match exactly.  Sums of float payloads
    differ from a reordered summation in the last few ulps only, so they
    must match to 1e-9 relative.
    """
    if integral:
        return value == exact
    return math.isclose(value, exact, rel_tol=1e-9, abs_tol=1e-9)
