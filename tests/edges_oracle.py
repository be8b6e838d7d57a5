"""Reference implementations of ``angres.graphs._canonical_edges`` and
``angres.graphs.rotation_edges``: the formulation that stacks every pair
into an (m, 2) array and orders each row before taking its key, used to
check the kernels that sort the keys in place, array for array and error
for error."""

from __future__ import annotations

import itertools

import numpy as np

from angres.graphs import Embedding, StructureError, _pair_error


def canonical_edges(pairs, n: int) -> np.ndarray:
    """The edges ``pairs`` name as the sorted (m, 2) int64 array of rows
    ``(i, j)``, ``i < j``, without repeats; a StructureError for the first
    pair that is not an edge on ``n`` vertices."""
    if not isinstance(pairs, np.ndarray):
        pairs = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64)
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    bad = (lo < 0) | (lo == hi) | (hi >= n)
    if bad.any():
        raise StructureError(_pair_error(*ends[np.argmax(bad)].tolist(), n))
    keys = np.sort(lo * n + hi)
    keys = keys[np.diff(keys, prepend=-1) > 0]  # every key is positive
    return np.stack(np.divmod(keys, max(n, 1)), axis=1)


def rotation_edges(emb: Embedding) -> np.ndarray:
    """The pairs ``(v, u)``, ``v < u``, with ``u`` in row ``v`` of the
    rotation, stacked and passed to ``canonical_edges``."""
    n = len(emb.offset) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(emb.offset))
    return canonical_edges(np.stack([src, emb.nbr], axis=1)[src < emb.nbr], n)
