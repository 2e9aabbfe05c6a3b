"""Exact ranks of integer matrices: the only linear algebra the project needs.

Boundary matrices here are small and integer-valued.  Ranks are computed by
fraction-free (Bareiss) elimination over Python ints, with a modular pass as
a fast path: the rank modulo a large prime is a lower bound for the rational
rank, and is exact whenever it is already full.
"""
from __future__ import annotations

import numpy as np

# Mersenne prime; entries stay below 2^31, so int64 products never overflow.
_PRIME = 2147483647


def rank_int(rows):
    """Exact rank of an integer matrix (list of lists of ints)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if f == 0 and p == prev:
                continue
            row = m[r]
            top = m[rank]
            for c in range(col, ncols):
                row[c] = (p * row[c] - f * top[c]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod_p(rows):
    """Rank of an integer matrix modulo a large prime.

    Always a lower bound for the rational rank, which makes it a sound fast
    path for homology *vanishing* checks (betti computed with this rank is an
    upper bound for the true betti number).
    """
    if not rows or not rows[0]:
        return 0
    a = np.array(rows, dtype=np.int64) % _PRIME
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), _PRIME - 2, _PRIME)
        a[rank] = (a[rank] * inv) % _PRIME
        col_vals = a[rank + 1:, col].copy()
        if col_vals.any():
            a[rank + 1:] = (a[rank + 1:] - np.outer(col_vals, a[rank])) % _PRIME
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_exact(rows):
    """Rational rank: modular fast path confirmed by exact elimination.

    rank_mod_p is a lower bound; if it already equals min(nrows, ncols) it is
    exact, otherwise fall back to integer elimination.
    """
    if not rows or not rows[0]:
        return 0
    r = rank_mod_p(rows)
    if r == min(len(rows), len(rows[0])):
        return r
    return rank_int(rows)
