"""Exact Gaussian elimination helpers, generic over the scalar field.

Matrices are lists of lists of scalars (Fraction or FpElement).  Pivoting is
deterministic (first nonzero row), so every result is reproducible.
"""

from __future__ import annotations


def zero_matrix(field, n, m):
    return [[field.zero() for _ in range(m)] for _ in range(n)]


def identity_matrix(field, n):
    rows = zero_matrix(field, n, n)
    for i in range(n):
        rows[i][i] = field.one()
    return rows


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for j in range(m):
            acc = Ai[0] * B[0][j]
            for t in range(1, k):
                acc = acc + Ai[t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v):
    out = []
    for row in A:
        acc = row[0] * v[0]
        for t in range(1, len(v)):
            acc = acc + row[t] * v[t]
        out.append(acc)
    return out


def rref(rows):
    """Row-reduce a copy of `rows`; returns (reduced rows, pivot column list)."""
    M = [list(r) for r in rows]
    n = len(M)
    m = len(M[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if M[i][c]:
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return M, pivots


def solve(A, b, field):
    """One exact solution of A x = b (free variables set to 0), or None."""
    n = len(A)
    m = len(A[0]) if n else 0
    aug = [list(A[i]) + [b[i]] for i in range(n)]
    R, pivots = rref(aug)
    if m in pivots:
        return None
    x = [field.zero()] * m
    for r, c in enumerate(pivots):
        x[c] = R[r][m]
    return x


def kernel_basis(A, field):
    """Basis of the exact null space of A (deterministic order)."""
    n = len(A)
    m = len(A[0]) if n else 0
    R, pivots = rref(A)
    pivset = set(pivots)
    free = [c for c in range(m) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero()] * m
        v[fc] = field.one()
        for r, c in enumerate(pivots):
            v[c] = -R[r][fc]
        basis.append(v)
    return basis


def invert_matrix(A, field):
    """Exact inverse, or None if singular."""
    n = len(A)
    aug = [list(A[i]) + list(identity_matrix(field, n)[i]) for i in range(n)]
    R, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R]


def rank(A):
    _, pivots = rref(A)
    return len(pivots)
