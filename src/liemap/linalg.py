"""Exact Gaussian elimination and matrix products, one body for every field.

Matrices are lists of rows of residues: ints in [0, p) over F_p, Fractions
over Q (``field.residue`` converts a scalar, ``field.lift`` converts back).
The field descriptor supplies the residue arithmetic: the reduction of a sum
of products, the pivot inverse and the row updates.  ``mat_mul`` runs on
ints: over Q it clears each matrix's denominators once, sums int products
and divides back once per entry; over F_p it sums residues and reduces once
per row.  Pivoting is deterministic (first nonzero row) and ``rref`` returns
the reduced row echelon form, which is unique for the row space, so every
result is reproducible.
"""

from __future__ import annotations


def zero_matrix(field, n, m):
    zero = field.residue(0)
    return [[zero] * m for _ in range(n)]


def identity_matrix(field, n):
    rows = zero_matrix(field, n, n)
    one = field.residue(1)
    for i in range(n):
        rows[i][i] = one
    return rows


def mat_mul(A, B, field):
    """A B on ints, accumulating each row over the nonzero entries of A's
    row, with one denominator per matrix (see field.integral_rows)."""
    A, dA = field.integral_rows(A)
    B, dB = field.integral_rows(B)
    d = dA * dB
    m = len(B[0])
    out = []
    for Ai in A:
        acc = [0] * m
        for a, Bk in zip(Ai, B):
            if a:
                for j, b in enumerate(Bk):
                    if b:
                        acc[j] += a * b
        out.append(field.from_integral_row(acc, d))
    return out


def mat_vec(A, v, field):
    zero = field.residue(0)
    nz = [(j, x) for j, x in enumerate(v) if x]
    return field.reduce_row([sum([row[j] * x for j, x in nz], zero) for row in A])


def rref(rows, field):
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
        piv = M[r] = field.scale_row(M[r], field.inv(M[r][c]))
        for i in range(n):
            if i != r and M[i][c]:
                M[i] = field.sub_row(M[i], M[i][c], piv)
        pivots.append(c)
        r += 1
        if r == n:
            break
    return M, pivots


def in_row_space(R, pivots, v, field):
    """Whether v lies in the span of the rows of the reduced echelon form
    (R, pivots) returned by rref."""
    for row, c in zip(R, pivots):
        if v[c]:
            v = field.sub_row(v, v[c], row)
    return not any(v)


def solve(A, b, field):
    """One exact solution of A x = b (free variables set to 0), or None."""
    m = len(A[0]) if A else 0
    R, pivots = rref([list(row) + [x] for row, x in zip(A, b)], field)
    if m in pivots:
        return None
    x = [field.residue(0)] * m
    for r, c in enumerate(pivots):
        x[c] = R[r][m]
    return x


def kernel_basis(A, field):
    """Basis of the exact null space of A (deterministic order)."""
    m = len(A[0]) if A else 0
    R, pivots = rref(A, field)
    pivset = set(pivots)
    basis = []
    for fc in range(m):
        if fc in pivset:
            continue
        v = [field.residue(0)] * m
        v[fc] = field.residue(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r][fc]
        basis.append(field.reduce_row(v))
    return basis


def invert_matrix(A, field):
    """Exact inverse, or None if singular."""
    n = len(A)
    eye = identity_matrix(field, n)
    R, pivots = rref([list(A[i]) + eye[i] for i in range(n)], field)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R]


def rank(A, field):
    return len(rref(A, field)[1])
