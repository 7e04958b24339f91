"""Exact Gaussian elimination and matrix products, one body for every field.

Matrices are lists of rows of residues: ints in [0, p) over F_p, Fractions
over Q (``field.residue`` converts a scalar, ``field.lift`` converts back).
The field descriptor supplies the residue arithmetic: the reduction of a sum
of products, the pivot inverse and the row updates.  ``mat_mul`` runs on
ints: over Q it clears each matrix's denominators once, sums int products
and divides back once per entry; over F_p it sums residues and reduces once
per row.  Pivoting is deterministic (first nonzero row) and ``rref`` returns
the reduced row echelon form, which is unique for the row space, so every
result is reproducible.  Over Q, ``kernel_basis`` also takes int rows, and
certifies a trivial kernel by a sparse elimination mod one prime before it
eliminates on Fractions.
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


# a prime: the rank of an int matrix mod p is at most its rank over Q
CERTIFICATE_PRIME = 2 ** 31 - 1


def _full_column_rank_mod_p(A, m):
    """Whether the int matrix A has rank m mod CERTIFICATE_PRIME (False
    if an entry is not an int).  Rows are kept sparse, and each is reduced
    against the pivot rows found so far, until m pivots are found."""
    p = CERTIFICATE_PRIME
    pivots = {}                 # least column -> row, 1 there
    for row in A:
        r = {j: x for j, x in enumerate(row) if x}
        if any(type(x) is not int for x in r.values()):
            return False
        r = {j: x % p for j, x in r.items() if x % p}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in r.items()}
                break
            x = r[c]
            for j, y in piv.items():
                v = (r.get(j, 0) - x * y) % p
                if v:
                    r[j] = v
                else:
                    del r[j]
        if len(pivots) == m:
            return True
    return False


def kernel_basis(A, field):
    """Basis of the exact null space of A (deterministic order).  Over Q,
    where A may hold ints, a trivial kernel is certified first: full column
    rank mod one prime proves it (_full_column_rank_mod_p).  Only when that
    fails is A eliminated on Fractions."""
    m = len(A[0]) if A else 0
    if field.characteristic == 0 and A:
        if _full_column_rank_mod_p(A, m):
            return []
        A = [[field.residue(x) for x in row] for row in A]
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
