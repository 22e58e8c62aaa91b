"""Dense exact linear algebra over a Field object (desk-scale sizes).

Matrices are lists of row lists of field elements.  Everything here is
plain Gaussian elimination; no pivoting heuristics are needed since the
arithmetic is exact.
"""


def _dot(field, row, v):
    acc = field.zero
    for a, b in zip(row, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def mat_mul(field, A, B):
    cols = list(zip(*B))
    return [[_dot(field, row, col) for col in cols] for row in A]


def rref(field, A):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    M = [list(row) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not field.is_zero(M[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = field.inv(M[r][c])
        M[r] = [field.mul(inv, x) for x in M[r]]
        for i in range(rows):
            if i != r and not field.is_zero(M[i][c]):
                factor = M[i][c]
                M[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def nullspace(field, A):
    """Canonical basis of the right kernel (one vector per free column)."""
    if not A:
        return []
    cols = len(A[0])
    M, pivots = rref(field, A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(M[r][fc])
        basis.append(v)
    return basis


def det3(field, M):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    t1 = field.mul(a, field.sub(field.mul(e, i), field.mul(f, h)))
    t2 = field.mul(b, field.sub(field.mul(d, i), field.mul(f, g)))
    t3 = field.mul(c, field.sub(field.mul(d, h), field.mul(e, g)))
    return field.add(field.sub(t1, t2), t3)


def inv3(field, M):
    d = det3(field, M)
    if field.is_zero(d):
        raise ZeroDivisionError("singular 3x3 matrix")
    dinv = field.inv(d)

    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        m = field.sub(
            field.mul(M[rows[0]][cols[0]], M[rows[1]][cols[1]]),
            field.mul(M[rows[0]][cols[1]], M[rows[1]][cols[0]]),
        )
        return field.mul(m, field.neg(field.one)) if (i + j) % 2 else m

    return [[field.mul(dinv, cof(j, i)) for j in range(3)] for i in range(3)]


def solve(field, A, b):
    """One solution of A x = b, or None if inconsistent."""
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    M, pivots = rref(field, aug)
    cols = len(A[0])
    for row in M:
        if all(field.is_zero(x) for x in row[:cols]) and not field.is_zero(row[cols]):
            return None
    x = [field.zero] * cols
    for r, pc in enumerate(pivots):
        if pc < cols:
            x[pc] = M[r][cols]
    return x
