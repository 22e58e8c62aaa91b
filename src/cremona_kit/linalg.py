"""Dense exact linear algebra over a Field object (desk-scale sizes).

Matrices are lists of row lists of field elements.  Everything here is
plain Gaussian elimination; no pivoting heuristics are needed since the
arithmetic is exact.
"""


def dot(field, u, v):
    mul, add = field.mul, field.add
    acc = mul(u[0], v[0])
    for a, b in zip(u[1:], v[1:]):
        acc = add(acc, mul(a, b))
    return acc


def cross(field, u, v):
    m, s = field.mul, field.sub
    return (s(m(u[1], v[2]), m(u[2], v[1])), s(m(u[2], v[0]), m(u[0], v[2])),
            s(m(u[0], v[1]), m(u[1], v[0])))


def mat_mul(field, A, B):
    cols = list(zip(*B))
    return [[dot(field, row, col) for col in cols] for row in A]


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
    return dot(field, M[0], cross(field, M[1], M[2]))


def inv3(field, M):
    """The columns of M^-1 are the cross products of M's rows over det M."""
    cols = [cross(field, M[1], M[2]), cross(field, M[2], M[0]), cross(field, M[0], M[1])]
    d = dot(field, M[0], cols[0])
    if field.is_zero(d):
        raise ZeroDivisionError("singular 3x3 matrix")
    dinv = field.inv(d)
    return [[field.mul(dinv, c[i]) for c in cols] for i in range(3)]


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
