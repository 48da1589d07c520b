"""Dense exact matrices over F_q.

A matrix is an immutable tuple of row tuples of element encodings.
Matrices of linear maps act on coordinate *columns*: w = M v.  Under the
composition convention used throughout (gh means "apply g, then h"), this
gives mat(gh) = mat(h) * mat(g); one dedicated unit test pins this down.
"""

import operator

from . import fields


def mat(rows):
    return tuple(tuple(r) for r in rows)


def zeros(r, c):
    return tuple((0,) * c for _ in range(r))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(A):
    return len(A), (len(A[0]) if A else 0)


def transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_sub(ctx, A, B):
    return tuple(tuple(ctx.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_mul(ctx, A, B):
    ra, ca = shape(A)
    rb, cb = shape(B)
    if ca != rb:
        raise ValueError("shape mismatch in mat_mul: %dx%d * %dx%d" % (ra, ca, rb, cb))
    Bt = transpose(B)
    if ctx.e == 1:
        # one integer dot product per entry, reduced once (list
        # comprehensions: cheaper than generators at these sizes)
        p = ctx.p
        return tuple([tuple([sum(map(operator.mul, row, col)) % p for col in Bt])
                      for row in A])
    add, mul = ctx.add, ctx.mul
    out = []
    for row in A:
        orow = []
        for col in Bt:
            s = 0
            for x, y in zip(row, col):
                if x and y:
                    s = add(s, mul(x, y))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(ctx, A, v):
    """A acting on the coordinate column v (v given as a flat tuple)."""
    add, mul = ctx.add, ctx.mul
    out = []
    for row in A:
        s = 0
        for x, y in zip(row, v):
            if x and y:
                s = add(s, mul(x, y))
        out.append(s)
    return tuple(out)


def row_combine(ctx, coeffs, rows, n):
    """Linear combination sum coeffs[i] * rows[i] of row vectors."""
    out = [0] * n
    add, mul = ctx.add, ctx.mul
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] = add(out[j], mul(c, x))
    return tuple(out)


def rref(ctx, A, transform=False):
    """Reduced row-echelon form.

    Returns (R, pivots) or, with transform=True, (R, pivots, T) where T is
    square invertible with T A = R (zero rows of R included, so R keeps the
    shape of A).
    """
    rows = [list(r) for r in A]
    m = len(rows)
    n = len(rows[0]) if m else 0
    T = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if transform:
            T[r], T[pr] = T[pr], T[r]
        inv = ctx.inv(rows[r][c])
        if inv != 1:
            rows[r] = [ctx.mul(inv, x) for x in rows[r]]
            if transform:
                T[r] = [ctx.mul(inv, x) for x in T[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[r])]
                if transform:
                    T[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(T[i], T[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    R = tuple(tuple(row) for row in rows)
    if transform:
        return R, tuple(pivots), tuple(tuple(t) for t in T)
    return R, tuple(pivots)


def rank(ctx, A):
    return len(rref(ctx, A)[1])


def inverse(ctx, A):
    n, n2 = shape(A)
    if n != n2:
        raise ValueError("inverse requires a square matrix")
    aug = tuple(row + identity(n)[i] for i, row in enumerate(A))
    R, piv = rref(ctx, aug)
    if tuple(piv) != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n:] for row in R)


def kernel_basis(ctx, A):
    """RREF row basis of the right kernel {x : A x = 0}."""
    m, n = shape(A)
    R, piv = rref(ctx, A)
    free = [j for j in range(n) if j not in piv]
    out = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for i, c in enumerate(piv):
            v[c] = ctx.neg(R[i][f])
        out.append(tuple(v))
    # the standard free-variable basis is already in RREF up to row order
    return rref(ctx, out)[0] if out else ()


def charpoly(ctx, A):
    """Monic characteristic polynomial det(XI - A), by Hessenberg reduction."""
    n, m = shape(A)
    if n != m:
        raise ValueError("charpoly requires a square matrix")
    if n == 0:
        return (1,)
    H = [list(r) for r in A]
    # similarity reduction to upper Hessenberg form
    for c in range(n - 2):
        pr = next((i for i in range(c + 1, n) if H[i][c]), None)
        if pr is None:
            continue
        if pr != c + 1:
            H[c + 1], H[pr] = H[pr], H[c + 1]
            for row in H:
                row[c + 1], row[pr] = row[pr], row[c + 1]
        inv = ctx.inv(H[c + 1][c])
        for i in range(c + 2, n):
            f = ctx.mul(H[i][c], inv)
            if f:
                H[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(H[i], H[c + 1])]
                for row in H:
                    row[c + 1] = ctx.add(row[c + 1], ctx.mul(f, row[i]))
    # charpoly recurrence on the leading principal minors of XI - H
    polys = [(1,)]
    for k in range(1, n + 1):
        x_minus = (ctx.neg(H[k - 1][k - 1]), 1)
        p = fields.pmul(ctx, x_minus, polys[k - 1])
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = ctx.mul(prod, H[i][i - 1])
            if prod == 0:
                break
            term = fields.pscale(ctx, ctx.mul(prod, H[i - 1][k - 1]), polys[i - 1])
            p = fields.psub(ctx, p, term)
        polys.append(p)
    cp = polys[n]
    if len(cp) != n + 1 or cp[-1] != 1:
        raise AssertionError("charpoly of a %dx%d matrix came out as %r, not monic "
                             "of degree %d" % (n, n, cp, n))
    return cp


def apply_poly(ctx, P, A):
    """P(A) for a square matrix A, by Horner's rule from the leading
    coefficient times the identity."""
    n, _ = shape(A)
    if not P:
        return zeros(n, n)
    R = tuple(tuple(P[-1] if i == j else 0 for j in range(n)) for i in range(n))
    for c in reversed(P[:-1]):
        R = mat_mul(ctx, R, A)
        if c:
            R = tuple(row[:i] + (ctx.add(row[i], c),) + row[i + 1:]
                      for i, row in enumerate(R))
    return R


def mat_str(ctx, A):
    return ";".join(",".join(ctx.elem_str(x) for x in row) for row in A)


def mat_parse(ctx, s):
    return mat([[ctx.elem_parse(x) for x in row.split(",")] for row in s.strip().split(";")])
