"""Dense exact matrices over F_q.

A matrix is an immutable tuple of row tuples of element encodings.
Matrices of linear maps act on coordinate *columns*: w = M v.  Under the
composition convention used throughout (gh means "apply g, then h"), this
gives mat(gh) = mat(h) * mat(g); one dedicated unit test pins this down.
"""

from . import fields


def mat(rows):
    return tuple(tuple(r) for r in rows)


def zeros(r, c):
    return tuple((0,) * c for _ in range(r))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def block(G, cols):
    """[[G, P], [0, I]]: the square matrix with G in its top left corner,
    the matrix P whose columns are cols to its right, and the identity
    below."""
    k, j = len(G), len(cols)
    return (tuple(G[i] + tuple(c[i] for c in cols) for i in range(k))
            + tuple((0,) * (k + i) + (1,) + (0,) * (j - i - 1) for i in range(j)))


def shape(A):
    return len(A), (len(A[0]) if A else 0)


def transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_sub(ctx, A, B):
    return tuple(tuple(ctx.row_submul(ra, 1, rb)) for ra, rb in zip(A, B))


def mat_mul(ctx, A, B):
    """A B: each row of the product is one row_dots of a row of A against
    the columns of B."""
    if (len(A[0]) if A else 0) != len(B):
        (ra, ca), (rb, cb) = shape(A), shape(B)
        raise ValueError("shape mismatch in mat_mul: %dx%d * %dx%d" % (ra, ca, rb, cb))
    dots, cols = ctx.row_dots, tuple(zip(*B))
    return tuple([dots(row, cols) for row in A])


def row_combine(ctx, coeffs, rows, n):
    """Linear combination sum coeffs[i] * rows[i] of row vectors."""
    if not rows:
        return (0,) * n
    return ctx.row_dots(coeffs, tuple(zip(*rows)))


def rref(ctx, A, transform=False):
    """Reduced row-echelon form.

    Returns (R, pivots) or, with transform=True, (R, pivots, T) where T is
    square invertible with T A = R (zero rows of R included, so R keeps the
    shape of A).  T is reduced along with A, as the right block of [A | I].
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if transform:
        rows = [list(r) + [1 if i == j else 0 for j in range(m)] for i, r in enumerate(A)]
    else:
        rows = [list(r) for r in A]
    submul, scale = ctx.row_submul, ctx.row_scale
    pivots = []
    r = 0
    for c in range(n):
        for pr in range(r, m):
            if rows[pr][c]:
                break
        else:
            continue
        pivot = rows[pr]
        rows[pr] = rows[r]
        if pivot[c] != 1:
            pivot = scale(ctx.inv(pivot[c]), pivot)
        rows[r] = pivot
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = submul(row, f, pivot)
        pivots.append(c)
        r += 1
        if r == m:
            break
    if transform:
        return (tuple(tuple(row[:n]) for row in rows), tuple(pivots),
                tuple(tuple(row[n:]) for row in rows))
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(ctx, A):
    return len(rref(ctx, A)[1])


def inverse(ctx, A):
    n, n2 = shape(A)
    if n != n2:
        raise ValueError("inverse requires a square matrix")
    _, piv, T = rref(ctx, A, transform=True)
    if piv != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return T


def charpoly(ctx, A):
    """Monic characteristic polynomial det(XI - A), by Hessenberg reduction."""
    n, m = shape(A)
    if n != m:
        raise ValueError("charpoly requires a square matrix")
    if n == 0:
        return (1,)
    submul, dots, mul = ctx.row_submul, ctx.row_dots, ctx.mul
    H = [list(r) for r in A]
    # similarity reduction to upper Hessenberg form
    for c in range(n - 2):
        for pr in range(c + 1, n):
            if H[pr][c]:
                break
        else:
            continue
        if pr != c + 1:
            H[c + 1], H[pr] = H[pr], H[c + 1]
            for row in H:
                row[c + 1], row[pr] = row[pr], row[c + 1]
        pivot = H[c + 1]
        fs = ctx.row_scale(ctx.inv(pivot[c]), [row[c] for row in H[c + 2:]])
        if not any(fs):
            continue
        # H -> L H L^-1 with L = I - sum_i f_i E_{i,c+1}: row i loses f_i
        # times row c+1, then column c+1 gains sum_i f_i column i
        for i, f in enumerate(fs, c + 2):
            if f:
                H[i] = submul(H[i], f, pivot)
        w = [1] + fs
        for row, x in zip(H, dots(w, [row[c + 1:] for row in H])):
            row[c + 1] = x
    # charpoly recurrence on the leading principal minors of XI - H, each
    # minor's polynomial an ascending coefficient list of length n + 1:
    # p_k = (X - h_kk) p_{k-1} - sum_i (h_{i,i-1} ... h_{k-1,k-2}) h_{i-1,k-1} p_{i-1}
    polys = [[1] + [0] * n]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        p = submul([0] + prev[:-1], H[k - 1][k - 1], prev)
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = mul(prod, H[i][i - 1])
            if prod == 0:
                break
            f = mul(prod, H[i - 1][k - 1])
            if f:
                p = submul(p, f, polys[i - 1])
        polys.append(p)
    cp = fields.pnorm(polys[n])
    if len(cp) != n + 1 or cp[-1] != 1:
        raise AssertionError("charpoly of a %dx%d matrix came out as %r, not monic "
                             "of degree %d" % (n, n, cp, n))
    return cp


def apply_poly(ctx, P, A):
    """P(A) for a square matrix A, by Horner's rule.  Its first step, the
    leading coefficient times A, is A itself for a monic P: no product by
    the identity."""
    n, _ = shape(A)

    def plus(R, c):  # R + c I
        if not c:
            return R
        return tuple(row[:i] + (ctx.add(row[i], c),) + row[i + 1:] for i, row in enumerate(R))

    if len(P) < 2:
        return plus(zeros(n, n), P[0] if P else 0)
    R = A if P[-1] == 1 else tuple(tuple(ctx.row_scale(P[-1], row)) for row in A)
    R = plus(R, P[-2])
    for c in reversed(P[:-2]):
        R = plus(mat_mul(ctx, R, A), c)
    return R


def mat_parse(ctx, s):
    return mat([[ctx.elem_parse(x) for x in row.split(",")] for row in s.strip().split(";")])
