"""Canonical subspaces of (F_q)^n and their enumeration.

A Subspace is a value type: its basis is the unique reduced row-echelon
basis (rows are basis vectors), so equality and hashing are structural.
Coordinates with respect to the canonical basis are read off the pivot
columns, which keeps re-basing cheap everywhere else in the library.
"""

import itertools

from . import linalg


class Subspace:
    __slots__ = ("ambient", "basis", "pivots", "_hash")

    def __init__(self, ambient, basis, pivots):
        # callers go through from_rows / trusted constructors
        self.ambient = ambient
        self.basis = basis      # k x n tuple-of-tuples, RREF, no zero rows
        self.pivots = pivots
        self._hash = hash((ambient, basis))

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (self.ambient, self.basis) == (other.ambient, other.basis)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.ambient, self.basis) < (other.ambient, other.basis)

    def __repr__(self):
        return "Span%r" % (self.basis,)

    def coords(self, v):
        """Coordinates of v in the canonical basis (v must lie in the space)."""
        return tuple(v[c] for c in self.pivots)

    def contains_vector(self, ctx, v):
        return reduce_against(ctx, v, self.basis) == (0,) * self.ambient

    def contains(self, ctx, other):
        return all(self.contains_vector(ctx, row) for row in other.basis)

    def vectors(self, ctx):
        """All q^dim vectors of the subspace (deterministic order)."""
        out = []
        for coeffs in itertools.product(ctx.elements(), repeat=self.dim):
            out.append(linalg.row_combine(ctx, coeffs, self.basis, self.ambient))
        return out


def from_rows(ctx, rows, ambient):
    rows = [r for r in rows]
    if not rows:
        return Subspace(ambient, (), ())
    R, piv = linalg.rref(ctx, rows)
    return Subspace(ambient, R[: len(piv)], piv)


def zero_subspace(n):
    return Subspace(n, (), ())


def full_subspace(n):
    return Subspace(n, linalg.identity(n), tuple(range(n)))


def subspace_sum(ctx, A, B):
    if A.ambient != B.ambient:
        raise ValueError("cannot add subspaces of (F_q)^%d and (F_q)^%d"
                         % (A.ambient, B.ambient))
    return from_rows(ctx, A.basis + B.basis, A.ambient)


def reduce_against(ctx, v, rref_rows):
    """Reduce the row vector v against RREF rows; zero iff v is in the span."""
    submul = ctx.row_submul
    for row in rref_rows:
        c = v[row.index(1)]  # the pivot: an RREF row's first nonzero entry is 1
        if c:
            v = submul(v, c, row)
    return tuple(v)


def enumerate_subspaces(ctx, n, k):
    """All k-dimensional subspaces of (F_q)^n; canonical RREF form,
    deterministic order.

    Generation is by RREF shape: choose pivot columns, then fill the free
    entries (entries right of a pivot and not in a pivot column).
    """
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    out = []
    for pivs in itertools.combinations(range(n), k):
        free_pos = [
            (i, j)
            for i in range(k)
            for j in range(pivs[i] + 1, n)
            if j not in pivs
        ]
        for vals in itertools.product(ctx.elements(), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivs):
                rows[i][c] = 1
            for (i, j), v in zip(free_pos, vals):
                rows[i][j] = v
            out.append(Subspace(n, tuple(tuple(r) for r in rows), tuple(pivs)))
    return out


def num_subspaces(q, n, k):
    """Gaussian binomial [n choose k]_q as an integer."""
    if not (0 <= k <= n):
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise AssertionError("[%d choose %d]_q at q=%r: %r is not divisible by %r"
                             % (n, k, q, num, den))
    return num // den


def enumerate_completions(ctx, basis_rows, k_plus, n):
    """All ways to extend basis_rows (rank k, rows in (F_q)^n) by k_plus - k
    further vectors of (F_q)^n keeping the family free.  Count:
    prod_{i=k}^{k_plus-1} (q^n - q^i).  With no rows and k_plus = n
    these are the invertible n x n matrices, rows in lexicographic order."""
    k = len(basis_rows)
    if not (k <= k_plus <= n):
        raise ValueError("need k <= k_plus <= n")
    R, piv = linalg.rref(ctx, basis_rows)
    if len(piv) != k:
        raise ValueError("input rows are not independent")
    return list(_free_families(ctx, list(basis_rows), R[:k],
                               full_subspace(n).vectors(ctx), k_plus))


def extend_basis(ctx, sub, sup):
    """One fixed completion of the canonical basis of sub into a basis of
    the subspace sup containing it: the first free completion whose new
    rows are taken from the canonical basis of sup."""
    return next(_free_families(ctx, list(sub.basis), sub.basis, sup.basis, sup.dim))


def _free_families(ctx, rows, rref_rows, pool, size):
    """Depth-first, in pool order: every extension of the free family rows
    (spanning the RREF rows rref_rows) by vectors of pool to `size` rows
    that keeps the family free."""
    if len(rows) == size:
        yield tuple(rows)
        return
    zero = (0,) * len(pool[0])
    last = len(rows) + 1 == size  # the family is then full: no RREF to update
    for v in pool:
        r = reduce_against(ctx, v, rref_rows)
        if r == zero:
            continue
        if last:
            yield tuple(rows) + (v,)
        else:
            yield from _free_families(ctx, rows + [v], _rref_with(ctx, rref_rows, r),
                                      pool, size)


def _rref_with(ctx, rref_rows, r):
    """The RREF rows of Span(rref_rows) + <r>, for RREF rows rref_rows and
    a nonzero r reduced against them: r scaled to a leading 1, its pivot
    column cleared from the other rows, inserted in pivot order."""
    p = next(j for j, x in enumerate(r) if x)
    if r[p] != 1:
        r = tuple(ctx.row_scale(ctx.inv(r[p]), r))
    rows = [tuple(ctx.row_submul(row, row[p], r)) if row[p] else row
            for row in rref_rows]
    i = next((i for i, row in enumerate(rows) if not any(row[:p])), len(rows))
    return tuple(rows[:i]) + (r,) + tuple(rows[i:])
