"""Exact rank and dimension laws over F_q.

These are the counting formulas behind the rank Markov chain
X_k = rank(v_1, ..., v_k) for i.i.d. uniform vectors of (F_q)^d: the
transition probabilities are p(i, i) = 1/q^{d-i}, p(i, i+1) = 1 - 1/q^{d-i}.
"Probabilities" here are exact count ratios returned as Fractions of
integer q-counts, Gaussian binomials [n k]_q (subspaces.num_subspaces) and
free-family counts nf(q, n, k) (conjtype.num_free_families); parameter
combinations outside the support return 0 instead of raising.
"""

from fractions import Fraction

from .conjtype import num_free_families
from .subspaces import num_subspaces


def rank_law(d, q, a, c):
    """P_{d,q}[X_a = c]: probability that a uniform a-tuple of vectors of
    (F_q)^d has rank c.  A d x a matrix of rank c is a c-space of (F_q)^d,
    which holds its columns, and the c x a matrix of rank c of their
    coordinates in its canonical basis: [d c]_q nf(q, a, c) of the q^(d a)."""
    if not (0 <= c <= min(a, d)):
        return Fraction(0)
    return Fraction(num_subspaces(q, d, c) * num_free_families(q, a, c), q ** (d * a))


def rank_law_conditional(d, q, a, b, c, dd):
    """P_{d,q}[X_a = c | X_b = dd] for a <= b, c <= dd.

    Computed by Bayes inversion: P[X_b = dd | X_a = c] reduces to a fresh
    chain in the quotient by Span(v_1, ..., v_a), i.e. to
    P_{d-c,q}[X_{b-a} = dd-c].  For b >= d this agrees with the closed form
    q^{(d-c)(c-a)} (q^{-1})_a (q^{-1})_d (q^{-1})_{b-a} (q^{-1})_{b-d}
    / ((q^{-1})_b (q^{-1})_c (q^{-1})_{a-c} (q^{-1})_{d-c} (q^{-1})_{b-a-dd+c}),
    which the test suite checks separately."""
    if not (a <= b and c <= dd):
        raise ValueError("need a <= b and c <= dd")
    denom = rank_law(d, q, b, dd)
    if denom == 0:
        return Fraction(0)
    return rank_law(d - c, q, b - a, dd - c) * rank_law(d, q, a, c) / denom


def dim_sum_law(n, q, j, k, l, m):
    """The law of m = dim(U+ + W), where dim U = j, dim(U+W) = k, and U+ is a
    uniform dimension-l extension of U inside (F_q)^n.  Symmetric in k, l;
    supported on sup(k,l) <= m <= inf(n, k+l-j).  The Y = U+ + W of
    dimension m number [n-k, m-k]_q, each holds count_constrained_subspaces
    of the U+, and the U+ number [n-j, l-j]_q in all."""
    if not (0 <= j <= min(k, l) and max(k, l) <= n):
        raise ValueError("need j <= min(k,l) <= max(k,l) <= n")
    if not (max(k, l) <= m <= min(n, k + l - j)):
        return Fraction(0)
    return Fraction(num_subspaces(q, n - k, m - k) * count_constrained_subspaces(j, k, l, m, q),
                    num_subspaces(q, n - j, l - j))


def count_constrained_subspaces(j, k, l, m, q):
    """Number of subspaces U+ with dim U+ = l, U <= U+ <= Y and U+ + W = Y,
    where dim U = j, dim(U+W) = k, dim Y = m.  Zero when the dimension chain
    is unsatisfiable.  In Y / U, the (l-j)-space U+ / U spans Y / U with the
    (k-j)-space W / U: it meets W / U in one of its [k-j, m-l]_q subspaces
    of dimension k+l-j-m and extends that meet in q^((m-l)(m-k)) ways."""
    if not (0 <= j <= min(k, l) and max(k, l) <= m):
        raise ValueError("need j <= min(k,l) and sup(k,l) <= m")
    if k + l - j - m < 0:
        return 0
    return q ** ((m - l) * (m - k)) * num_subspaces(q, k - j, m - l)
