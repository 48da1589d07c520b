"""Exact rank and dimension laws over F_q.

These are the counting formulas behind the rank Markov chain
X_k = rank(v_1, ..., v_k) for i.i.d. uniform vectors of (F_q)^d: the
transition probabilities are p(i, i) = 1/q^{d-i}, p(i, i+1) = 1 - 1/q^{d-i}.
"Probabilities" here are exact count ratios returned as Fractions;
parameter combinations outside the support return 0 instead of raising.
"""

from fractions import Fraction

from .conjtype import pochhammer


def rank_law(d, q, a, c):
    """P_{d,q}[X_a = c]: probability that a uniform a-tuple of vectors of
    (F_q)^d has rank c."""
    if not (0 <= c <= min(a, d)):
        return Fraction(0)
    qi = Fraction(1, q)
    return (
        Fraction(q) ** ((d - c) * (c - a))
        * pochhammer(qi, a)
        * pochhammer(qi, d)
        / (pochhammer(qi, c) * pochhammer(qi, a - c) * pochhammer(qi, d - c))
    )


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
    supported on sup(k,l) <= m <= inf(n, k+l-j)."""
    if not (0 <= j <= min(k, l) and max(k, l) <= n):
        raise ValueError("need j <= min(k,l) <= max(k,l) <= n")
    if not (max(k, l) <= m <= min(n, k + l - j)):
        return Fraction(0)
    qi = Fraction(1, q)
    return (
        Fraction(q) ** ((k + l - j - m) * (m - n))
        * pochhammer(qi, n - k)
        * pochhammer(qi, n - l)
        * pochhammer(qi, k - j)
        * pochhammer(qi, l - j)
        / (
            pochhammer(qi, k + l - j - m)
            * pochhammer(qi, n - m)
            * pochhammer(qi, n - j)
            * pochhammer(qi, m - k)
            * pochhammer(qi, m - l)
        )
    )


def count_constrained_subspaces(j, k, l, m, q):
    """Number of subspaces U+ with dim U+ = l, U <= U+ <= Y and U+ + W = Y,
    where dim U = j, dim(U+W) = k, dim Y = m.  Zero when the dimension chain
    is unsatisfiable."""
    if not (0 <= j <= min(k, l) and max(k, l) <= m):
        raise ValueError("need j <= min(k,l) and sup(k,l) <= m")
    if k + l - j - m < 0:
        return 0
    qi = Fraction(1, q)
    out = (
        Fraction(q) ** ((m - l) * (l - j))
        * pochhammer(qi, k - j)
        / (pochhammer(qi, m - l) * pochhammer(qi, k + l - j - m))
    )
    if out.denominator != 1:
        raise AssertionError("count_constrained_subspaces(j=%d, k=%d, l=%d, m=%d, q=%r) "
                             "is %s, not an integer" % (j, k, l, m, q, out))
    return int(out)
