"""Products of completed conjugacy classes in the centers Z(C GL(n, F_q)).

The completed class of a polypartition mu with |mu| <= n pads mu(X - 1) with
parts 1 so the matrices act on all of (F_q)^n.  _transport_poly writes each
image Pi_n(Ahat_nu) of a generic invariant in the completed classes, with
coefficients that are integer Laurent polynomials in X = q^n in closed form
(the padding law); a Laurent is an AlgElem keyed by the powers of X.  This
module expands each completed class in those images (class_expansion), takes
the generic structure constants S^nu of their products from generic_S (the
degree-1 closed form or the engine), and assembles, in GenericProduct, the
polynomials p^nu(X) of the expansion C_{lam^n} * C_{mu^n} =
sum_nu p^nu(q^n) C_nu; GenericProduct.at(n) evaluates them, and
class_product is their value at one n.
completed_product counts the same expansion in the group: it is the oracle
of verify_fh, and class_product takes it instead where it enumerates fewer
elements.  transport is Pi_n of one generic invariant at one n, through
which the tests read the padding law.
"""

import itertools
from fractions import Fraction

from . import degree1, linalg, subspaces
from .conjtype import (
    Partition,
    centralizer_order,
    class_orbit,
    class_size,
    complete,
    format_polypartition,
    jordan_matrix,
    reduce_polypartition,
    type_of,
    with_unipotent,
)
from .fields import check_work
from .memo import memo
from .partial_iso import AlgElem, _weighted_sum, invariant_product, invariant_product_work


class CentralVector(AlgElem):
    """Sparse element of Z(C GL(n, F_q)): {size-n polypartition: coefficient}."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        if terms and any(mu.size != n for mu in terms):
            raise ValueError("central vector of GL(%d) needs types of size %d" % (n, n))
        AlgElem.__init__(self, n, terms)

    def is_integral(self):
        return self.den == 1

    def __repr__(self):
        items = sorted(self.terms.items())
        return " + ".join("%s*C%s" % (c, m) for m, c in items) or "0"


def completed_product(lam, mu, n):
    """Expansion of C_{lam^n} * C_{mu^n} in completed-class sums.

    The coefficient of C_nu is #{g in C_{lam^n} : type(g^{-1} z) = mu^n} for
    any fixed z in C_nu.  Instead of scanning once per candidate nu, one pass
    over the smaller input class buckets the types of the products g * h0
    with h0 a fixed representative of the other class:
    c^nu = #{g : type(g h0) = nu} * card(other class) / card(C_nu),
    which is the same class constant by invariance of type under conjugation.
    Support completeness is certified by the mass identity
    sum_nu c^nu card(C_nu) = card(C_{lam^n}) card(C_{mu^n}).  Raises
    WorkCapExceeded, before enumerating, when the enumerated class has more
    than MAX_TYPE_OF_CALLS elements (one type_of call each)."""
    if lam.size > n or mu.size > n:
        raise ValueError("type size exceeds n")
    ctx = lam.ctx
    lam_n, mu_n = complete(lam, n), complete(mu, n)
    size_lam, size_mu = class_size(lam_n, n), class_size(mu_n, n)
    if size_mu < size_lam:
        # enumerate the smaller class; the product is commutative
        lam, mu_n = mu, lam_n
        size_lam, size_mu = size_mu, size_lam
    check_work("product", size_lam)
    h0 = jordan_matrix(mu_n)
    counts = {}
    for g in class_orbit(lam, n):
        t = type_of(ctx, linalg.mat_mul(ctx, h0, g))
        counts[t] = counts.get(t, 0) + 1
    out = {}
    mass = 0
    for t, c in counts.items():
        size_t = class_size(t, n)
        coeff, rem = divmod(c * size_mu, size_t)
        if rem:
            raise AssertionError("coefficient of %s is %d/%d, not an integer"
                                 % (format_polypartition(t), c * size_mu, size_t))
        out[t] = coeff
        mass += coeff * size_t
    if mass != size_lam * size_mu:
        raise AssertionError("class product has mass %d, not %d * %d"
                             % (mass, size_lam, size_mu))
    return CentralVector(n, out)


def generic_S(lam, mu, n=None):
    """Generic structure constants: Ahat_lam * Ahat_mu = sum S^nu Ahat_nu.

    A pair of size-1 types takes the closed form degree1.degree1_product,
    which holds at every n; any other pair the engine at n0 = |lam| + |mu|
    (where all output degrees fit; the compatibility maps make it the table
    of every n >= n0, as the tests check at n0 + 1 and n0 + 2) or at n < n0,
    where the same maps make it the S^nu with |nu| <= n."""
    if roots := _linear_roots(lam, mu):
        return degree1.degree1_product(lam.ctx, *roots)
    return invariant_product(lam, mu, _table_dim(lam, mu, n))


def _linear_roots(lam, mu):
    """(a, b) for {X-a:(1)} and {X-b:(1)}, the pairs of the closed form."""
    if lam.size == mu.size == 1:
        return tuple(t.ctx.neg(t.entries[0][0][0]) for t in (lam, mu))


def _table_dim(lam, mu, n):
    """The ambient dimension of the engine's table: min(n, n0)."""
    n0 = lam.size + mu.size
    return n0 if n is None else min(n, n0)


class Laurent(AlgElem):
    """Laurent polynomial in X = q^n: the AlgElem keyed by the powers of X,
    with no ambient dimension, so terms is {exponent: nonzero Fraction}.
    Immutable; the polynomial case reads its ascending coefficients from coeffs."""

    __slots__ = ()

    def __init__(self, terms=None):
        AlgElem.__init__(self, None, terms)

    def __mul__(self, other):
        """The convolution, as the weighted sum of other times each c X^p of
        self; a scalar other is the constant Laurent."""
        if not isinstance(other, Laurent):
            other = Laurent({0: other})
        return _weighted_sum(Laurent, None, self.den * other.den, [
            (c, 1, {p + p2: c2 for p2, c2 in other.nums.items()}) for p, c in self.nums.items()])

    def __call__(self, x):
        """The value at the integer X = x as one Fraction, negative powers
        moved into the denominator."""
        shift = max(0, -min(self.nums, default=0))
        return Fraction(sum(c * x ** (p + shift) for p, c in self.nums.items()),
                        self.den * x ** shift)

    @property
    def coeffs(self):
        """Ascending coefficients (c_0, ..., c_degree) of a polynomial."""
        terms = self.terms
        if min(terms, default=0) < 0:
            raise ValueError("negative powers of X, down to X^%d" % min(terms))
        return tuple(terms.get(i, 0) for i in range(max(terms, default=-1) + 1))


# ---------------------------------------------------------------------------
# The exact transport Pi_n(Ahat_nu) -> completed classes.
#
# Lifting a basis element of composite type nu to all of (F_q)^n averages the
# composite over block matrices [[G, P], [0, I_m]] with G of type nu and P a
# free k x m matrix (m = n - k).  Only the unipotent (X-1) block of G mixes
# with the identity padding, so the lifted composite is spread over the types
# nu' + (X-1: sigma) where nu' is the non-(X-1) part and sigma is a random
# enlargement of the (X-1) partition.  The law of sigma depends on P only
# through Y = colspan(P), and it has a closed form in Hall polynomials.

@memo
def _padding_profiles(ctx, pi):
    """Classify the subspaces Y <= F = (F_q)^u, u = |pi|, by the unipotent
    type they induce on M = [[U, P], [0, I_m]] with colspan(P) = Y.

    Returns {(dim Y, core): count of Y}, where core is the padded type with
    its parts 1 stripped; the full type at padding size m is
    core + (1^(u + m - |core|)).  With N = U - 1 of type pi and
    M' = N F + Y, rank (M - 1)^j = dim N^(j-1) M' for j >= 1, so core is
    rho + 1 (each part raised by one) for rho the type of N on M', a
    submodule of cotype (1^e) that contains N F.  The M' of type rho number
    g^pi_{rho,(1^e)}(q), a Hall polynomial (Macdonald, Symmetric Functions
    and Hall Polynomials, ch. II (4.6)): rho' = pi' - r, 0 <= r_i <= s_i =
    pi'_i - pi'_{i+1}, and g = q^(n(pi) - n(rho) - n(1^e)) prod [s_i, r_i]_{1/q}
    with [a, b] the Gaussian binomial.  Of the Y of dimension d,
    [D - f, d - f]_q q^(f (D - d)) span M' with N F, for D = u - e and
    f = l(pi) - e.  Every Y has one profile, so the counts of each d add up
    to [u, d]_q; that is checked.  Cached: callers share the returned dict
    and only read it."""
    q, u, pi = ctx.q, sum(pi), Partition(pi)
    conj = pi.conjugate().parts + (0,)
    s = [a - b for a, b in zip(conj, conj[1:])]
    out, by_dim = {}, {}
    for r in itertools.product(*(range(si + 1) for si in s)):
        e = sum(r)
        rho = Partition(c - ri for c, ri in zip(conj, r) if c > ri).conjugate()
        power = (pi.b() - rho.b() - e * (e - 1) // 2
                 - sum(ri * (si - ri) for si, ri in zip(s, r)))
        if power < 0:
            raise AssertionError("g^%r_{%r,(1^%d)} has a negative power of q"
                                 % (pi.parts, rho.parts, e))
        g = q ** power
        for si, ri in zip(s, r):
            g *= subspaces.num_subspaces(q, si, ri)
        D, f = u - e, len(pi.parts) - e
        core = tuple(x + 1 for x in rho.parts)
        for d in range(f, D + 1):
            cnt = out[d, core] = (g * subspaces.num_subspaces(q, D - f, d - f)
                                  * q ** (f * (D - d)))
            by_dim[d] = by_dim.get(d, 0) + cnt
    for d in range(u + 1):
        if by_dim.get(d, 0) != subspaces.num_subspaces(q, u, d):
            raise AssertionError("the padding profiles of %r count %d subspaces of "
                                 "dimension %d, not [%d, %d]_q"
                                 % (pi.parts, by_dim.get(d, 0), d, u, d))
    return out


def _transport_poly(nu):
    """Pi_n(Ahat_nu) in the class basis for every n >= |nu| at once, as
    {reduced tau: Laurent c_tau(X)} with
    Pi_n(Ahat_nu) = sum_tau c_tau(q^n) C_{tau^n}, X = q^n.

    With k = |nu| and u = |nu(X-1)|, the padding P is a uniform
    k x (n - k) block, and the lift carries num_free_families(q, n, k) =
    prod_{j<k} (X - q^j) in front; a profile (d, core) of _padding_profiles
    has probability cnt prod_{i<d} (q^(n-k) - q^i) / q^(u (n-k)), so it
    weighs cnt q^(k (u-d)) X^-u prod_{j<k+d} (X - q^j).  Its type tau has
    card C_{tau^n} = X^e prod_{j<t} (X - q^j) / Z (t = |tau|,
    e = 2 ||tau|| - t, Z = _card_shape(tau)), and t = k + f - r_1 <= k + d
    in _padding_profiles' notation, so the division by card C_{tau^n} is
    exact and leaves the integer Laurent polynomial
    cnt q^(k (u-d)) Z X^(-u-e) prod_{t<=j<k+d} (X - q^j)."""
    ctx = nu.ctx
    q, k, u = ctx.q, nu.size, sum(nu.unipotent)
    law = {}
    for (d, core), cnt in _padding_profiles(ctx, nu.unipotent).items():
        tau = with_unipotent(nu, core)
        if tau.size > k + d:
            raise AssertionError("%s has a profile of type %s above |nu| + dim Y = %d"
                                 % (format_polypartition(nu), format_polypartition(tau),
                                    k + d))
        c = Laurent({0: cnt * q ** (k * (u - d))})
        for j in range(tau.size, k + d):
            c = c * Laurent({1: 1, 0: -(q ** j)})
        _gather(law, tau, c)
    return {tau: c * Laurent({tau.size - 2 * tau.norm - u: _card_shape(tau)})
            for tau, c in law.items()}


def _card_shape(tau):
    """The integer Z with card C_{tau^n} = X^e prod_{j<t} (X - q^j) / Z,
    X = q^n, t = |tau| and e = 2 ||tau|| - t, for reduced tau (no parts 1
    on (X-1)).

    card C = |GL(n, q)| / Z(n), and only the (X-1) factor of the centralizer
    grows with n, by n - t parts 1, so card C is X^{2 ||tau||}
    prod_{j<t} (1 - q^j/X) = X^e nf(q, n, t) over a constant; at n = t that
    is q^(t e) |GL(t, F_q)| over |GL(t, F_q)| / |C(tau)|."""
    if 1 in tau.unipotent:
        raise ValueError("type %r is not reduced: it has parts 1 on X - 1" % tau)
    t = tau.size
    return tau.ctx.q ** (t * (2 * tau.norm - t)) * centralizer_order(tau)


def transport(nu, n):
    """The exact expansion of Pi_n(Ahat_nu) in completed classes, a rational
    CentralVector: _transport_poly at X = q^n (_classes_at).  For nu without
    parts 1 on (X-1) this is a single class; in general the (X-1) block of
    the composite spreads over several types."""
    if nu.size > n:
        raise ValueError("type size exceeds n")
    return _classes_at(nu.ctx, _transport_poly(nu), n)


def _classes_at(ctx, polys, n):
    """The CentralVector sum_tau polys[tau](q^n) C_{tau^n} over reduced tau,
    dropping every tau with |tau| > n: no class C_{tau^n} exists for it (its
    card vanishes at X = q^n), although c_tau(q^n) need not."""
    x = ctx.q ** n
    return CentralVector(n, {complete(tau, n): c(x) for tau, c in polys.items()
                             if tau.size <= n})


def _gather(acc, key, value):
    """acc[key] += value, for Laurent values."""
    acc[key] = acc[key] + value if key in acc else value


@memo
def class_expansion(lam):
    """C_{lam^n} = sum_nu a_nu(q^n) Pi_n(Ahat_nu) for every n >= |lam|, as
    {nu: Laurent a_nu(X)}, for a reduced lam.  Cached: callers share the
    returned dict and only read it.

    Pi_n(Ahat_low), low = lam with every (X-1) part lowered by one, is
    sum_tau c_tau C_tau (_transport_poly): c_lam is a monomial c X^e and
    every other tau has ||tau|| < ||lam|| (Polypartition.norm), so
    C_lam = X^-e / c (Pi_n(Ahat_low) - sum_{tau != lam} c_tau C_tau)
    recurses down ||.||.  Without (X-1) parts low is lam, and that monomial
    is all of Pi_n(Ahat_lam)."""
    _card_shape(lam)  # refuses a lam that is not reduced
    low = with_unipotent(lam, [p - 1 for p in lam.unipotent])
    rest = _transport_poly(low)
    lead = rest.pop(lam).terms
    if len(lead) != 1 or any(tau.norm >= lam.norm for tau in rest):
        raise AssertionError("Pi_n(Ahat) of %s does not lead with one monomial on %s"
                             % (format_polypartition(low), format_polypartition(lam)))
    ((e, c),) = lead.items()
    inv = Laurent({-e: 1 / c})
    out = {low: inv}
    for tau, c_tau in rest.items():
        scale = inv * c_tau * -1
        for nu, a in class_expansion(tau).items():
            _gather(out, nu, scale * a)
    return {nu: a for nu, a in out.items() if a}


# product_work adds the engine's type_of calls to the closed form's field
# elements, so a refusal of its count names both
PRODUCT_WORK_UNIT = "type_of calls or field elements"


def product_work(lam, mu, n=None):
    """The work of the tables of fh_polynomials(lam, mu, n), in closed form
    and not growing with n: per pair of the class expansions, the q field
    elements of the closed form or the engine's type_of calls.  The
    expansions' padding laws enumerate nothing."""
    lam, mu = reduce_polypartition(lam), reduce_polypartition(mu)
    return sum(nu.ctx.q if _linear_roots(nu, nu2)
               else invariant_product_work(nu, nu2, _table_dim(nu, nu2, n))
               for nu in class_expansion(lam) for nu2 in class_expansion(mu))


class GenericProduct:
    """C_{lam^n} * C_{mu^n} for every n >= max(|lam|, |mu|) at once, for
    reduced lam and mu, from tables {(nu, nu2): S} = generic_S(nu, nu2, n) of
    Ahat-basis constants Ahat_nu Ahat_nu2 = sum_rho S^rho Ahat_rho over the
    pairs of the class expansions.  Pi_n is an algebra morphism, so

        C_{lam^n} C_{mu^n} = sum_{nu, nu2} a_nu a_nu2 sum_rho S^rho Pi_n(Ahat_rho),

    and expanding each Pi_n(Ahat_rho) in the class basis (_transport_poly)
    gives rhs: per reduced output type tau, the sum p^tau(X) of the
    coefficients on C_{tau^n}, checked to be a genuine polynomial of degree
    at most ||lam|| + ||mu|| - ||tau||.  Without (X-1) parts the one pair
    is (lam, mu).

    With n (kept as top), an engine's table taken at n below
    n0 = |nu| + |nu2| holds only the S^rho with |rho| <= n; the
    Pi_n(Ahat_rho) it leaves out vanish up to n, so at(n) then answers up
    to top only."""

    __slots__ = ("ctx", "lhs", "tables", "rhs", "top")

    def __init__(self, lam, mu, n=None):
        self.ctx, self.lhs, self.top = lam.ctx, (lam, mu), n
        expansions = class_expansion(lam), class_expansion(mu)
        self.tables = {pair: generic_S(*pair, n) for pair in itertools.product(*expansions)}
        coeff = {}
        for (nu, nu2), S in self.tables.items():
            a = expansions[0][nu] * expansions[1][nu2]
            for rho, s in S.items():
                _gather(coeff, rho, a * s)
        gathered = {}
        for rho, c in coeff.items():
            for tau, c_tau in _transport_poly(rho).items():
                _gather(gathered, tau, c * c_tau)
        bound = lam.norm + mu.norm
        self.rhs = {tau: poly for tau, poly in gathered.items() if poly}
        for tau, poly in self.rhs.items():
            if min(poly.terms) < 0:
                raise AssertionError("negative powers survive for %r" % (tau,))
            if max(poly.terms) > bound - tau.norm:
                raise AssertionError("p^%s has degree %d, above %d"
                                     % (format_polypartition(tau), max(poly.terms),
                                        bound - tau.norm))

    def at(self, n):
        """C_{lam^n} * C_{mu^n} as a CentralVector: p^nu(q^n) on C_{nu^n}
        for every nu with |nu| <= n.  Needs max(|lam|, |mu|) <= n, and
        n <= top when the tables stop at top."""
        lam, mu = self.lhs
        if n < max(lam.size, mu.size):
            raise ValueError("n must be at least max(|lam|, |mu|)")
        if self.top is not None and n > self.top:
            raise ValueError("the tables hold n <= %d only" % self.top)
        return _classes_at(self.ctx, self.rhs, n)


def fh_polynomials(lam, mu, n=None):
    """GenericProduct(lam, mu, n) of lam and mu reduced; with n, the result
    answers up to n.  Raises WorkCapExceeded, before any table is computed,
    when their work is above MAX_TYPE_OF_CALLS (product_work)."""
    lam = reduce_polypartition(lam)
    mu = reduce_polypartition(mu)
    check_work("product", product_work(lam, mu, n), PRODUCT_WORK_UNIT)
    return GenericProduct(lam, mu, n)


def class_product(lam, mu, n):
    """C_{lam^n} * C_{mu^n} as an integer CentralVector, by whichever of two
    routes does less work, both counted in closed form before either
    enumerates a class or computes a table.  The polynomial route,
    fh_polynomials(lam, mu, n).at(n), computes only the tables of the class
    expansions (product_work), whose cost does not grow with n; it is
    checked integral and by the mass identity
    sum_nu c^nu card C_nu = card C_{lam^n} card C_{mu^n}.  completed_product
    enumerates the smaller completed class instead, which wins when that
    class is near the center (a scalar class has one element)."""
    if lam.size > n or mu.size > n:
        raise ValueError("type size exceeds n")
    sizes = [class_size(complete(t, n), n) for t in (lam, mu)]
    if min(sizes) < product_work(lam, mu, n):
        return completed_product(lam, mu, n)
    out = fh_polynomials(lam, mu, n).at(n)
    if not out.is_integral():
        raise AssertionError("class product is not integral: %r" % out)
    mass = sum(c * class_size(t, n) for t, c in out.terms.items())
    if mass != sizes[0] * sizes[1]:
        raise AssertionError("class product has mass %s, not %d" % (mass, sizes[0] * sizes[1]))
    return out


def verify_fh(gp, n_list):
    """Compare the GenericProduct gp, evaluated at each n of n_list, with
    completed_product.  Returns {n: {type: (predicted, actual)}} over the
    coefficients that differ, so everything matches when every dict is
    empty."""
    lam, mu = gp.lhs
    zero = Fraction(0)
    report = {}
    for n in n_list:
        predicted = gp.at(n).terms
        actual = completed_product(lam, mu, n).terms
        pairs = ((key, predicted.get(key, zero), actual.get(key, zero))
                 for key in set(predicted) | set(actual))
        report[n] = {format_polypartition(key): (a, b) for key, a, b in pairs if a != b}
    return report
