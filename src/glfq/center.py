"""Products of completed conjugacy classes in the centers Z(C GL(n, F_q)).

The completed class of a polypartition mu with |mu| <= n pads mu(X - 1) with
parts 1 so the matrices act on all of (F_q)^n.  This module expands each
completed class in the images Pi_n(Ahat_nu) of the generic invariants
(class_expansion), takes the generic structure constants S^nu of their
products from generic_S (the degree-1 closed form or the engine), and
assembles, in GenericProduct, the polynomials p^nu(X), X = q^n, of the
expansion C_{lam^n} * C_{mu^n} = sum_nu p^nu(q^n) C_nu; GenericProduct.at(n)
evaluates them, and class_product is their value at one n.
completed_product counts the same
expansion in the group: it is the oracle of verify_fh, and class_product
takes it instead where it enumerates fewer elements.  transport is the
numeric Pi_n of one generic invariant at one n, through which the tests read
the padding law.
"""

import itertools
from fractions import Fraction

from . import degree1, linalg, subspaces
from .conjtype import (
    Partition,
    class_orbit,
    class_size,
    complete,
    format_polypartition,
    gl_order,
    jordan_matrix,
    reduce_polypartition,
    type_of,
    with_unipotent,
)
from .fields import check_work
from .memo import memo
from .partial_iso import AlgElem, invariant_product, invariant_product_work


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


class Laurent:
    """Laurent polynomial in X = q^n with exact coefficients, held as
    {exponent: nonzero coefficient}.  Immutable; the polynomial case reads
    its ascending coefficients from coeffs."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {p: c for p, c in terms.items() if c} if terms else {}

    def __add__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return Laurent(out)

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            return Laurent({p: c * other for p, c in self.terms.items()})
        out = {}
        for p, c in self.terms.items():
            for p2, c2 in other.terms.items():
                out[p + p2] = out.get(p + p2, 0) + c * c2
        return Laurent(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact quotient by long division from the top.  An exact quotient
        has no exponent below min(self) - min(other): the division stops
        there and raises AssertionError if a remainder is left."""
        b = other.terms
        if not b:
            raise ValueError("division of %r by the zero Laurent polynomial" % self)
        top_b, low = max(b), min(self.terms, default=0) - min(b)
        out, rem = {}, dict(self.terms)
        while rem:
            e = max(rem) - top_b
            if e < low:
                raise AssertionError("%r is not divisible by %r" % (self, other))
            c = out[e] = Fraction(rem[e + top_b], b[top_b])
            for p, cb in b.items():
                rem[e + p] = rem.get(e + p, 0) - c * cb
                if not rem[e + p]:
                    del rem[e + p]
        return Laurent(out)

    def __call__(self, x):
        x = Fraction(x)
        return sum((c * x ** p for p, c in self.terms.items()), Fraction(0))

    def __eq__(self, other):
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def coeffs(self):
        """Ascending coefficients (c_0, ..., c_degree) of a polynomial."""
        if min(self.terms, default=0) < 0:
            raise ValueError("%r has negative powers of X" % self)
        return tuple(self.terms.get(i, 0) for i in range(max(self.terms, default=-1) + 1))

    def __repr__(self):
        return " + ".join(
            "%s*X^%d" % (c, p) if p else str(c)
            for p, c in sorted(self.terms.items())) or "0"


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
    f = l(pi) - e.  Cached: callers share the returned dict and only read it."""
    q, u, pi = ctx.q, sum(pi), Partition(pi)
    conj = pi.conjugate().parts + (0,)
    s = [a - b for a, b in zip(conj, conj[1:])]
    out = {}
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
            out[d, core] = g * subspaces.num_subspaces(q, D - f, d - f) * q ** (f * (D - d))
    return out


def _transport_poly(nu):
    """Pi_n(Ahat_nu) for every n >= |nu| at once, as {reduced tau: Laurent
    weight w(X)} with Pi_n(Ahat_nu) = sum_tau w(q^n) C_{tau^n} / card C_{tau^n}.

    The padding P is a uniform |nu| x (n - |nu|) block; a profile (d, core)
    of _padding_profiles has probability
    cnt * prod_{i<d} (q^{n-k} - q^i) / q^{u (n-k)} with q^{n-k} = X q^{-k},
    and the lift carries num_free_families(q, n, k) in front."""
    ctx = nu.ctx
    q = ctx.q
    k = nu.size
    pi = nu.unipotent
    u = sum(pi)
    law = {}
    for (d, core), cnt in _padding_profiles(ctx, pi).items():
        wt = Laurent({-u: cnt * q ** (k * u)})
        for i in range(d):
            wt = wt * Laurent({1: Fraction(1, q ** k), 0: -(q ** i)})
        tau = with_unipotent(nu, core)
        law[tau] = law[tau] + wt if tau in law else wt
    total = sum(law.values(), Laurent())
    if total != Laurent({0: 1}):
        raise AssertionError("padding law of %s sums to %r, not 1"
                             % (format_polypartition(nu), total))
    nf = num_free_poly(q, k)
    return {tau: nf * wt for tau, wt in law.items()}


def transport(nu, n):
    """The exact expansion of Pi_n(Ahat_nu) in completed classes: the
    weights of _transport_poly at X = q^n.  Returns a rational CentralVector.
    For nu without parts 1 on (X-1) this is a single class; in general the
    (X-1) block of the composite spreads over several types."""
    ctx = nu.ctx
    if nu.size > n:
        raise ValueError("type size exceeds n")
    x = Fraction(ctx.q) ** n
    out = {}
    for tau, wt in _transport_poly(nu).items():
        # profiles whose Y is larger than the padding weigh 0 at this n; a
        # tau left with none of them has zero weight and does not fit in n
        w = wt(x)
        if w:
            tau = complete(tau, n)
            out[tau] = w / class_size(tau, n)
    return CentralVector(n, out)


# ---------------------------------------------------------------------------
# Symbolic (Laurent in X = q^n) versions of the class sizes.

def num_free_poly(q, k):
    """num_free_families(q, n, k) as a polynomial in X = q^n:
    prod_{j<k} (X - q^j)."""
    out = Laurent({0: 1})
    for j in range(k):
        out = out * Laurent({1: 1, 0: -(q ** j)})
    return out


def completed_class_size_poly(tau):
    """card C_{tau^n} as a Laurent polynomial in X = q^n, for reduced tau
    (no parts 1 on (X-1)).

    card C = |GL(n, q)| / Z(n) where the centralizer splits over the factors;
    only the (X-1) factor grows with n, by m = n - |tau| extra parts 1.  With
    s = |tau| - len(tau(X-1)) the q-power exponents are linear in n and
    (q^{-1})_n / (q^{-1})_{n-|tau|} is a polynomial in 1/X, so card C is the
    shape X^{2s} prod_{j<|tau|} (1 - q^j/X) = X^{2s-|tau|} nf(q, n, |tau|)
    times a constant: class_size at n = |tau| over the shape there,
    q^(|tau| (2s-|tau|)) |GL(|tau|, F_q)|, which is not 0."""
    if 1 in tau.unipotent:
        raise ValueError("type %r is not reduced: it has parts 1 on X - 1" % tau)
    q, t = tau.ctx.q, tau.size
    e = 2 * _norm(tau) - t
    at_t = Fraction(q) ** (t * e) * gl_order(q, t)
    return Laurent({e: class_size(tau, t) / at_t}) * num_free_poly(q, t)


def _norm(tau):
    """||tau|| = |tau| - l(tau(X-1)) = rank(g - 1) for g in C_tau, for a
    reduced tau."""
    return tau.size - len(tau.unipotent)


def _gather(acc, key, value):
    """acc[key] += value, for Laurent values."""
    acc[key] = acc[key] + value if key in acc else value


@memo
def class_expansion(lam):
    """C_{lam^n} = sum_nu a_nu(q^n) Pi_n(Ahat_nu) for every n >= |lam|, as
    {nu: Laurent a_nu(X)}, for a reduced lam.  Cached: callers share the
    returned dict and only read it.

    Without (X-1) parts C_{lam^n} / card is Pi_n(Ahat_lam) / nf(|lam|), a
    single term.  Otherwise Pi_n(Ahat_{lam-}), lam- with every (X-1) part
    lowered by one, spreads over the completed classes as sum_tau c_tau C_tau
    with c_tau = w_tau / card C_tau (_transport_poly): c_lam is a monomial
    c X^e and every other tau has ||tau|| < ||lam||, so
    C_lam = X^-e / c (Pi_n(Ahat_{lam-}) - sum_{tau != lam} c_tau C_tau)
    recurses down ||.||."""
    card = completed_class_size_poly(lam)  # refuses a lam that is not reduced
    if not lam.unipotent:
        return {lam: card / num_free_poly(lam.ctx.q, lam.size)}
    low = with_unipotent(lam, [p - 1 for p in lam.unipotent])
    rest = {tau: wt / completed_class_size_poly(tau)
            for tau, wt in _transport_poly(low).items()}
    lead = rest.pop(lam).terms
    if len(lead) != 1 or any(_norm(tau) >= _norm(lam) for tau in rest):
        raise AssertionError("Pi_n(Ahat) of %s does not lead with one monomial on %s"
                             % (format_polypartition(low), format_polypartition(lam)))
    ((e, c),) = lead.items()
    inv = Laurent({-e: 1 / Fraction(c)})
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
    reduced lam and mu, from tables {(nu, nu2): S} = generic_S(nu, nu2) of
    Ahat-basis constants Ahat_nu Ahat_nu2 = sum_rho S^rho Ahat_rho over the
    pairs of the class expansions.  Pi_n is an algebra morphism, so

        C_{lam^n} C_{mu^n} = sum_{nu, nu2} a_nu a_nu2 sum_rho S^rho Pi_n(Ahat_rho),

    and expanding each Pi_n(Ahat_rho) by the padded-unipotent law
    (_transport_poly) gives rhs: per reduced output type tau, the exact
    quotient p^tau(X) of a Laurent polynomial by card C_{tau^n}, checked to
    be a genuine polynomial of degree at most ||lam|| + ||mu|| - ||tau||.
    Without (X-1) parts the one pair is (lam, mu), and a_lam a_mu is
    card C_lam card C_mu / (nf(|lam|) nf(|mu|)).

    The engine's tables taken at a dimension top below n0 = |nu| + |nu2|
    hold only the S^rho with |rho| <= top; the Pi_n(Ahat_rho) they leave
    out vanish for n <= top, so at(n) then answers for n <= top."""

    __slots__ = ("ctx", "lhs", "tables", "rhs", "top")

    def __init__(self, lam, mu, tables, top=None):
        self.ctx, self.lhs, self.tables, self.top = lam.ctx, (lam, mu), tables, top
        expansions = class_expansion(lam), class_expansion(mu)
        if set(tables) != set(itertools.product(*expansions)):
            raise ValueError("need one table per pair of the class expansions")
        coeff = {}
        for (nu, nu2), S in tables.items():
            a = expansions[0][nu] * expansions[1][nu2]
            for rho, s in S.items():
                _gather(coeff, rho, a * s)
        gathered = {}
        for rho, c in coeff.items():
            for tau, wt in _transport_poly(rho).items():
                _gather(gathered, tau, c * wt)
        bound = _norm(lam) + _norm(mu)
        self.rhs = {}
        for tau, wt in gathered.items():
            poly = wt / completed_class_size_poly(tau)
            if not poly:
                continue
            if min(poly.terms) < 0:
                raise AssertionError("negative powers survive for %r" % (tau,))
            if max(poly.terms) > bound - _norm(tau):
                raise AssertionError("p^%s has degree %d, above %d"
                                     % (format_polypartition(tau), max(poly.terms),
                                        bound - _norm(tau)))
            self.rhs[tau] = poly

    def at(self, n):
        """C_{lam^n} * C_{mu^n} as a CentralVector: p^nu(q^n) on C_{nu^n}
        for every nu with |nu| <= n.  Needs max(|lam|, |mu|) <= n, and
        n <= top when the tables stop at top."""
        lam, mu = self.lhs
        if n < max(lam.size, mu.size):
            raise ValueError("n must be at least max(|lam|, |mu|)")
        if self.top is not None and n > self.top:
            raise ValueError("the tables hold n <= %d only" % self.top)
        x = Fraction(self.ctx.q) ** n
        # no class C_{nu^n} exists for |nu| > n: its size vanishes at q^n,
        # although p^nu(q^n) need not
        return CentralVector(n, {
            complete(nu, n): poly(x) for nu, poly in self.rhs.items() if nu.size <= n})


def fh_polynomials(lam, mu, n=None):
    """The GenericProduct of the reduced lam and mu, with the tables
    generic_S(nu, nu2) over the pairs of the class expansions.  With n,
    each table is generic_S(nu, nu2, n), which is all at(n) reads, and the
    result answers up to n.  Raises WorkCapExceeded, before any table is
    computed, when their work is above MAX_TYPE_OF_CALLS (product_work)."""
    lam = reduce_polypartition(lam)
    mu = reduce_polypartition(mu)
    check_work("product", product_work(lam, mu, n), PRODUCT_WORK_UNIT)
    tables = {(nu, nu2): generic_S(nu, nu2, n)
              for nu in class_expansion(lam) for nu2 in class_expansion(mu)}
    return GenericProduct(lam, mu, tables, n)


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
    smaller = min(class_size(complete(t, n), n) for t in (lam, mu))
    if smaller < product_work(lam, mu, n):
        return completed_product(lam, mu, n)
    out = fh_polynomials(lam, mu, n).at(n)
    if not out.is_integral():
        raise AssertionError("class product is not integral: %r" % out)
    mass = sum(c * class_size(t, n) for t, c in out.terms.items())
    want = class_size(complete(lam, n), n) * class_size(complete(mu, n), n)
    if mass != want:
        raise AssertionError("class product has mass %s, not %d" % (mass, want))
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
