"""Reference implementations that only the tests call.

Each one is the definition of a quantity that the library computes another
way: the class product by a double loop over both classes, the change from
orbit-average (Atilde) to Ahat structure constants, the Pi_n scalar
of a type without spread, the basis I(n, F_q) as a nested-loop list, the
projection pi_n through the product with the identity, the two extension
predicates on partial isomorphisms, the per-term averages over left-fixed
and over compatible extensions, the naive extensions by a scan of GL(k+),
the middle-space automorphisms by a loop over their images and the padding
law by ranks of powers, the text of field elements and polynomials by
term loops and its reading by a split at '+' and '-', squareness by
Euler's criterion, GL(n, F_q) by the rank of every matrix, polynomials of
matrices by sums of powers, the atoms of the naive search by a scan of
the subspaces, the algebra's product, restriction operator and projection
pi_n with a Fraction added per term, the centralizer order, the rank and
dimension laws, the rescaling of phi and the symbolic class sizes by
Fraction Pochhammer symbols in 1/q, and extension-field arithmetic and
tables by one schoolbook product per operation.  They are slow and kept
simple on purpose.  A few small helpers that only the tests read live here
too.
"""

import itertools
from fractions import Fraction

from glfq import fields, linalg, subspaces
from glfq.center import CentralVector, Laurent
from glfq.conjtype import (
    Partition,
    Polypartition,
    class_orbit,
    class_size,
    complete,
    enumerate_gl,
    jordan_matrix,
    num_free_families,
    type_of,
    with_unipotent,
)
from glfq.partial_iso import (
    AlgElem,
    PairAlgElem,
    PartialIso,
    _basis_product,
    basis_elem,
    empty_piso,
    piso_type,
    product,
    rev,
    trivial_extensions_fixed_right,
    trivial_extensions_grouped,
)


def mat_vec(ctx, A, v):
    """A acting on the coordinate column v (v given as a flat tuple)."""
    return ctx.row_dots(v, A)


def peval(ctx, P, x):
    """The polynomial P (ascending coefficients) evaluated at x, by Horner."""
    r = 0
    for c in reversed(P):
        r = ctx.add(ctx.mul(r, x), c)
    return r


def is_square_by_euler(ctx, a):
    """Euler's criterion: a is a square iff a = 0, q is even (squaring is
    the Frobenius bijection) or a^((q-1)/2) = 1."""
    return a == 0 or ctx.p == 2 or ctx.pow(a, (ctx.q - 1) // 2) == 1


def elem_str_by_terms(ctx, a):
    """The element syntax by a loop over the base-p digits, highest first."""
    if ctx.e == 1:
        return str(a)
    digs = ctx.digits(a)
    terms = []
    for i in range(ctx.e - 1, -1, -1):
        c = digs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "t" if i == 1 else "t^%d" % i
            terms.append(var if c == 1 else "%d*%s" % (c, var))
    return "+".join(terms) if terms else "0"


def poly_str_by_terms(ctx, P):
    """The polynomial syntax by a loop over the coefficients, highest first;
    an extension-field coefficient with a '+' is parenthesised."""
    if not P:
        return "0"
    terms = []
    for i in range(len(P) - 1, -1, -1):
        c = P[i]
        if c == 0:
            continue
        cs = elem_str_by_terms(ctx, c)
        if i == 0:
            terms.append(cs)
        else:
            var = "X" if i == 1 else "X^%d" % i
            if c == 1:
                terms.append(var)
            elif ctx.e > 1 and ("+" in cs):
                terms.append("(%s)*%s" % (cs, var))
            else:
                terms.append("%s*%s" % (cs, var))
    return "+".join(terms)


def elem_parse_by_terms(ctx, s):
    """The element syntax read by splitting at '+' after marking each '-':
    an integer mod p for a prime field, else a sum of c*t^i with integer
    coefficients c in [0, p)."""
    s = s.replace(" ", "")

    def integer(lit):
        try:
            return int(lit)
        except ValueError:
            raise ValueError("bad field element %r: %r is not an integer"
                             % (s, lit)) from None

    if ctx.e == 1:
        return integer(s) % ctx.p
    digs = [0] * ctx.e
    for term in s.replace("-", "+-").split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "t" in term:
            coef, _, rest = term.partition("t")
            c = integer(coef.rstrip("*")) if coef else 1
            i = integer(rest[1:]) if rest.startswith("^") else 1
        else:
            c, i = integer(term), 0
        if i >= ctx.e:
            raise ValueError("generator power out of range: %r" % s)
        if not 0 <= c < ctx.p:
            raise ValueError(
                "coefficient %d out of range [0, %d) in %r" % (c, ctx.p, s))
        digs[i] = (digs[i] + (-c if neg else c)) % ctx.p
    return ctx.encode(digs)


def poly_parse_by_terms(ctx, s):
    """The polynomial syntax read by a character loop that splits at the
    '+' and '-' outside parentheses; coefficients by elem_parse_by_terms."""
    s = s.replace(" ", "").replace("**", "^")
    if s == "0":
        return ()
    terms = []
    depth, cur, sign = 0, "", 1
    for ch in s:
        if ch == "(":
            depth += 1
            cur += ch
        elif ch == ")":
            depth -= 1
            cur += ch
        elif ch in "+-" and depth == 0 and cur:
            terms.append((sign, cur))
            sign = -1 if ch == "-" else 1
            cur = ""
        elif ch in "+-" and depth == 0 and not cur:
            sign = -sign if ch == "-" else sign
        else:
            cur += ch
    if cur:
        terms.append((sign, cur))
    coeffs = {}
    for sign, term in terms:
        if "X" in term:
            coef_s, _, rest = term.partition("X")
            coef_s = coef_s.rstrip("*")
            if coef_s.startswith("(") and coef_s.endswith(")"):
                coef_s = coef_s[1:-1]
            c = elem_parse_by_terms(ctx, coef_s) if coef_s else 1
            i = int(rest[1:]) if rest.startswith("^") else 1
        else:
            c, i = elem_parse_by_terms(ctx, term), 0
        if sign < 0:
            c = ctx.neg(c)
        coeffs[i] = ctx.add(coeffs.get(i, 0), c)
    n = max(coeffs) + 1 if coeffs else 0
    return fields.pnorm(tuple(coeffs.get(i, 0) for i in range(n)))


def k11_of(mu):
    """Number of parts equal to 1 in the (X-1) partition of the type mu."""
    return mu.partition(fields.linear_poly(mu.ctx, 1)).mult(1)


def class_convolution(lam, mu, n):
    """C_{lam^n} * C_{mu^n} by a full double loop over both completed
    classes."""
    ctx = lam.ctx
    counts = {}
    for g in class_orbit(lam, n):
        for h in class_orbit(mu, n):
            t = type_of(ctx, linalg.mat_mul(ctx, h, g))
            counts[t] = counts.get(t, 0) + 1
    out = {}
    for t, c in counts.items():
        coeff, rem = divmod(c, class_size(t, n))
        assert not rem, (t, c)
        out[t] = coeff
    return CentralVector(n, out)


def pi_scalar(mu, n):
    """The scalar lambda with Pi_n(Ahat_mu) = lambda * C_{mu^n} / card(C_mu):
    q^{n(2k1-k)} q^{2k(k-k1)} (q^{-1})_k (q^{-1})_{n-k+k11}
    / ((q^{-1})_{k11} (q^{-1})_{n-k})."""
    k, k1, k11 = mu.size, mu.k1, k11_of(mu)
    q = mu.ctx.q
    qi = Fraction(1, q)
    return (
        Fraction(q) ** (n * (2 * k1 - k))
        * Fraction(q) ** (2 * k * (k - k1))
        * pochhammer(qi, k)
        * pochhammer(qi, n - k + k11)
        / (pochhammer(qi, k11) * pochhammer(qi, n - k))
    )


def hat_from_tilde(ctx, tilde_coeffs, lam, mu, n):
    """Convert Atilde-basis structure constants at ambient n to the Ahat
    basis: Ahat = num_free_families * Atilde."""
    q = ctx.q
    nf = num_free_families(q, n, lam.size) * num_free_families(q, n, mu.size)
    return {
        nu: c * Fraction(nf, num_free_families(q, n, nu.size))
        for nu, c in tilde_coeffs.items()
    }


def pi_expansion(hat_coeffs, n):
    """Pi_n applied to sum S_nu Ahat_nu by the pi_scalar display: a rational
    CentralVector."""
    out = {}
    for nu, c in hat_coeffs.items():
        key = complete(nu, n)
        out[key] = out.get(key, 0) + c * pi_scalar(nu, n) / class_size(nu, nu.size)
    return CentralVector(n, out)


def all_pisos_by_loops(ctx, n):
    """The basis I(n, F_q) as a list, by nested loops: the empty partial
    isomorphism, then for each k = 1..n every V, W, g1, g2 in turn."""
    out = [empty_piso(n)]
    for k in range(1, n + 1):
        subs = subspaces.enumerate_subspaces(ctx, n, k)
        gl = enumerate_gl(ctx, k)
        for V in subs:
            for W in subs:
                for g1 in gl:
                    for g2 in gl:
                        out.append(PartialIso(V, W, g1, g2))
    return out


def pi_n_by_lift(ctx, x):
    """pi_n by its definition: the lift x * id_{(F_q)^n} through the
    product, each term read as its pair (g1, g2)."""
    full = subspaces.full_subspace(x.n)
    ident = linalg.identity(x.n)
    lifted = product(ctx, x, basis_elem(PartialIso(full, full, ident, ident)))
    out = {}
    for t, c in lifted.terms.items():
        out[t.g1, t.g2] = out.get((t.g1, t.g2), 0) + c
    return PairAlgElem(x.n, out)


def product_by_fractions(ctx, x, y):
    """The algebra product with a Fraction added per output term of each
    basis product, every pair through the uncached general route (also the
    composable pairs a.W == b.V that product builds directly)."""
    out = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            total, counts = _basis_product.__wrapped__(ctx, a, b)
            for t, c in counts.items():
                out[t] = out.get(t, 0) + ca * cb * Fraction(c, total)
    return AlgElem(x.n, out)


def op_R_by_fractions(ctx, X, x):
    """op_R as a Fraction-accumulating average over the strict extensions
    with right space t.W + X of each term t."""
    return extension_average(x, lambda t: trivial_extensions_fixed_right(
        ctx, t, subspaces.subspace_sum(ctx, t.W, X)))


def pi_n_by_fractions(ctx, x):
    """pi_n with a Fraction added per compatible extension of each term to
    (F_q)^n."""
    full = subspaces.full_subspace(x.n)
    out = {}
    for t, c in x.terms.items():
        exts = compatible_extensions(ctx, t, full)
        for e in exts:
            out[e.g1, e.g2] = out.get((e.g1, e.g2), 0) + c / len(exts)
    return PairAlgElem(x.n, out)


def pair_mul_by_fractions(ctx, x, y):
    """PairAlgElem.mul with Fraction coefficients: (g1, g2)(h1, h2) =
    (g1h1, h2g2), matrices composing in reverse."""
    out = {}
    for (a1, a2), ca in x.terms.items():
        for (b1, b2), cb in y.terms.items():
            key = (linalg.mat_mul(ctx, b1, a1), linalg.mat_mul(ctx, a2, b2))
            out[key] = out.get(key, 0) + ca * cb
    return PairAlgElem(x.n, out)


def _fwd(ctx, x, v):
    """Image under g1 of an ambient vector v of V, as an ambient vector."""
    return linalg.row_combine(ctx, mat_vec(ctx, x.g1, x.V.coords(v)), x.W.basis, x.n)


def _bwd(ctx, x, w):
    """Image under g2 of an ambient vector w of W, as an ambient vector."""
    return _fwd(ctx, rev(x), w)


def is_extension(ctx, small, big):
    """True iff big extends small: larger spaces, restrictions agree."""
    return (big.V.contains(ctx, small.V) and big.W.contains(ctx, small.W)
            and all(_fwd(ctx, big, v) == _fwd(ctx, small, v) for v in small.V.basis)
            and all(_bwd(ctx, big, w) == _bwd(ctx, small, w) for w in small.W.basis))


def is_strict_extension(ctx, small, big):
    """big extends small and its composite type gains only parts 1 on the
    (X-1)-partition."""
    return (is_extension(ctx, small, big)
            and piso_type(ctx, big) == complete(piso_type(ctx, small), big.dim))


def is_compatible_extension(ctx, small, big):
    """big extends small and the quotient maps V+/V <-> W+/W it induces are
    mutually inverse.  Strict implies compatible; the converse fails
    whenever the composite of small has a fixed vector."""

    def round_trips(x, base):
        # g2 g1 sends every u of the left space of x back to u modulo base
        def red(v):
            return subspaces.reduce_against(ctx, v, base.basis)
        return all(red(_bwd(ctx, x, _fwd(ctx, x, u))) == red(u) for u in x.V.basis)

    return (is_extension(ctx, small, big)
            and round_trips(big, small.V) and round_trips(rev(big), small.W))


def extension_average(x, extend):
    """Per-term uniform average: each term t of x becomes the mean of the
    partial isomorphisms extend(t)."""
    out = {}
    for t, c in x.terms.items():
        exts = extend(t)
        w = c / len(exts)
        for e in exts:
            out[e] = out.get(e, 0) + w
    return AlgElem(x.n, out)


def compatible_extensions(ctx, x, W_plus):
    """The compatible extensions of x with right space W_plus: the groups
    of trivial_extensions_grouped, flattened."""
    return [PartialIso(V_plus, W_plus, g1, g2)
            for V_plus, g1, g2s in trivial_extensions_grouped(ctx, x, W_plus, False)
            for g2 in g2s]


def extensions_fixed_left(ctx, x, V_plus, strict=True):
    """Extensions of x with left space V_plus and the right space free: the
    right-fixed extensions of rev(x), reversed."""
    extend = trivial_extensions_fixed_right if strict else compatible_extensions
    return [rev(y) for y in extend(ctx, rev(x), V_plus)]


def op_L_by_left_extensions(ctx, X, x):
    """L^X as the per-term average over the strict extensions with left
    space t.V + X."""
    return extension_average(x, lambda t: extensions_fixed_left(
        ctx, t, subspaces.subspace_sum(ctx, t.V, X)))


def compatible_R(ctx, X, x):
    """The compatible counterpart of R^X: each term t becomes the mean of
    its compatible extensions with right space t.W + X."""
    return extension_average(x, lambda t: compatible_extensions(
        ctx, t, subspaces.subspace_sum(ctx, t.W, X)))


def compatible_L(ctx, X, x):
    """The compatible counterpart of L^X: each term t becomes the mean of
    its compatible extensions with left space t.V + X."""
    return extension_average(x, lambda t: extensions_fixed_left(
        ctx, t, subspaces.subspace_sum(ctx, t.V, X), strict=False))


def naive_extensions_by_scan(ctx, V, g, V_plus):
    """partial_iso.naive_extensions by its definition: every h in
    GL(dim V_plus), in enumerate_gl order, that restricts to g on V and
    whose type is the type of g completed to dim V_plus."""
    k_plus = V_plus.dim
    if k_plus == V.dim:
        return [g]
    target = complete(type_of(ctx, g), k_plus)
    base_imgs = [
        linalg.row_combine(ctx, mat_vec(ctx, g, V.coords(v)), V.basis, V.ambient)
        for v in V.basis
    ]
    out = []
    for h in enumerate_gl(ctx, k_plus):
        if all(linalg.row_combine(ctx, mat_vec(ctx, h, V_plus.coords(v)),
                                  V_plus.basis, V.ambient) == img
               for v, img in zip(V.basis, base_imgs)) and type_of(ctx, h) == target:
            out.append(h)
    return out


def supported_automorphisms_by_images(ctx, nu, S, m, fix_class=False):
    """The middle-space automorphisms of the invariant-product engine by
    the images of a basis: all N in GL(m) that act as the identity on the
    quotient by S and whose restriction to S has type nu (with fix_class,
    is the Jordan representative of nu).  N is u on the canonical basis of
    S, and c_j + w_j on each vector c_j of a fixed completion, with w_j
    ranging over S."""
    s = S.dim
    rows_basis = subspaces.extend_basis(ctx, S, subspaces.full_subspace(m))
    reps = [jordan_matrix(nu)] if fix_class else class_orbit(nu, s)
    Binv = linalg.inverse(ctx, linalg.transpose(rows_basis))
    out = []
    for u in reps:
        base_img = [linalg.row_combine(ctx, col, S.basis, m) for col in linalg.transpose(u)]
        for ws in itertools.product(S.vectors(ctx), repeat=m - s):
            cols = base_img + [tuple(ctx.add(a, b) for a, b in zip(c, w))
                               for c, w in zip(rows_basis[s:], ws)]
            # N = (images as columns) (basis as columns)^{-1}
            out.append(linalg.mat_mul(ctx, linalg.transpose(cols), Binv))
    return out


def padding_profiles_by_ranks(ctx, pi):
    """center._padding_profiles by ranks of powers: for N = [[U, P], [0, I]]
    with colspan(P) = Y, rank (N-I)^j = rank [ (U-I)^j | (U-I)^{j-1} Y ],
    and the rank drops give the Jordan blocks of size >= 2."""
    u = sum(pi)
    if u == 0:
        return {(0, ()): 1}
    U = jordan_matrix(Polypartition(ctx, ((fields.linear_poly(ctx, 1), Partition(pi)),)))
    Nm = linalg.mat_sub(ctx, U, linalg.identity(u))
    pows = [linalg.identity(u)]
    while any(any(r) for r in pows[-1]):
        pows.append(linalg.mat_mul(ctx, pows[-1], Nm))
    zero = linalg.zeros(u, u)
    out = {}
    for d in range(u + 1):
        for Y in subspaces.enumerate_subspaces(ctx, u, d):
            ranks, j = [], 1
            while not ranks or ranks[-1]:
                Pj = pows[j] if j < len(pows) else zero
                Pjm1 = pows[j - 1] if j - 1 < len(pows) else zero
                cols = list(linalg.transpose(Pj))
                cols += [mat_vec(ctx, Pjm1, y) for y in Y.basis]
                ranks.append(linalg.rank(ctx, tuple(cols)))
                j += 1
            # ranks[j-1] - ranks[j] is the number of Jordan blocks of size
            # >= j + 1; conjugating gives the padded type minus its parts 1
            drops = [c for c in (ranks[i - 1] - ranks[i] for i in range(1, len(ranks))) if c > 0]
            core = tuple(x + 1 for x in Partition(tuple(drops)).conjugate().parts)
            out[d, core] = out.get((d, core), 0) + 1
    return out


def invertible_by_rank(ctx, n):
    """GL(n, F_q) as every one of the q^(n^2) matrices of full rank, rows
    in lexicographic order (the order of enumerate_completions)."""
    rows = list(itertools.product(ctx.elements(), repeat=n))
    return [M for M in itertools.product(rows, repeat=n) if linalg.rank(ctx, M) == n]


def apply_poly_by_powers(ctx, P, A):
    """P(A) as sum_i P[i] A^i, term by term."""
    n = len(A)
    out, power = linalg.zeros(n, n), linalg.identity(n)
    for c in P:
        out = tuple(tuple(ctx.add(x, ctx.mul(c, y)) for x, y in zip(orow, prow))
                    for orow, prow in zip(out, power))
        power = linalg.mat_mul(ctx, power, A)
    return out


def naive_atoms_by_scan(ctx, n):
    """The number of atoms of partial_iso.naive_product_counterexample: for
    k = 1, 2, a k-space L, two automorphisms of it other than the identity,
    and a (k+1)-space containing L, counted by a scan of the subspaces."""
    total = 0
    for k in (1, 2):
        if k + 1 > n:
            continue
        others = len(enumerate_gl(ctx, k)) - 1
        bigs = subspaces.enumerate_subspaces(ctx, n, k + 1)
        for L in subspaces.enumerate_subspaces(ctx, n, k):
            total += others * others * sum(1 for P in bigs if P.contains(ctx, L))
    return total


def pochhammer(x, m):
    """(x)_m = (1-x)(1-x^2)...(1-x^m) with exact Fraction arithmetic."""
    if m < 0:
        raise ValueError("pochhammer needs m >= 0, got %d" % m)
    x = Fraction(x)
    out = Fraction(1)
    p = Fraction(1)
    for _ in range(m):
        p *= x
        out *= 1 - p
    return out


def rank_law_by_pochhammer(d, q, a, c):
    """P_{d,q}[X_a = c] = q^((d-c)(c-a)) (1/q)_a (1/q)_d
    / ((1/q)_c (1/q)_(a-c) (1/q)_(d-c)), 0 off its support."""
    if not (0 <= c <= min(a, d)):
        return Fraction(0)
    qi = Fraction(1, q)
    return (
        Fraction(q) ** ((d - c) * (c - a))
        * pochhammer(qi, a)
        * pochhammer(qi, d)
        / (pochhammer(qi, c) * pochhammer(qi, a - c) * pochhammer(qi, d - c))
    )


def dim_sum_law_by_pochhammer(n, q, j, k, l, m):
    """The law of dim(U+ + W) in q-Pochhammer symbols of 1/q, 0 off its
    support sup(k,l) <= m <= inf(n, k+l-j)."""
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


def count_constrained_subspaces_by_pochhammer(j, k, l, m, q):
    """q^((m-l)(l-j)) (1/q)_(k-j) / ((1/q)_(m-l) (1/q)_(k+l-j-m)), a
    Fraction, 0 when k+l-j-m < 0."""
    if k + l - j - m < 0:
        return Fraction(0)
    qi = Fraction(1, q)
    return (
        Fraction(q) ** ((m - l) * (l - j))
        * pochhammer(qi, k - j)
        / (pochhammer(qi, m - l) * pochhammer(qi, k + l - j - m))
    )


def phi_scale_by_pochhammer(q, n_big, n_small, k):
    """The rescaling of phi on a k-space, from ambient n_big to n_small:
    q^((n_big - n_small) k) (1/q)_(n_big) (1/q)_(n_small - k)
    / ((1/q)_(n_big - k) (1/q)_(n_small))."""
    qi = Fraction(1, q)
    return (
        Fraction(q) ** ((n_big - n_small) * k)
        * pochhammer(qi, n_big)
        * pochhammer(qi, n_small - k)
        / (pochhammer(qi, n_big - k) * pochhammer(qi, n_small))
    )


def completed_class_size_poly_by_pochhammer(tau):
    """card C_{tau^n} for a reduced tau as the Laurent polynomial
    X^(2s) q^(-s^2 - c2) prod_{j<|tau|} (1 - q^j/X) / (B Z_other) in X = q^n:
    s = |tau| - len(tau(X-1)), c2 the sum of the squared columns of the
    (X-1) partition beyond the first, B the product of (1/q)_m over the
    multiplicities m of its parts and Z_other the centralizer order of
    the rest of tau."""
    q = tau.ctx.q
    pi = tau.unipotent
    t = tau.size
    s = t - len(pi)
    c2 = sum(c * c for c in Partition(pi).conjugate().parts[1:])
    B = Fraction(1)
    for i in set(pi):
        B *= pochhammer(Fraction(1, q), pi.count(i))
    z_other = centralizer_order_by_pochhammer(with_unipotent(tau, ()))
    out = Laurent({2 * s: Fraction(q) ** (-s * s - c2) / (B * z_other)})
    for j in range(t):
        out = out * Laurent({0: 1, -1: -(q ** j)})
    return out


def centralizer_order_by_pochhammer(mu):
    """|C(mu)| = q^(|mu| + 2 b(mu)) prod_P prod_i (q^(-deg P))_{m_i}, m_i
    the multiplicity of the part i in the partition of P, in Fractions."""
    q = mu.ctx.q
    out = Fraction(q) ** (mu.size + 2 * mu.b())
    for P, part in mu.entries:
        for k in set(part.parts):
            out *= pochhammer(Fraction(1, q ** fields.pdeg(P)), part.mult(k))
    return out


class SchoolbookField:
    """Reference arithmetic on base-p digit vectors modulo ctx.modulus,
    computed afresh on every call without any of the field's tables."""

    def __init__(self, ctx):
        self.p, self.e, self.q, self.mod = ctx.p, ctx.e, ctx.q, ctx.modulus

    def digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.e)]

    def encode(self, digs):
        return sum(d % self.p * self.p ** i for i, d in enumerate(digs))

    def add(self, a, b):
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a, b):
        return self.encode([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        e = self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for i in range(2 * e - 2, e - 1, -1):  # X^e = -(mod[0] + ... + mod[e-1] X^(e-1))
            c, prod[i] = prod[i], 0
            for j in range(e):
                prod[i - e + j] -= c * self.mod[j]
        return self.encode(prod[:e])

    def pow(self, a, k):  # by squaring
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def inv(self, a):  # a^(q-2) by repeated multiplication
        r = 1
        for _ in range(self.q - 2):
            r = self.mul(r, a)
        return r


def field_tables_by_schoolbook(ctx):
    """The (exp, log, zech) tables of an extension field, built with one
    schoolbook product per power of the smallest primitive element g:
    exp holds g^0..g^(q-2) twice, log[g^k] = k (None at 0) and
    zech[k] = log(1 + g^k)."""
    p, q = ctx.p, ctx.q
    ref = SchoolbookField(ctx)
    g = ctx._smallest_primitive(ref.pow)
    powers, x = [], 1
    for _ in range(q - 1):
        powers.append(x)
        x = ref.mul(x, g)
    log = [None] * q
    for k, x in enumerate(powers):
        log[x] = k
    zech = [log[x - x % p + (x + 1) % p] for x in powers]
    return powers + powers, log, zech
