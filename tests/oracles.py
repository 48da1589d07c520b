"""Reference implementations that only the tests call.

Each one is the definition of a quantity that the library computes another
way: the class product by a double loop over both classes, the Pi_n scalar
of a type without spread, the two extension predicates on partial
isomorphisms, and the per-term averages over left-fixed and over compatible
extensions.  They are slow and kept simple on purpose.
"""

from fractions import Fraction

from glfq import linalg, subspaces
from glfq.center import CentralVector
from glfq.conjtype import class_orbit, class_size, complete, pochhammer, type_of
from glfq.partial_iso import AlgElem, piso_type, rev, trivial_extensions_fixed_right


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
    return CentralVector(ctx, n, out)


def pi_scalar(mu, n):
    """The scalar lambda with Pi_n(Ahat_mu) = lambda * C_{mu^n} / card(C_mu):
    q^{n(2k1-k)} q^{2k(k-k1)} (q^{-1})_k (q^{-1})_{n-k+k11}
    / ((q^{-1})_{k11} (q^{-1})_{n-k})."""
    k, k1, k11 = mu.size, mu.k1, mu.k11
    q = mu.ctx.q
    qi = Fraction(1, q)
    return (
        Fraction(q) ** (n * (2 * k1 - k))
        * Fraction(q) ** (2 * k * (k - k1))
        * pochhammer(qi, k)
        * pochhammer(qi, n - k + k11)
        / (pochhammer(qi, k11) * pochhammer(qi, n - k))
    )


def pi_expansion(ctx, hat_coeffs, n):
    """Pi_n applied to sum S_nu Ahat_nu by the pi_scalar display: a rational
    CentralVector."""
    out = {}
    for nu, c in hat_coeffs.items():
        key = complete(nu, n)
        out[key] = out.get(key, 0) + c * pi_scalar(nu, n) / class_size(nu, nu.size)
    return CentralVector(ctx, n, out)


def _fwd(ctx, x, v):
    """Image under g1 of an ambient vector v of V, as an ambient vector."""
    return linalg.row_combine(ctx, linalg.mat_vec(ctx, x.g1, x.V.coords(v)), x.W.basis, x.n)


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


def extensions_fixed_left(ctx, x, V_plus, strict=True):
    """Extensions of x with left space V_plus and the right space free: the
    right-fixed extensions of rev(x), reversed."""
    return [rev(y) for y in trivial_extensions_fixed_right(ctx, rev(x), V_plus, strict=strict)]


def op_L_by_left_extensions(ctx, X, x):
    """L^X as the per-term average over the strict extensions with left
    space t.V + X."""
    return extension_average(x, lambda t: extensions_fixed_left(
        ctx, t, subspaces.subspace_sum(ctx, t.V, X)))


def compatible_R(ctx, X, x):
    """The compatible counterpart of R^X: each term t becomes the mean of
    its compatible extensions with right space t.W + X."""
    return extension_average(x, lambda t: trivial_extensions_fixed_right(
        ctx, t, subspaces.subspace_sum(ctx, t.W, X), strict=False))


def compatible_L(ctx, X, x):
    """The compatible counterpart of L^X: each term t becomes the mean of
    its compatible extensions with left space t.V + X."""
    return extension_average(x, lambda t: extensions_fixed_left(
        ctx, t, subspaces.subspace_sum(ctx, t.V, X), strict=False))
