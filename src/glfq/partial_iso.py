"""Partial isomorphisms of (F_q)^n and their averaged-extension algebra.

A partial isomorphism is a pair of isomorphisms (g1: V -> W, g2: W -> V)
between equal-dimension subspaces of (F_q)^n.  Values are canonical: the
matrices are always expressed with respect to the RREF bases of V and W,
so equality and hashing are componentwise.  Composition is written
left-to-right (gh means "apply g, then h"), hence mat(gh) = mat(h) mat(g)
and the composite automorphism of V is mat(g2) mat(g1).

The product of two basis elements averages over compatible extensions to
the common middle space (see trivial_extensions_grouped for the two
extension notions and why the product uses the larger one); the invariant
elements Ahat_mu, one per type orbit, span a commutative subalgebra whose
structure constants in that basis feed the center module.  Coefficients
are exact: an AlgElem holds integer numerators over one common denominator
in lowest terms, products and averages add integers and reduce once per
result, and terms gives the Fraction view.  The matrix products inside the
algebra's products (the composites of product, _basis_product and
PairAlgElem.mul) go through one bounded memo, _mat_mul: their factors lie
in small groups GL(k, F_q).
"""

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction

from . import linalg, subspaces
from .conjtype import (
    class_orbit,
    class_size,
    enumerate_gl,
    gl_order,
    jordan_matrix,
    num_free_families,
    type_of,
)
from .fields import check_work
from .memo import memo
from .ranklaw import dim_sum_law


class PartialIso:
    """(V | g1 <-> g2 | W): g1 maps V to W, g2 maps W back to V.

    g1 and g2 are k x k matrices with respect to the canonical (RREF-row)
    bases of V and W; they act on coordinate columns.
    """

    __slots__ = ("V", "W", "g1", "g2", "_key", "_hash")

    def __init__(self, V, W, g1, g2):
        self.V = V
        self.W = W
        self.g1 = g1
        self.g2 = g2
        # the ambient dimension tells apart the empty partial isomorphisms,
        # whose bases are empty at every n
        self._key = (V.ambient, V.basis, W.basis, g1, g2)
        self._hash = hash(self._key)

    @property
    def n(self):
        return self.V.ambient

    @property
    def dim(self):
        return self.V.dim

    def composite(self, ctx):
        """Matrix of the automorphism g1g2 of V (apply g1, then g2)."""
        return linalg.mat_mul(ctx, self.g2, self.g1)

    def __eq__(self, other):
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return "[%r | %r | %r | %r]" % (self.V.basis, self.g1, self.g2, self.W.basis)


def empty_piso(n):
    z = subspaces.zero_subspace(n)
    return PartialIso(z, z, (), ())


def rev(x):
    """The reversed partial isomorphism (W | g2 <-> g1 | V)."""
    return PartialIso(x.W, x.V, x.g2, x.g1)


def piso_type(ctx, x):
    """Type (polypartition of size dim) of the composed automorphism."""
    return type_of(ctx, x.composite(ctx))


def canonical_piso(ctx, E, F, A, B):
    """Canonical PartialIso from arbitrary bases.

    E and F are row bases of the two spaces (not necessarily RREF), A is the
    matrix of g1 with respect to (E, F) and B the matrix of g2 with respect
    to (F, E), both acting on coordinate columns.  Rewrites everything in
    the RREF bases: with D E and C F in RREF, mat(g1) = (D A^T C^{-1})^T
    and mat(g2) = D^{-T} B C^T.  Neither inverse has to be computed: an
    RREF basis is the identity at its pivot columns, so C^{-1} is F read at
    the pivots of Span(F) and D^{-1} is E read at the pivots of Span(E).
    """
    k = len(E)
    n = len(E[0]) if k else 0
    if k == 0:
        return empty_piso(n)
    RV, pivV, D = linalg.rref(ctx, E, transform=True)
    RW, pivW, C = linalg.rref(ctx, F, transform=True)
    V = subspaces.Subspace(n, RV, pivV)
    W = subspaces.Subspace(n, RW, pivW)
    # canonical basis vector u_i = row i of D E maps to row i of (D A^T) F;
    # its W-coordinates sit in the pivot columns, and transposition turns
    # rows of images into columns of the matrix.
    img1 = linalg.mat_mul(ctx, linalg.mat_mul(ctx, D, linalg.transpose(A)), F)
    g1 = tuple(tuple(img1[i][c] for i in range(k)) for c in pivW)
    img2 = linalg.mat_mul(ctx, linalg.mat_mul(ctx, C, linalg.transpose(B)), E)
    g2 = tuple(tuple(img2[i][c] for i in range(k)) for c in pivV)
    return PartialIso(V, W, g1, g2)


# ---------------------------------------------------------------------------
# trivial extensions
# ---------------------------------------------------------------------------


def count_E(q, n, k_plus, k, k1):
    """Number of strict trivial extensions with the right space fixed
    (dimension k -> k_plus inside (F_q)^n) and the left space free.

    With k1 = 0 this also counts the compatible extensions of the same
    shape (the two notions coincide exactly when the composite has no
    fixed vector; see trivial_extensions_grouped)."""
    if not (0 <= k1 <= k <= k_plus <= n):
        raise ValueError("need 0 <= k1 <= k <= k_plus <= n, got k1=%d, k=%d, "
                         "k_plus=%d, n=%d" % (k1, k, k_plus, n))
    return (q ** ((k - k1) * (k_plus - k)) * num_free_families(q, n, k_plus)
            // num_free_families(q, n, k))


def count_F(q, k_plus, k, k1):
    """Number of strict trivial extensions with both spaces fixed (k1 = 0
    again gives the compatible-extension count)."""
    if not (0 <= k1 <= k <= k_plus):
        raise ValueError("need 0 <= k1 <= k <= k_plus, got k1=%d, k=%d, k_plus=%d"
                         % (k1, k, k_plus))
    return count_E(q, k_plus, k_plus, k, k1)


def trivial_extensions_fixed_right(ctx, x, W_plus):
    """The strict trivial extensions of x with right space W_plus and the
    left space free, over which the restriction operators average.  Those
    with both spaces fixed are the slice with a given left space V_plus.

    A new list each call: the groups of trivial_extensions_grouped, in
    their order, flattened.
    """
    return [PartialIso(V_plus, W_plus, g1, g2)
            for V_plus, g1, g2s in trivial_extensions_grouped(ctx, x, W_plus, True)
            for g2 in g2s]


# measured: at most 725 keys in any perfbench request of seeds 0-2 (verify --suite operators)
@memo(limit=1024)
def trivial_extensions_grouped(ctx, x, W_plus, strict):
    """The extensions of x with right space W_plus (left space free)
    grouped by completion: one (V_plus, g1, g2s) per completion E+ of the
    g1-preimage basis E of V, given by e_i = g1^{-1}(f_i).  Cached; every
    argument is positional.

    Each extension has mat(g1+) = identity and mat(g2+) = [[G, P], [0, I]]
    in the bases E+ and F+, with G the matrix of g1g2 in basis E and F+ the
    fixed completion extend_basis(W, W_plus); g1 is mat(g1+) in canonical
    coordinates, which does not depend on P, and the tuple g2s holds
    mat(g2+) for each P.

    strict=True keeps only P with columns in the column space of G - I.
    These are the strict trivial extensions: the composite type gains only
    parts 1 on the (X-1)-partition, the extension splits as a direct sum
    g1 (+) psi, g2 (+) psi^{-1}, and the count is E_q(n, k+, k, k1).

    strict=False allows arbitrary P.  These are the compatible extensions:
    exactly those whose induced quotient maps V+/V <-> W+/W are mutually
    inverse, with count E_q(n, k+, k, 0).  The two notions coincide iff
    G - I is invertible (k1 = 0); otherwise the compatible set is strictly
    larger (e.g. extending the identity of a line to the plane admits
    unipotent composites, which are compatible but not strict).

    The restriction operators op_R and op_L average over strict
    extensions.  The algebra product averages over compatible extensions:
    unlike the strict set, they are stable under composition of
    extensions, and the resulting product is associative, whereas
    averaging over strict extensions is not associative once q > 2
    (colinear counterexamples exist in dimension 2).
    """
    n, k = x.n, x.dim
    if not W_plus.contains(ctx, x.W):
        raise ValueError("W_plus must contain the right space")
    if W_plus.dim == k:
        return ((x.V, x.g1, (x.g2,)),)
    E = (linalg.mat_mul(ctx, linalg.transpose(linalg.inverse(ctx, x.g1)), x.V.basis)
         if k else ())
    completions = subspaces.enumerate_completions(ctx, E, W_plus.dim, n)
    return tuple(_extension_groups(ctx, x, W_plus, strict, completions))


def _extension_groups(ctx, x, W_plus, strict, completions):
    """The group (V_plus, g1, g2s) of trivial_extensions_grouped for each
    of the given completions E+ of E, lazily.

    The extensions are built directly in canonical coordinates, in the
    order canonical_piso(E+, F+, I, [[G, P], [0, I]]) would give them.
    With C F+ and D E+ in RREF, C^{-1} is F+ read at the pivots of W+ and
    D^{-1} is E+ read at the pivots of V+ = Span(E+) (the rows' canonical
    coordinates), so C comes from one inversion per call, D from the row
    reduction that gives V+, once per completion, and then
    mat(g1+) = (D C^{-1})^T and mat(g2+) = D^{-T} [[G, P], [0, I]] C^T.
    """
    n, k = x.n, x.dim
    k_plus = W_plus.dim
    F_plus = subspaces.extend_basis(ctx, x.W, W_plus)
    if k:
        G = linalg.mat_mul(ctx, x.g1, x.g2)
        if strict:
            GmI = linalg.mat_sub(ctx, G, linalg.identity(k))
            cols = subspaces.from_rows(ctx, linalg.transpose(GmI), k).vectors(ctx)
        else:
            cols = subspaces.full_subspace(k).vectors(ctx)
    else:
        G, cols = (), [()]
    mat_mul, transpose = linalg.mat_mul, linalg.transpose
    C_inv = tuple(W_plus.coords(f) for f in F_plus)
    Ct = transpose(linalg.inverse(ctx, C_inv))
    blocks = [linalg.block(G, choice)
              for choice in itertools.product(cols, repeat=k_plus - k)]
    for E_plus in completions:
        RV, pivV, D = linalg.rref(ctx, E_plus, transform=True)
        V_plus = subspaces.Subspace(n, RV, pivV)
        g1 = transpose(mat_mul(ctx, D, C_inv))
        D_inv_t = transpose(tuple(V_plus.coords(e) for e in E_plus))
        yield V_plus, g1, tuple(mat_mul(ctx, mat_mul(ctx, D_inv_t, block), Ct)
                                for block in blocks)


# ---------------------------------------------------------------------------
# the algebra A(n, F_q)
# ---------------------------------------------------------------------------


class AlgElem:
    """Sparse rational linear combination of partial isomorphisms; the
    one sparse rational vector type of the library.

    Held as integer numerators nums {key: int} over one positive common
    denominator den, in lowest terms: no numerator is 0 and den and the
    numerators have no common factor, so equal vectors have equal fields.
    terms is the {key: Fraction} view."""

    __slots__ = ("n", "den", "nums")

    def __init__(self, n, terms=None):
        # over the lcm of the reduced denominators the numerators are
        # already in lowest terms
        fracs = [(t, Fraction(c)) for t, c in terms.items() if c] if terms else ()
        self.n = n
        self.den = den = math.lcm(*(c.denominator for _, c in fracs))
        self.nums = {t: c.numerator * (den // c.denominator) for t, c in fracs}

    @classmethod
    def _reduced(cls, n, den, nums):
        """The cls holding nums / den (den > 0, nums {key: int}): zeros
        dropped, then one gcd with den brings it to lowest terms."""
        if 0 in nums.values():
            nums = {t: v for t, v in nums.items() if v}
        g = math.gcd(den, *nums.values())
        out = object.__new__(cls)
        out.n = n
        out.den = den // g
        out.nums = nums if g == 1 else {t: v // g for t, v in nums.items()}
        return out

    @property
    def terms(self):
        den = self.den
        return {t: Fraction(v, den) for t, v in self.nums.items()}

    def __eq__(self, other):
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda tc: tc[0])
        return " + ".join("%s*%r" % (c, t) for t, c in items) or "0"


def basis_elem(x):
    return AlgElem._reduced(x.n, 1, {x: 1})


# measured: at most 7,311 keys in any perfbench request of seeds 0-2, 7,311 of
# 25,648 calls distinct in verify --suite assoc at (n, q) = (3, 2); at (2, 2)
# its 25,528 calls, two per composable pair, find 38 keys
@memo(limit=16384)
def _mat_mul(ctx, a, b):
    """linalg.mat_mul, cached for the products of the algebra, whose factors
    lie in the small groups GL(k, F_q) and repeat."""
    return linalg.mat_mul(ctx, a, b)


# Measured traffic of the benchmark's verify requests at seeds 0-2, with the
# composable pairs built by product outside this memo: at most 774 keys, those
# of verify --suite assoc at (n, q) = (2, 2), 774 distinct over 3,956 calls;
# at (3, 2) and (2, 3) all 366 and 286 calls are distinct.  1,024 entries
# keep every repeat.
@memo(limit=1024)
def _basis_product(ctx, a, b):
    """Product of two basis elements as (total, {piso: count}): the product
    is sum count / total * piso, and the counts sum to total.

    Averages over compatible (not strict) extensions to the middle space;
    this is what makes the product associative.  Each composite is counted
    as an int; total = |right| |left| is the number of pairs.  When
    a.W == b.V the middle space is a.W itself, each factor is its own only
    extension, and the product is the single composite; product builds
    those pairs itself, before this memo, which therefore holds only
    products that enumerate extensions.

    Both sides come as completion groups (trivial_extensions_grouped), and
    a composite's two factors each depend on one side's extension and the
    other side's completion only, so each is computed once per such pair,
    not once per pair of extensions.  Pairs run in the order of the flat
    lists, right extension outermost."""
    mat_mul = _mat_mul
    M = subspaces.subspace_sum(ctx, a.W, b.V)
    right = trivial_extensions_grouped(ctx, a, M, False)
    # an extension (V_b | h1 <-> h2 | M) of rev(b) is the left extension
    # (M | h2 <-> h1 | V_b) of b: its g1 runs over the group, its g2 is shared
    left = trivial_extensions_grouped(ctx, rev(b), M, False)
    counts = {}
    for Va, a1, a2s in right:
        firsts = [[mat_mul(ctx, h2, a1) for h2 in h2s] for _, _, h2s in left]
        for a2 in a2s:
            for (Vb, h1, _), g1s in zip(left, firsts):
                g2 = mat_mul(ctx, a2, h1)
                for g1 in g1s:
                    key = (Va, Vb, g1, g2)
                    counts[key] = counts.get(key, 0) + 1
    total = sum(len(g2s) for _, _, g2s in right) * sum(len(h2s) for _, _, h2s in left)
    return total, {PartialIso(*key): c for key, c in counts.items()}


_PRODUCT_CACHE = _basis_product.cache


def _weighted_sum(cls, n, den, parts):
    """The cls of sum num / (den total) * counts over the parts
    (num, total, counts), counts a dict {key: int}: integer numerators over
    den times the lcm of the totals, reduced once."""
    lcm = math.lcm(*(total for _, total, _ in parts))
    acc = {}
    for num, total, counts in parts:
        f = num * (lcm // total)
        for key, c in counts.items():
            acc[key] = acc.get(key, 0) + f * c
    return cls._reduced(n, den * lcm, acc)


def product(ctx, x, y):
    """The associative averaged-extension product on A(n, F_q)."""
    if x.n != y.n:
        raise ValueError("ambient dimension mismatch")
    mat_mul = _mat_mul
    parts = []
    for a, ca in x.nums.items():
        for b, cb in y.nums.items():
            if a.W == b.V:
                # composable: the product is the one composite (_basis_product)
                t = PartialIso(a.V, b.W, mat_mul(ctx, b.g1, a.g1), mat_mul(ctx, a.g2, b.g2))
                parts.append((ca * cb, 1, {t: 1}))
            else:
                parts.append((ca * cb, *_basis_product(ctx, a, b)))
    return _weighted_sum(AlgElem, x.n, x.den * y.den, parts)


def op_R(ctx, X, x):
    """Restriction operator R^X: each term t of x becomes the uniform
    average of its strict extensions with right space t.W + X.  The operator
    calculus (nested restriction, composition, L/R commutation) holds for
    it and fails for the compatible average, the product x * id_{W+}
    (smallest counterexample: the empty partial isomorphism through a line
    at n = 2, q = 2)."""
    parts = []
    for t, c in x.nums.items():
        exts = trivial_extensions_fixed_right(
            ctx, t, subspaces.subspace_sum(ctx, t.W, X))
        parts.append((c, len(exts), Counter(exts)))
    return _weighted_sum(AlgElem, x.n, x.den, parts)


def op_L(ctx, X, x):
    """Restriction operator L^X = rev . R^X . rev, rev applied term by term:
    each left space t.V grows to t.V + X."""
    def flip(y):
        return AlgElem._reduced(y.n, y.den, {rev(t): c for t, c in y.nums.items()})
    return flip(op_R(ctx, X, flip(x)))


# ---------------------------------------------------------------------------
# projection to the pair group algebra
# ---------------------------------------------------------------------------


class PairAlgElem(AlgElem):
    """Sparse element of C[GL(n) x GL(n)^opp], keyed by matrix pairs."""

    __slots__ = ()

    def mul(self, ctx, other):
        """(g1, g2)(h1, h2) = (g1h1, h2g2), matrices composing in reverse."""
        out = {}
        for (a1, a2), ca in self.nums.items():
            for (b1, b2), cb in other.nums.items():
                key = (_mat_mul(ctx, b1, a1), _mat_mul(ctx, a2, b2))
                out[key] = out.get(key, 0) + ca * cb
        return PairAlgElem._reduced(self.n, self.den * other.den, out)


def pi_n(ctx, x):
    """Full-extension projection A(n) -> C[GL(n) x GL(n)^opp] of the lift
    x * id_{(F_q)^n}: each term t becomes the average of (g1, g2) over its
    compatible extensions to (F_q)^n.  The identity factor composes with
    every such extension to itself, so no product is formed."""
    full = subspaces.full_subspace(x.n)
    parts = []
    for t, c in x.nums.items():
        counts = {}
        for _, g1, g2s in trivial_extensions_grouped(ctx, t, full, False):
            for g2 in g2s:
                counts[g1, g2] = counts.get((g1, g2), 0) + 1
        parts.append((c, sum(counts.values()), counts))
    return _weighted_sum(PairAlgElem, x.n, x.den, parts)


# ---------------------------------------------------------------------------
# type orbits and invariant elements
# ---------------------------------------------------------------------------


def card_iso(q, n):
    """Cardinality of I(n, F_q): sum over degrees of squared family counts."""
    return sum(num_free_families(q, n, k) ** 2 for k in range(n + 1))


class Basis(Sequence):
    """I(n, F_q) as an indexed sequence, without building it: the empty
    partial isomorphism, then for k = 1..n every (V, W, g1, g2) with V, W
    in enumerate_subspaces(ctx, n, k) and g1, g2 in enumerate_gl(ctx, k),
    g2 varying fastest.  An index is decoded in mixed radix over those
    lists, which are all that is stored."""

    __slots__ = ("n", "_blocks", "_len")

    def __init__(self, ctx, n):
        self.n = n
        self._blocks = [(subspaces.enumerate_subspaces(ctx, n, k), enumerate_gl(ctx, k))
                        for k in range(1, n + 1)]
        self._len = 1 + sum(len(subs) ** 2 * len(gl) ** 2 for subs, gl in self._blocks)

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        i = range(self._len)[i]  # IndexError past either end
        if i == 0:
            return empty_piso(self.n)
        i -= 1
        for subs, gl in self._blocks:
            size = len(subs) ** 2 * len(gl) ** 2
            if i < size:
                i, i2 = divmod(i, len(gl))
                i, i1 = divmod(i, len(gl))
                iV, iW = divmod(i, len(subs))
                return PartialIso(subs[iV], subs[iW], gl[i1], gl[i2])
            i -= size


@memo
def all_pisos(ctx, n):
    """The full basis I(n, F_q), deterministic order, as a Basis; cached.
    Refused above the cap, before the subspace and GL(k) lists it indexes."""
    size = card_iso(ctx.q, n)
    check_work("basis", size, "partial isomorphisms")
    out = Basis(ctx, n)
    if len(out) != size:
        raise AssertionError("all_pisos indexes %d partial isomorphisms, |I(%d, F_%d)| = %d"
                             % (len(out), n, ctx.q, size))
    return out


def orbit_size(mu, n):
    """Cardinality of the type orbit of mu inside I(n, F_q)."""
    k = mu.size
    q = mu.ctx.q
    return (
        subspaces.num_subspaces(q, n, k) ** 2
        * gl_order(q, k)
        * class_size(mu, k)
    ) if k else 1


@memo
def orbit_of_type(mu, n):
    """All partial isomorphisms of type mu in (F_q)^n (the GL x GL orbit)."""
    k = mu.size
    if k > n:
        raise ValueError("type size exceeds ambient dimension")
    ctx = mu.ctx
    if k == 0:
        out = [empty_piso(n)]
    else:
        subs = subspaces.enumerate_subspaces(ctx, n, k)
        cls = class_orbit(mu, k)
        out = []
        for g1 in enumerate_gl(ctx, k):
            g1inv = linalg.inverse(ctx, g1)
            # g2 = z g1^{-1} makes the composite g2 g1 equal to z
            g2s = [linalg.mat_mul(ctx, z, g1inv) for z in cls]
            for V in subs:
                for W in subs:
                    for g2 in g2s:
                        out.append(PartialIso(V, W, g1, g2))
    if len(out) != orbit_size(mu, n):
        raise AssertionError("orbit of type %r in dimension %d has %d elements, "
                             "orbit_size says %d"
                             % (mu, n, len(out), orbit_size(mu, n)))
    return out


def invariant_elem(ctx, mu, n):
    """The invariant class Ahat_mu: the orbit sum of type mu divided by the
    square root of its cardinality (= the free-family count)."""
    orbit = orbit_of_type(mu, n)
    return AlgElem._reduced(
        n, len(orbit), dict.fromkeys(orbit, num_free_families(ctx.q, n, mu.size)))


def type_census(ctx, x):
    """Expand an invariant element in the hat basis: returns {type: c} with
    x = sum c_mu Ahat_mu.  Raises AssertionError unless the coefficient is
    constant on each type orbit and whole orbits are present."""
    buckets = {}
    for t, c in x.nums.items():
        buckets.setdefault(piso_type(ctx, t), []).append(c)
    out = {}
    for mu, coeffs in buckets.items():
        if len(set(coeffs)) != 1:
            raise AssertionError("coefficient not constant on orbit %r" % mu)
        if len(coeffs) != orbit_size(mu, x.n):
            raise AssertionError("incomplete orbit %r" % mu)
        out[mu] = Fraction(sum(coeffs), x.den * num_free_families(ctx.q, x.n, mu.size))
    return out


def _invariant_product_orbits(ctx, lam, mu, n):
    """Brute-force definition of invariant_product: the double sum over the
    two type orbits, with every output coefficient checked constant on its
    orbit.  Test oracle only; its cost grows like the product of the two
    orbit sizes, so it bypasses the product memo."""
    O1 = orbit_of_type(lam, n)
    O2 = orbit_of_type(mu, n)
    q = ctx.q
    w = Fraction(num_free_families(q, n, lam.size) * num_free_families(q, n, mu.size),
                 len(O1) * len(O2))
    acc = {}
    for a in O1:
        for b in O2:
            total, counts = _basis_product.__wrapped__(ctx, a, b)
            for t, c in counts.items():
                acc[t] = acc.get(t, 0) + Fraction(c, total)
    elem = AlgElem(n, {t: w * c for t, c in acc.items()})
    return type_census(ctx, elem)


def _invariant_product_classes(ctx, lam, mu, n):
    """Matrix form of the same expansion: condition on the middle dimension
    m = dim(V + W) and average the type of B A over the middle-space
    composites A and B of the compatible extensions of the two factors.

    A runs over the automorphisms of the middle space that restrict to type
    lam on V = Span(e_1..e_k) and act as the identity on the quotient by V:
    the blocks [[J, P], [0, I]] with J the Jordan representative of lam (the
    restriction may be frozen to it since everything else is averaged) and
    P free.  B runs over the same set for an l-dimensional W with
    V + W = middle space and every u of type mu in place of J.  The law of
    m is the dimension-of-sum law.

    Orbit lemma: conjugation by the g in GL(m) fixing V pointwise maps the
    A onto themselves and the B for W onto the B for gW, and keeps the type
    of B A, so the counts depend on W only through its orbit.  The orbits
    are indexed by U = V cap W in Gr(d, V), d = k + l - m, and have the
    same size q^((k-d)(m-k)), which cancels in the average: W runs over
    U + Span(e_{k+1}..e_m) only.

    Change of basis: with T the matrix whose columns are the fixed
    completion extend_basis(W, (F_q)^m), canonical basis of W first, the B
    for W are T B' T^-1 with B' = [[u, Q], [0, I]] running over one list
    shared by every U, and type(B A) = type(B' T^-1 A T); each A is
    conjugated once per U.  Cross-checked exactly against the double orbit
    sum and against the sum over every W in the test suite.

    The averages expand the product of the orbit averages Ahat_nu / nf(|nu|),
    nf(j) = num_free_families(q, n, j); one rescaling per output type at the
    end, by nf(k) nf(l) / nf(|nu|), turns them into Ahat-basis constants."""
    k, l = lam.size, mu.size
    q = ctx.q
    mat_mul = linalg.mat_mul

    def blocks(G, size):
        # every [[G, P], [0, I]] of the given size; the q^k columns P draws
        # from are not listed when P has none
        cols = subspaces.full_subspace(len(G)).vectors(ctx) if size > len(G) else ()
        return [linalg.block(G, P) for P in itertools.product(cols, repeat=size - len(G))]

    out = {}
    for m in range(max(k, l), min(n, k + l) + 1):
        pm = dim_sum_law(n, q, 0, k, l, m)
        if pm == 0:
            continue
        A_list = blocks(jordan_matrix(lam), m)
        B_list = [B for u in class_orbit(mu, l) for B in blocks(u, m)]
        ident, full = linalg.identity(m), subspaces.full_subspace(m)
        counts = {}
        total = 0
        for U in subspaces.enumerate_subspaces(ctx, k, k + l - m):
            W = subspaces.from_rows(
                ctx, tuple(row + (0,) * (m - k) for row in U.basis) + ident[k:], m)
            T = linalg.transpose(subspaces.extend_basis(ctx, W, full))
            T_inv = linalg.inverse(ctx, T)
            for A in A_list:
                A = mat_mul(ctx, mat_mul(ctx, T_inv, A), T)
                for B in B_list:
                    t = type_of(ctx, mat_mul(ctx, B, A))
                    counts[t] = counts.get(t, 0) + 1
                    total += 1
        for t, c in counts.items():
            out[t] = out.get(t, Fraction(0)) + pm * Fraction(c, total)
    nf = num_free_families(q, n, k) * num_free_families(q, n, l)
    return {t: c * Fraction(nf, num_free_families(q, n, t.size))
            for t, c in out.items() if c}


def invariant_product(lam, mu, n):
    """Structure constants of Ahat_lam * Ahat_mu in the hat basis at
    ambient dimension n.

    Conditions on the middle dimension and reduces to completed
    conjugacy-class products (_invariant_product_classes); the double orbit
    sum _invariant_product_orbits is the brute-force definition, kept as the
    test suite's oracle."""
    if lam.size > n or mu.size > n:
        raise ValueError("type size exceeds ambient dimension")
    return _invariant_product_classes(lam.ctx, lam, mu, n)


def invariant_product_work(lam, mu, n):
    """The exact number of type_of calls invariant_product(lam, mu, n)
    makes, in closed form and without enumerating: for each middle
    dimension m of positive probability, |A_list| |B_list| #U with
    |A_list| = q^(k(m-k)), |B_list| = class_size(mu, l) q^(l(m-l)) and
    #U = [k choose k+l-m]_q."""
    k, l = lam.size, mu.size
    q = lam.ctx.q
    work = 0
    for m in range(max(k, l), min(n, k + l) + 1):
        if dim_sum_law(n, q, 0, k, l, m):
            work += (q ** (k * (m - k)) * class_size(mu, l) * q ** (l * (m - l))
                     * subspaces.num_subspaces(q, k, k + l - m))
    return work


# ---------------------------------------------------------------------------
# compatibility maps between ambient dimensions
# ---------------------------------------------------------------------------


def _fits_in(sub, n_small):
    return all(all(x == 0 for x in row[n_small:]) for row in sub.basis)


def _truncate(sub, n_small):
    return subspaces.Subspace(
        n_small, tuple(row[:n_small] for row in sub.basis), sub.pivots
    )


def phi(ctx, x, n_small):
    """The compatibility map A(n') -> A(n): keep terms whose spaces sit in
    the first n coordinates, and rescale a term on a k-space by
    nf(q, n', k) / nf(q, n, k) (num_free_families), which sends
    Ahat_{mu, n'} to Ahat_{mu, n}."""
    n_big = x.n
    if n_small > n_big:
        raise ValueError("phi maps to a smaller ambient dimension")
    q = ctx.q
    out = {}
    for t, c in x.terms.items():
        if not (_fits_in(t.V, n_small) and _fits_in(t.W, n_small)):
            continue
        k = t.dim
        scale = Fraction(num_free_families(q, n_big, k), num_free_families(q, n_small, k))
        u = PartialIso(_truncate(t.V, n_small), _truncate(t.W, n_small), t.g1, t.g2)
        out[u] = out.get(u, 0) + c * scale
    return AlgElem(n_small, out)


# ---------------------------------------------------------------------------
# the naive one-automorphism construction (not associative)
# ---------------------------------------------------------------------------


def naive_extensions(ctx, V, g, V_plus):
    """Trivial extensions of the single automorphism (g, V) to V_plus: all
    automorphisms of V_plus restricting to g whose type only adds parts 1 to
    the (X - 1) partition, in enumerate_gl order.  They are the g2+ of the
    strict extensions of the identity map (V | I <-> g | V) through the
    fixed completion E+ = F+, for which g1+ is the identity; uncached, so
    that one-off groups do not evict the memo of
    trivial_extensions_grouped."""
    x = PartialIso(V, V, linalg.identity(V.dim), g)
    F_plus = subspaces.extend_basis(ctx, V, V_plus)
    ((_, _, g2s),) = _extension_groups(ctx, x, V_plus, True, [F_plus])
    return sorted(g2s)


def naive_product(ctx, x, y):
    """Product of naive elements {(V, g): coeff}: means of trivial extensions
    to the sum of the supports, composed on the common space."""
    out = {}
    for (V, g), cg in x.items():
        for (W, h), ch in y.items():
            M = subspaces.subspace_sum(ctx, V, W)
            gs = naive_extensions(ctx, V, g, M)
            hs = naive_extensions(ctx, W, h, M)
            w = cg * ch * Fraction(1, len(gs) * len(hs))
            for gp in gs:
                for hp in hs:
                    key = (M, linalg.mat_mul(ctx, hp, gp))
                    out[key] = out.get(key, 0) + w
    return {k: c for k, c in out.items() if c}


def naive_atoms(q, n):
    """The atoms naive_product_counterexample searches, in closed form: a
    k-space L of (F_q)^n, two automorphisms of L other than the identity and
    a (k+1)-space containing L, for k = 1, 2."""
    return sum(subspaces.num_subspaces(q, n, k) * (gl_order(q, k) - 1) ** 2
               * subspaces.num_subspaces(q, n - k, 1) for k in (1, 2))


def naive_product_counterexample(ctx, n):
    """A triple of naive partial isomorphisms with (G*H)*I != G*(H*I),
    demonstrating that the one-automorphism construction is not associative.

    Searches k-dimensional automorphisms G, H against the identity on a
    containing (k+1)-dimensional space for k = 1, 2.  A counterexample
    needs a k-dimensional space with a non-identity automorphism fitting
    strictly inside (F_q)^n, so the smallest cases are n = 2 for q >= 3
    (nontrivial G, H on a line) and n = 3 for q = 2 (nontrivial G, H on a
    plane); at n = 2, q = 2 the naive product is associative (exhaustive
    scan) and this raises ValueError.  The search succeeds on every input
    it accepts: the atoms include a non-identity G with H = G^{-1} (on a
    line for q >= 3, on a plane for q = 2), for which (G*H)*I is the
    identity of P while G*(H*I) is spread over several unipotent maps
    that are the identity on the line or plane and on the quotient."""
    if n < 2:
        raise ValueError("non-associativity requires n >= 2")
    if ctx.q == 2 and n < 3:
        raise ValueError(
            "the naive product on (F_2)^2 is associative; need n >= 3")
    check_work("counterexample search", naive_atoms(ctx.q, n), "atoms")

    def atoms():
        for k in (1, 2):
            if k + 1 > n:
                continue
            smalls = subspaces.enumerate_subspaces(ctx, n, k)
            bigs = subspaces.enumerate_subspaces(ctx, n, k + 1)
            for L in smalls:
                for gm in enumerate_gl(ctx, k):
                    if gm == linalg.identity(k):
                        continue
                    for hm in enumerate_gl(ctx, k):
                        if hm == linalg.identity(k):
                            continue
                        for P in bigs:
                            if P.contains(ctx, L):
                                yield (L, gm), (L, hm), (P, linalg.identity(k + 1))

    for G, H, I in atoms():
        eg, eh, ei = ({key: Fraction(1)} for key in (G, H, I))
        lhs = naive_product(ctx, naive_product(ctx, eg, eh), ei)
        rhs = naive_product(ctx, eg, naive_product(ctx, eh, ei))
        if lhs != rhs:
            return (G, H, I), lhs, rhs
    raise AssertionError("no counterexample found; the naive product bug?")
