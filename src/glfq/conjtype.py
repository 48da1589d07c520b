"""Partitions, polypartitions, conjugacy types and class sizes in GL(n, F_q).

A polypartition is a family of integer partitions indexed by monic
irreducible polynomials different from X; it labels a conjugacy class of
GL(n, F_q) through the block-companion (Jordan) matrix J.  This module
computes the type of an invertible matrix, the exact class cardinality,
the diagonal-1 completion, and whole-group censuses used as oracles.
"""

from collections import Counter

from . import fields, linalg, subspaces
from .fields import pdeg, poly_parse, poly_str
from .memo import memo


class Partition:
    """Non-increasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not all(isinstance(x, int) and x > 0 for x in parts):
            raise ValueError(
                "partition parts must be positive integers: %r" % (parts,))
        if not all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(
                "partition parts must be non-increasing: %r" % (parts,))
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    def mult(self, k):
        """m_k: the number of parts equal to k."""
        return sum(1 for x in self.parts if x == k)

    def b(self):
        """b(mu) = sum (j-1) mu_j over 1-indexed parts."""
        return sum(j * x for j, x in enumerate(self.parts))

    def conjugate(self):
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for x in self.parts if x > i) for i in range(self.parts[0]))
        )

    def __eq__(self, other):
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __repr__(self):
        return "(%s)" % ",".join(map(str, self.parts))


class Polypartition:
    """Sorted map {monic irreducible != X  ->  non-empty Partition}.

    Keys are ordered by (degree, ascending coefficient vector); this order is
    the canonical one used for Jordan blocks, printing and equality.
    """

    __slots__ = ("ctx", "entries", "_hash")

    def __init__(self, ctx, entries):
        items = sorted(entries.items() if isinstance(entries, dict) else entries,
                       key=lambda kv: (pdeg(kv[0]), kv[0]))
        for P, mu in items:
            if not fields.is_monic(P) or P == fields.PX:
                raise ValueError("label %r is not a monic polynomial other than X" % (P,))
            if not (isinstance(mu, Partition) and mu.parts):
                raise ValueError("label %r needs a non-empty Partition, got %r" % (P, mu))
        if len({P for P, _ in items}) != len(items):
            raise ValueError("polypartition labels must be distinct")
        self.ctx = ctx
        self.entries = tuple(items)
        self._hash = hash(self.entries)

    @property
    def size(self):
        return sum(pdeg(P) * mu.size for P, mu in self.entries)

    def partition(self, P):
        for Q, mu in self.entries:
            if Q == P:
                return mu
        return Partition(())

    @property
    def unipotent(self):
        """The parts of the (X-1) partition, largest first."""
        return self.partition(fields.linear_poly(self.ctx, 1)).parts

    @property
    def k1(self):
        """Number of parts of the (X-1) partition."""
        return len(self.unipotent)

    def b(self):
        return sum(pdeg(P) * mu.b() for P, mu in self.entries)

    def __eq__(self, other):
        return self.entries == other.entries and self.ctx is other.ctx

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.entries < other.entries

    def __repr__(self):
        return format_polypartition(self)


def format_polypartition(mu):
    inner = ";".join(
        "%s:(%s)" % (poly_str(mu.ctx, P), ",".join(map(str, part.parts)))
        for P, part in mu.entries
    )
    return "{%s}" % inner


def parse_polypartition(ctx, s):
    s = fields.strip_spaces(s)
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError("polypartition must be wrapped in { }: %r" % s)
    body = s[1:-1]
    if not body:
        return empty_polypartition(ctx)
    entries = {}
    for chunk in body.split(";"):
        poly_s, _, part_s = chunk.rpartition(":")
        if not poly_s or not (part_s.startswith("(") and part_s.endswith(")")):
            raise ValueError("bad polypartition entry: %r" % chunk)
        P = poly_parse(ctx, poly_s)
        if not fields.is_monic(P) or P in ((1,), fields.PX) or not fields.is_irreducible(ctx, P):
            raise ValueError("label %r is not a monic irreducible other than X" % poly_s)
        digits = part_s[1:-1].split(",")
        if not all(x.isdecimal() for x in digits):
            raise ValueError("bad partition in polypartition entry %r" % chunk)
        parts = tuple(sorted((int(x) for x in digits), reverse=True))
        if P in entries:
            raise ValueError("duplicate label %r" % poly_s)
        entries[P] = Partition(parts)
    return Polypartition(ctx, entries)


def empty_polypartition(ctx):
    return Polypartition(ctx, {})


def linear_type(ctx, a, parts=(1,)):
    """The type {X-a: parts}, with the one label X - a."""
    return Polypartition(ctx, ((fields.linear_poly(ctx, a), Partition(parts)),))


def with_unipotent(mu, parts):
    """mu with its (X-1) partition replaced by parts, in any order; without
    the (X-1) label when parts is empty.  With Polypartition.unipotent, the
    one reader and writer of the (X-1) block."""
    ctx = mu.ctx
    xm1 = fields.linear_poly(ctx, 1)
    entries = [(P, part) for P, part in mu.entries if P != xm1]
    if parts:
        entries.append((xm1, Partition(sorted(parts, reverse=True))))
    return Polypartition(ctx, entries)


# ---------------------------------------------------------------------------


def companion(ctx, P):
    """Companion matrix of a monic polynomial: 1's on the subdiagonal, the
    negated ascending coefficients in the last column."""
    d = pdeg(P)
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = ctx.neg(P[i])
    return linalg.mat(rows)


def jordan_matrix(mu):
    """Block-diagonal matrix J(mu): for each label P (canonical key order) and
    each part m (decreasing), the companion block of P^m."""
    ctx = mu.ctx
    blocks = []
    for P, part in mu.entries:
        for m in part.parts:
            blocks.append(companion(ctx, fields.ppow(ctx, P, m)))
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                rows[at + i][at + j] = x
        at += len(b)
    return linalg.mat(rows)


def type_of(ctx, g):
    """The polypartition labelling the conjugacy class of an invertible g.

    For each irreducible factor P of the characteristic polynomial, the
    dimensions d_j = dim ker P(g)^j grow by deg(P) times the conjugate
    partition of mu(P); transposing the increments recovers mu(P).  A
    factor of multiplicity 1 has mu(P) = (1).  The increments do not
    increase, so once one is deg(P) the rest are deg(P) up to the
    multiplicity and are not computed.  The type is built from the
    signature ((P, multiplicity, increments), ...) by a cached builder, so
    a census builds each type once, not once per element.
    """
    n, m = linalg.shape(g)
    if n != m:
        raise ValueError("type_of requires a square matrix, got %dx%d" % (n, m))
    if n == 0:
        return empty_polypartition(ctx)
    cp = linalg.charpoly(ctx, g)
    if not cp[0]:  # det g = +-cp[0]
        raise ValueError("type_of requires an invertible matrix")
    signature = []
    for P, mult in fields.factor(ctx, cp):
        incs = []
        if mult > 1:
            d = pdeg(P)
            Pg = linalg.apply_poly(ctx, P, g)
            power = Pg
            dim = 0
            while True:
                inc = n - linalg.rank(ctx, power) - dim
                if inc <= 0:  # the kernels have stopped growing
                    break
                incs.append(inc)
                dim += inc
                if dim >= mult * d:  # kernels have stabilized
                    break
                if inc == d:
                    incs.extend((d,) * (mult - dim // d))
                    break
                power = linalg.mat_mul(ctx, power, Pg)
        signature.append((P, mult, tuple(incs)))
    return _type_of_signature(ctx, tuple(signature))


# measured: at most 63 keys in any perfbench request of seeds 0-2 (census --q 8 --n 2)
@memo(limit=10 ** 4)
def _type_of_signature(ctx, signature):
    """The polypartition of a type_of signature, checking that each kernel
    increment is a multiple of deg(P) and that the partition it gives has
    the multiplicity as its size (cached: a census sees one signature per
    type)."""
    entries = {}
    for P, mult, incs in signature:
        if mult == 1:
            entries[P] = Partition((1,))
            continue
        d = pdeg(P)
        cols = []
        for j, inc in enumerate(incs, 1):
            step, rem = divmod(inc, d)
            if rem:
                raise AssertionError(
                    "the kernel of (%s)(g)^%d grows by %d, not a multiple of %d"
                    % (poly_str(ctx, P), j, inc, d))
            cols.append(step)
        conj = Partition(tuple(cols))  # conjugate partition of mu(P)
        entries[P] = conj.conjugate()
        if entries[P].size != mult:
            raise AssertionError(
                "the kernels of (%s)(g)^j give %r, of size %d, not the multiplicity %d"
                % (poly_str(ctx, P), entries[P], entries[P].size, mult))
    return Polypartition(ctx, entries)


def _centralizer_factors(mu):
    """(e, js) with |C(mu)| = q^e prod_{j in js} (q^j - 1), js a Counter,
    the order of the centralizer of an element of type mu in GL(|mu|, F_q):
    |C(mu)| = q^(|mu| + 2 b(mu)) prod_P prod_k (q^(-deg P))_{m_k}, m_k the
    multiplicity of the part k in the partition of P, and each
    (q^-d)_m = (1 - q^-d) ... (1 - q^-dm) is prod_{i <= m} (q^(di) - 1) / q^(di).
    e >= 0: per label, |lam| + 2 b(lam) = sum of the squared columns of lam
    >= sum_k m_k^2 >= sum_k m_k (m_k + 1) / 2."""
    e = mu.size + 2 * mu.b()
    js = Counter()
    for P, part in mu.entries:
        d = pdeg(P)
        for k in set(part.parts):
            m = part.mult(k)
            e -= d * m * (m + 1) // 2
            js.update(d * i for i in range(1, m + 1))
    return e, js


def _q_product(q, e, js):
    """q^e prod_{j in js} (q^j - 1) for a Counter js, by rounds of pairwise
    products, so that the big factors meet in few multiplications."""
    xs = [q ** j - 1 for j in js.elements()]
    while len(xs) > 1:
        xs = [xs[i] * xs[i + 1] for i in range(0, len(xs) - 1, 2)] + xs[len(xs) & ~1:]
    return q ** e * (xs[0] if xs else 1)


def class_size(mu, n):
    """Exact cardinality of the conjugacy class C_mu inside GL(n, F_q):
    |GL(n)| = q^(n(n-1)/2) prod_{j <= n} (q^j - 1) over the centralizer
    order, the factors q^j - 1 the two share cancelled before either
    product is formed, then one division."""
    if mu.size != n:
        raise ValueError("polypartition has size %d, expected %d" % (mu.size, n))
    q = mu.ctx.q
    e, js = _centralizer_factors(mu)
    gl = Counter(range(1, n + 1))
    e = n * (n - 1) // 2 - e
    num, den = (_q_product(q, max(e, 0), gl - js),
                _q_product(q, max(-e, 0), js - gl))
    out, rem = divmod(num, den)
    if rem:
        raise AssertionError("class size of %s in GL(%d) is %d/%d, not an integer"
                             % (format_polypartition(mu), n, num, den))
    return out


def num_free_families(q, n, k):
    """(q^n - 1)(q^n - q) ... (q^n - q^{k-1}): the free k-families of (F_q)^n."""
    out = 1
    for i in range(k):
        out *= q ** n - q ** i
    return out


def gl_order(q, n):
    return num_free_families(q, n, n)


def complete(mu, n):
    """mu with n - |mu| extra parts 1 added to the (X-1) partition."""
    if mu.size > n:
        raise ValueError("cannot complete size %d to %d" % (mu.size, n))
    if mu.size == n:
        return mu
    return with_unipotent(mu, mu.unipotent + (1,) * (n - mu.size))


def reduce_polypartition(mu):
    """mu with all parts 1 stripped from its (X-1) partition."""
    return with_unipotent(mu, [x for x in mu.unipotent if x > 1])


def partitions_of(n):
    """All partitions of n, deterministic order."""
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(Partition(tuple(acc)))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + [p])

    rec(n, n, [])
    return out


def enumerate_polypartitions(ctx, n):
    """All polypartitions of size exactly n over F_q, canonical order."""
    if n < 0:
        raise ValueError("polypartitions need a size n >= 0, got %d" % n)
    labels = []
    for d in range(1, n + 1):
        labels.extend(P for P in fields.enumerate_irreducibles(ctx, d) if P != fields.PX)
    out = []

    # the next label used is labels[j] for some j >= i, so the recursion is
    # at most n deep however many labels there are
    def rec(i, rest, acc):
        if rest == 0:
            out.append(Polypartition(ctx, dict(acc)))
            return
        for j in range(i, len(labels)):
            P = labels[j]
            d = pdeg(P)
            if d > rest:
                break  # the labels come in increasing degree
            for s in range(d, rest + 1, d):
                for part in partitions_of(s // d):
                    rec(j + 1, rest - s, acc + [(P, part)])

    rec(0, n, [])
    return sorted(out, key=lambda m: m.entries)


# ---------------------------------------------------------------------------
# censuses and class orbits (brute-force oracles)
# ---------------------------------------------------------------------------

@memo
def enumerate_gl(ctx, n):
    """All invertible n x n matrices over F_q: the free n-families of
    (F_q)^n, as rows (cached)."""
    return subspaces.enumerate_completions(ctx, (), n, n)


@memo
def census(ctx, n):
    """Bucket the whole of GL(n, F_q) by conjugacy type.

    Returns {polypartition: count}; cached.  Refused above the type_of cap
    of |GL(n, F_q)| calls; checked against class_size and |GL(n, F_q)|."""
    order = gl_order(ctx.q, n)
    fields.check_work("census", order)
    buckets = {}
    for g in enumerate_gl(ctx, n):
        t = type_of(ctx, g)
        buckets[t] = buckets.get(t, 0) + 1
    for mu, cnt in buckets.items():
        if cnt != class_size(mu, n):
            raise AssertionError("census counts %d of type %s, class_size %d"
                                 % (cnt, format_polypartition(mu), class_size(mu, n)))
    if sum(buckets.values()) != order:
        raise AssertionError("census counts %d elements, |GL(%d, F_%d)| = %d"
                             % (sum(buckets.values()), n, ctx.q, order))
    return buckets


def _conjugation_moves(ctx, n):
    """The maps x -> g x g^{-1} for a generating set of GL(n, F_q), each as
    one row operation and one column operation: row i loses r row j, then
    column j loses s column i.  The transvection I + E_ij is (i, j, -1, 1);
    diag(c, 1, ..., 1) is (0, 0, 1 - c, 1 - c^{-1}).

    The generators are I + E_{i,i+1} and I + E_{i+1,i}, plus diag(c, 1, ...,
    1) for a primitive c when q > 2.  Commutators of adjacent transvections,
    [I + a E_ij, I + b E_jk] = I + ab E_ik, give every I + E_ij; conjugation
    by the dilation multiplies the entry of I + E_0j by c and that of I + E_j0
    by c^{-1}, so products give every I + t E_0j and I + t E_j0 with t in
    F_p[c] = F_q, and commutators with I + E_0j every I + t E_ij.  These
    generate SL(n, F_q), and det = c supplies the other determinants."""
    minus_one = ctx.neg(1)
    ops = [(i, i + 1, minus_one, 1) for i in range(n - 1)]
    ops += [(i + 1, i, minus_one, 1) for i in range(n - 1)]
    if n and ctx.q > 2:
        c = ctx.primitive_element()
        ops.append((0, 0, ctx.sub(1, c), ctx.sub(1, ctx.inv(c))))
    submul = ctx.row_submul

    def move(i, j, r, s):
        def apply(x):
            rows = list(x)
            rows[i] = submul(x[i], r, x[j])
            cols = list(zip(*rows))
            cols[j] = submul(cols[j], s, cols[i])
            return tuple(zip(*cols))
        return apply

    return [move(*op) for op in ops]


@memo
def class_orbit(mu, n):
    """All elements of the conjugacy class C_{mu^n}, by a walk under
    conjugation by the generators of _conjugation_moves starting from the
    Jordan representative (cached)."""
    mu_n = complete(mu, n)
    start = jordan_matrix(mu_n)
    moves = _conjugation_moves(mu.ctx, n)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    out = sorted(seen)
    size = class_size(mu_n, n)
    if len(out) != size:
        raise AssertionError("the orbit of %s has %d elements, not class_size %d"
                             % (format_polypartition(mu_n), len(out), size))
    return out
