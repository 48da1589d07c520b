"""Finite fields F_q (q = p^e) with canonical integer-encoded elements.

Elements of F_q are plain Python ints in [0, q).  For a prime field the
encoding is the residue; for an extension field the int is the base-p
digit vector of the coefficient representation with respect to the
generator t, least significant digit = constant coefficient.  All field
operations go through a FieldCtx.  A prime field computes mod p.  An
extension field writes each nonzero element as a power of its smallest
primitive element g and keeps three tables of O(q) entries, built once:
the powers of g, their logs, and the Zech logs log(1 + g^k); every
operation is then a few table lookups.  Both kinds build a table of square
roots (q entries) on the first call of sqrt only; it also tells squares
from non-squares.  Enumerations (subspaces, GL(n), classes) are only
practical for small q; closed forms serve any q, prime q = 65521 and
q = 2^12 included.

The matrix and polynomial kernels work a row at a time through three row
primitives of the context, bound once when it is built: row_submul (u - c v),
row_scale (c u) and row_dots (u . v for each row v of a list).  A prime
field runs them as integer arithmetic with one reduction mod p per entry;
an extension field runs them as log/Zech table lookups in one local loop.
FieldCtx is the one place that chooses between prime and extension
arithmetic.

Polynomials over F_q are tuples of element encodings in ascending degree
with no trailing zeros (the zero polynomial is the empty tuple).
"""

import itertools
import math
import operator
import re

from .memo import memo

# A request that would make more type_of calls than this, enumerate more
# partial isomorphisms, build a field with more trial divisions or table
# elements, or sieve more candidates for irreducibles, is refused before it
# enumerates anything (several minutes: the oracle completed_product at
# q = 2, n = 8 of {X+1:(2)} by itself, 32,385 elements, takes 0.31 ms an
# element on a 2-vCPU VM, orbit walk included)
MAX_TYPE_OF_CALLS = 10 ** 6


class WorkCapExceeded(ValueError):
    """A request would make more than MAX_TYPE_OF_CALLS type_of calls, or
    enumerate as many partial isomorphisms, search atoms, trial divisions,
    field elements, answer bits or sieve candidates."""


def check_work(what, calls, unit="type_of calls"):
    """Refuse a request that needs more than MAX_TYPE_OF_CALLS calls or
    enumerated elements.  Each enumerating route calls it at its entry on a
    closed-form count of its own work; what names the route (a "product", a
    "census", a "basis", a "counterexample search", a "closed form", a
    "field", a "sieve of irreducibles" or a "label"), and the CLI adds its
    "verify suite" totals."""
    if calls > MAX_TYPE_OF_CALLS:
        raise WorkCapExceeded("this %s needs %d %s, above the cap of %d"
                              % (what, calls, unit, MAX_TYPE_OF_CALLS))


def prime_factors(n):
    """The distinct primes dividing n, ascending, by trial division up to
    the square root of what is left (none for n < 2); refused before the
    first division when n may need more than the cap (sqrt(n) - 1)."""
    check_work("field", math.isqrt(max(n, 0)) - 1, "trial divisions")
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# The first thirteen primes: as Miller-Rabin bases they decide primality
# for every n below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).  The first
# twelve, 2..37, stop at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether n is prime: deterministic Miller-Rabin on the bases 2..41
    below _MR_BOUND (about 3.3 * 10^24), prime_factors at or above it,
    where that is refused for its trial divisions."""
    if n >= _MR_BOUND:
        return prime_factors(n) == [n]
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """Arithmetic context for F_q = F_p[t]/(modulus), q = p^e.

    Two contexts with equal (p, e, modulus) behave identically; make_field
    is memoized so identical parameters give the *same* object.
    """

    def __init__(self, p, e, modulus=None):
        if not is_prime(p):
            raise ValueError("p = %d is not prime" % p)
        if e < 1:
            raise ValueError("e must be >= 1, got %d" % e)
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus  # ascending coeff tuple over F_p, monic, len e+1
        if e == 1:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
        elif modulus is None or len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("F_%d needs a monic modulus of degree %d, got %r"
                             % (self.q, e, modulus))
        self._build_tables()

    # -- encoding helpers ------------------------------------------------

    def digits(self, a):
        """Base-p digit vector (ascending) of the encoding a."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def encode(self, digs):
        a = 0
        for d in reversed(digs):
            a = a * self.p + (d % self.p)
        return a

    def _build_tables(self):
        """For an extension field, the powers of the smallest primitive
        element g (twice over, so a sum of two logs needs no reduction),
        their logs, and the Zech logs zech[k] = log(1 + g^k), None where
        1 + g^k = 0.  A prime field needs no table."""
        p, q = self.p, self.q
        if self.e == 1:
            self._bind_prime_rows()
            return
        # before the tables exist, powers are taken over F_p mod the modulus
        fp = make_field(p)
        g = self._smallest_primitive(
            lambda a, k: self.encode(ppow_mod(fp, pnorm(self.digits(a)), k, self.modulus)))
        powers = self._powers(g)
        log = [None] * q
        for k, x in enumerate(powers):
            log[x] = k
        # 1 + x adds 1 to the constant digit (mod p); log[0] is None
        self._zech = [log[x - x % p + (x + 1) % p] for x in powers]
        self._exp = powers + powers
        self._log = log
        # -1 = g^half: (q - 1)/2 for odd q, 0 in characteristic 2
        self._half = (q - 1) // 2 if p != 2 else 0
        self._bind_extension_rows()

    def _powers(self, g):
        """g^0, ..., g^(q-2) as encodings, one step per power.

        A power is kept as a packed digit vector, digit i in the w-bit slot
        i of one int.  One step multiplies it by g packed alike, reduces by
        the modulus by folding the slots from e up onto slots 0..e-1 times
        -modulus packed alike, brings every slot below p at once and
        encodes by one table lookup per half of the slots.  No slot carries
        into the next: a slot below p leaves the product below
        v = (p-1) sum(digits of g), and each of the at most deg g folds
        multiplies that bound by at most 1 + (p-1) deg g.  A slot s <= v is
        brought below p as s - p floor(s m / 2^k) with m = ceil(2^k / p),
        exact for s < 2^(k - bitlength(p)) (Granlund-Montgomery)."""
        p, e, q = self.p, self.e, self.q
        dg = self.digits(g)
        top = max(j for j, y in enumerate(dg) if y)  # deg g >= 1: g is not in F_p
        v = (p - 1) * sum(dg) * (1 + (p - 1) * top) ** top
        k = v.bit_length() + p.bit_length()
        m = -(-(1 << k) // p)
        w = (v * m).bit_length()

        def pack(digs):
            return sum(d << (w * i) for i, d in enumerate(digs))

        G, red = pack(dg), pack([(-c) % p for c in self.modulus[:e]])
        we = w * e
        low = (1 << we) - 1
        qmask = pack([(1 << (w - k)) - 1] * e)
        h = (e + 1) // 2
        hmask = (1 << (w * h)) - 1
        lo = {pack(self.digits(a)[:h]): a for a in range(p ** h)}
        hi = {pack(self.digits(a)[:e - h]): a * p ** h for a in range(p ** (e - h))}
        x, out = 1, []
        for _ in range(q - 1):
            out.append(lo[x & hmask] + hi[x >> (w * h)])
            x *= G
            while x > low:
                x = (x & low) + (x >> we) * red
            x -= p * ((x * m >> k) & qmask)
        return out

    # -- row primitives ----------------------------------------------------
    # row_submul(u, c, v) -> list u - c v; row_scale(c, u) -> list c u;
    # row_dots(u, vs) -> tuple of the dot products u . v, v in vs (zip
    # semantics: a longer argument is cut to the shorter).

    def _bind_prime_rows(self):
        p, mul = self.p, operator.mul

        def row_submul(u, c, v):
            return [(x - c * y) % p for x, y in zip(u, v)]

        def row_scale(c, u):
            return [c * x % p for x in u]

        def row_dots(u, vs):
            return tuple([sum(map(mul, u, v)) % p for v in vs])

        self.row_submul, self.row_scale, self.row_dots = row_submul, row_scale, row_dots

    def _bind_extension_rows(self):
        # g^a + g^b = g^(a + zech[b - a]); zz repeats zech so that every
        # b - a in (-(q - 1), 2(q - 1)) indexes it directly
        exp, log, q1, half = self._exp, self._log, self.q - 1, self._half
        zz = self._zech + self._zech

        def row_scale(c, u):
            if not c:
                return [0] * len(u)
            lc = log[c]
            return [exp[lc + log[x]] if x else 0 for x in u]

        def row_submul(u, c, v):
            if not c:
                return list(u)
            lnc = (log[c] + half) % q1  # log(-c)
            out = []
            for x, y in zip(u, v):
                if y:
                    lw = lnc + log[y]
                    if x:
                        lx = log[x]
                        z = zz[lw - lx]
                        x = 0 if z is None else exp[lx + z]
                    else:
                        x = exp[lw]
                out.append(x)
            return out

        def row_dots(u, vs):
            out = []
            for v in vs:
                s = 0
                for x, y in zip(u, v):
                    if x and y:
                        lw = log[x] + log[y]
                        if s:
                            ls = log[s]
                            z = zz[lw - ls]
                            s = 0 if z is None else exp[ls + z]
                        else:
                            s = exp[lw]
                out.append(s)
            return tuple(out)

        self.row_submul, self.row_scale, self.row_dots = row_submul, row_scale, row_dots

    def _smallest_primitive(self, power):
        """The smallest encoding of multiplicative order q - 1, given
        power(a, k) = a^k: g qualifies iff g^((q-1)/r) != 1 for every
        prime r dividing q - 1."""
        q1 = self.q - 1
        cofactors = [q1 // r for r in prime_factors(q1)]
        return next(g for g in range(1, self.q)
                    if all(power(g, k) != 1 for k in cofactors))

    def primitive_element(self):
        """The smallest encoding that generates the multiplicative group;
        for an extension field it is the base of the log tables."""
        return self._smallest_primitive(self.pow)

    # -- element arithmetic ----------------------------------------------
    # An extension-field element a != 0 is g^log[a]: mul adds logs, add
    # uses g^i + g^j = g^(i + zech[j - i]), and sub adds the negative.

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        # a negative index wraps mod q - 1, the length of _zech
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return self._exp[self._log[a] + self._half] if a else 0

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        if self.e == 1:
            return pow(a, n, self.p)
        if not a:
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.q - 1)]

    def elements(self):
        return range(self.q)

    def sqrt(self, a):
        """A square root of a, or None when a is not a square; the smaller
        encoding of the two roots."""
        return _square_roots(self)[a]

    def abs_trace(self, a):
        """Absolute trace down to the prime subfield: sum of a^(p^i), i < e.

        Prime-subfield elements are encoded by their residue, so the result
        is an int in [0, p).
        """
        t, x = 0, a
        for _ in range(self.e):
            t = self.add(t, x)
            x = self.pow(x, self.p)
        if t >= self.p:
            raise AssertionError("absolute trace of %s is %s, outside the prime field"
                                 % (self.elem_str(a), self.elem_str(t)))
        return t

    # -- element text syntax ----------------------------------------------

    def elem_str(self, a):
        """The sum of c*t^i over the base-p digits c of a; a prime field
        element is its one digit."""
        return _sum_str(self.digits(a), "t", str)

    def elem_parse(self, s):
        """Parse the element syntax.  A prime field reads an integer mod p;
        an extension field reads a sum of c*t^i (_sum_parse) with integer
        coefficients c in [0, p) and powers i < e, and rejects anything else."""
        if self.e == 1:
            lit = strip_spaces(s)
            if (x := ascii_int(lit, signed=True)) is None:
                raise ValueError("bad field element %r: %r is not an integer" % (s, lit))
            return x % self.p
        digs = [0] * self.e
        for sign, lit, i in _sum_parse(s, "t"):
            if (c := ascii_int(lit)) is None:
                raise ValueError("bad field element %r: %r is not an integer" % (s, lit))
            if i >= self.e:
                raise ValueError("generator power out of range: %r" % s)
            if c >= self.p:
                raise ValueError("coefficient %d out of range [0, %d) in %r" % (c, self.p, s))
            digs[i] += sign * c
        return self.encode(digs)

    def __repr__(self):
        return "F_%d" % self.q


def make_field(p, e=1):
    """The field F_{p^e}.

    For e > 1 the defining modulus is the lexicographically smallest monic
    irreducible of degree e over F_p, comparing coefficient vectors from
    the constant term up.  Deterministic and cached, so element encodings
    are stable and repeated calls return the identical context object.
    Refused above the cap of table elements (p^e; not formed for an e past
    the cap's bit length, where p^e >= 2^e is above the cap)."""
    return _make_field(p, e)


@memo
def _make_field(p, e):
    if e <= 1:
        return FieldCtx(p, e)
    fp = make_field(p, 1)
    top = MAX_TYPE_OF_CALLS.bit_length()
    check_work("field", p ** min(e, top),
               "table elements" if e <= top else "table elements or more")
    for cand in _irreducible_scan(fp, e):
        return FieldCtx(p, e, modulus=cand)
    raise AssertionError("unreachable: irreducibles of every degree exist")


@memo
def _square_roots(ctx):
    """FieldCtx.sqrt's table: a -> the smaller of its square roots, or None."""
    roots = [None] * ctx.q
    for r in range(ctx.q - 1, -1, -1):
        roots[ctx.mul(r, r)] = r
    return roots


# ---------------------------------------------------------------------------
# polynomials over F_q: ascending coefficient tuples, no trailing zeros
# ---------------------------------------------------------------------------

PX = (0, 1)  # the polynomial X


def pnorm(coeffs):
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def pdeg(P):
    return len(P) - 1  # zero polynomial gets degree -1


def is_monic(P):
    return len(P) > 0 and P[-1] == 1


def pmul(ctx, A, B):
    """Schoolbook product: one row operation per nonzero coefficient of A."""
    if not A or not B:
        return ()
    lb = len(B)
    neg_B = ctx.row_scale(ctx.neg(1), B)  # out - a (-B) = out + a B
    out = [0] * (len(A) + lb - 1)
    for i, a in enumerate(A):
        if a:
            out[i:i + lb] = ctx.row_submul(out[i:i + lb], a, neg_B)
    return pnorm(out)


def pdivmod(ctx, A, B):
    if not B:
        raise ZeroDivisionError("polynomial division by zero")
    A = list(A)
    q = [0] * max(0, len(A) - len(B) + 1)
    binv = ctx.inv(B[-1])
    db = len(B) - 1
    for i in range(len(A) - 1, db - 1, -1):
        c = ctx.mul(A[i], binv)
        if c:
            q[i - db] = c
            A[i - db:i + 1] = ctx.row_submul(A[i - db:i + 1], c, B)
    return pnorm(q), pnorm(A)


def ppow(ctx, A, n):
    r = (1,)
    while n:
        if n & 1:
            r = pmul(ctx, r, A)
        A = pmul(ctx, A, A)
        n >>= 1
    return r


def ppow_mod(ctx, A, k, M):
    """A^k modulo M (of degree at least 1), by squaring, each product
    reduced by pdivmod before the next."""
    r = (1,)
    while k:
        if k & 1:
            r = pdivmod(ctx, pmul(ctx, r, A), M)[1]
        A = pdivmod(ctx, pmul(ctx, A, A), M)[1]
        k >>= 1
    return r


@memo
def enumerate_irreducibles(ctx, d):
    """All monic irreducibles of degree d over ctx, sorted lexicographically
    by ascending coefficient vector.  Includes X itself at degree 1.
    Refused before the first of its q^d candidates when they are above the
    cap."""
    if d < 1:
        raise ValueError("degree must be >= 1, got %d" % d)
    check_work("sieve of irreducibles", ctx.q ** d, "candidates")
    return list(_irreducible_scan(ctx, d))


def _irreducible_scan(ctx, d):
    """enumerate_irreducibles(ctx, d) lazily: a scan of the monic candidates."""
    cands = (tail + (1,) for tail in itertools.product(range(ctx.q), repeat=d))
    return (P for P in cands if is_irreducible(ctx, P))


def is_irreducible(ctx, P):
    """Irreducibility of monic P by trial division against the sieved
    irreducibles of each degree up to half its own."""
    if not is_monic(P):
        raise ValueError("irreducibility test requires a monic polynomial")
    d = pdeg(P)
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d > 1 and not P[0]:  # divisible by X
        return False
    return all(pdivmod(ctx, P, Q)[1] for k in range(1, d // 2 + 1)
               for Q in enumerate_irreducibles(ctx, k))


# measured: at most 56 keys in any perfbench request of seeds 0-2 (census --q 8 --n 2)
@memo(limit=10 ** 4)
def factor(ctx, P):
    """Complete factorization of monic P into a tuple of (irreducible,
    multiplicity) pairs, sorted by (degree, coefficient vector) (cached: a
    census of GL(n, F_q) sees at most q^n characteristic polynomials)."""
    if not is_monic(P):
        raise ValueError("factor requires a monic polynomial")
    if pdeg(P) < 1:
        raise ValueError("degree must be >= 1")
    out = []
    rest = P
    d = 1
    while pdeg(rest) >= 1:
        if d > pdeg(rest) // 2:
            out.append((rest, 1))
            break
        for Q in enumerate_irreducibles(ctx, d):
            m = 0
            while True:
                qt, rm = pdivmod(ctx, rest, Q)
                if rm:
                    break
                rest, m = qt, m + 1
            if m:
                out.append((Q, m))
        d += 1
    out.sort(key=lambda t: (pdeg(t[0]), t[0]))
    check = (1,)
    for Q, m in out:
        check = pmul(ctx, check, ppow(ctx, Q, m))
    if check != P:
        raise AssertionError("factor: the factors of %s multiply back to %s"
                             % (poly_str(ctx, P), poly_str(ctx, check)))
    return tuple(out)


# -- polynomial text syntax -------------------------------------------------
# sparse descending in X, '+'-separated; coefficients in the element syntax.


def _sum_str(coeffs, var, coef_str):
    """The sum of c*var^i over the nonzero coefficients c of the ascending
    list coeffs, highest power first, "0" when there is none; coef_str(c)
    is the text of c, put in parentheses before var when it contains '+'."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        cs = coef_str(c)
        if i == 0:
            terms.append(cs)
        else:
            v = var if i == 1 else "%s^%d" % (var, i)
            terms.append(v if c == 1 else ("(%s)*%s" if "+" in cs else "%s*%s") % (cs, v))
    return "+".join(terms) or "0"


def poly_str(ctx, P):
    return _sum_str(P, "X", ctx.elem_str)


def ascii_int(s, signed=False):
    """int(s) for s in [0-9]+, or [+-]?[0-9]+ when signed, else None: int()
    alone also reads the digits of other scripts and '_' between digits."""
    if re.fullmatch("[+-]?[0-9]+" if signed else "[0-9]+", s):
        return int(s)


def strip_spaces(s):
    """s without its surrounding whitespace and its spaces.  A space between
    two letters or digits raises ValueError naming s, since dropping it would
    join two numbers or terms into one."""
    m = re.search(r"\w +\w", s)
    if m:
        raise ValueError("space between %r and %r in %r" % (m.group()[0], m.group()[-1], s))
    return s.strip().replace(" ", "")


def _sum_parse(s, var):
    """The inverse of _sum_str: the (sign, c, i) of each term c*var^i of the
    sum s, sign +1 or -1 and c the coefficient text ("1" when omitted).  The
    terms split at '+' and '-' outside parentheses, and consecutive signs
    combine; a term is c*var^i, cvar^i, var^i, var or c, where c may be
    parenthesised.  Spaces are dropped (strip_spaces) and '**' reads as '^'.
    Anything else raises ValueError naming the term."""
    text = strip_spaces(s).replace("**", "^")
    split, sign, cur, depth = [], 1, "", 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth or ch not in "+-":
            cur += ch
            continue
        if cur:
            split.append((sign, cur))
            sign, cur = 1, ""
        if ch == "-":
            sign = -sign
    if depth:
        raise ValueError("unbalanced parentheses in %r" % s)
    if not cur:
        raise ValueError("missing term at the end of %r" % s)
    split.append((sign, cur))
    out = []
    for sign, term in split:
        c, v, power = term.partition(var)
        i = ascii_int(power[1:]) if power[:1] == "^" else None
        if i is None:
            if power or c == "*":
                raise ValueError("bad term %r in %r" % (term, s))
            i = 1 if v else 0
        if v and c.endswith("*"):
            c = c[:-1]
        if not c:
            c = "1"
        elif c[0] == "(" and c[-1] == ")":
            c = c[1:-1]
        out.append((sign, c, i))
    return out


def poly_parse(ctx, s):
    """Parse the polynomial syntax, a sum of c*X^i (_sum_parse) with each
    coefficient c in the element syntax; repeated powers add up.  A text of
    degree d whose irreducibility test would sieve more than the cap's
    candidates, the q^k monic polynomials of each degree 1 <= k <= d/2,
    raises WorkCapExceeded before its coefficient tuple is built."""
    coeffs = {}
    for sign, c, i in _sum_parse(s, "X"):
        c = ctx.elem_parse(c)
        coeffs[i] = ctx.add(coeffs.get(i, 0), c if sign > 0 else ctx.neg(c))
    d = max((i for i, c in coeffs.items() if c), default=0)
    sieve, k = 0, 0
    while k < d // 2 and sieve <= MAX_TYPE_OF_CALLS:
        k += 1
        sieve += ctx.q ** k
    check_work("label %r of degree %d" % (s, d), sieve,
               "sieve candidates" if k == d // 2 else "sieve candidates or more")
    return pnorm(coeffs.get(i, 0) for i in range(d + 1))


def linear_poly(ctx, a):
    """The monic linear polynomial X - a."""
    return (ctx.neg(a), 1)
