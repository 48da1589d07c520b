"""The benchmark's own finite-field and GL(n, F_q) arithmetic.

Used to build requests and to check outputs without trusting the program
under test.  It follows the CLI's documented conventions: an element of F_q,
q = p^e, is the int whose base-p digits (least significant first) are its
coefficients in the generator t; the defining modulus is the first monic
irreducible of degree e over F_p in lexicographic order of ascending
coefficient vectors; element text is "t^2+2*t+1", polynomial text is
"X^2+(t+1)*X+t" and a type is "{X+1:(2,1);X^2+X+2:(1)}".
"""

import itertools
import re
from fractions import Fraction


def _prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            e, r = 0, q
            while r % p == 0:
                r //= p
                e += 1
            if r != 1:
                raise ValueError("%d is not a prime power" % q)
            return p, e
    raise ValueError("%d is not a prime power" % q)


def _pmod_p(a, m, p):
    """Remainder of a modulo the monic m, both ascending coefficient lists
    over F_p."""
    a = list(a)
    while len(a) >= len(m):
        c = a[-1]
        if c:
            shift = len(a) - len(m)
            for i, x in enumerate(m):
                a[shift + i] = (a[shift + i] - c * x) % p
        a.pop()
    return a


def _irreducible_over_prime(coeffs, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    d = len(coeffs) - 1
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            if not any(_pmod_p(coeffs, tail + (1,), p)):
                return False
    return True


class GF:
    """F_q with elements encoded as ints in [0, q)."""

    def __init__(self, q):
        self.q = q
        self.p, self.e = _prime_power(q)
        self.modulus = None
        if self.e > 1:
            for tail in itertools.product(range(self.p), repeat=self.e):
                if _irreducible_over_prime(tail + (1,), self.p):
                    self.modulus = tail + (1,)
                    break

    def digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.e)]

    def encode(self, digs):
        return sum((d % self.p) * self.p ** i for i, d in enumerate(digs))

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return self.encode([-x for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        return self.encode(_pmod_p([c % self.p for c in prod], self.modulus, self.p))

    def pow(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.q - 2)

    # -- text --------------------------------------------------------------

    def elem_str(self, a):
        if self.e == 1:
            return str(a)
        terms = []
        for i, c in reversed(list(enumerate(self.digits(a)))):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else "t^%d" % i
                terms.append(var if c == 1 else "%d*%s" % (c, var))
        return "+".join(terms) if terms else "0"

    def elem_parse(self, s):
        """Parse a sum of monomials c*t^i (the element text syntax)."""
        digs = [0] * self.e
        for term in s.split("+"):
            m = re.fullmatch(r"(\d+)?\*?(t(?:\^(\d+))?)?", term)
            if not term or m is None or not (m.group(1) or m.group(2)):
                raise ValueError("bad element %r" % s)
            c = int(m.group(1)) if m.group(1) else 1
            i = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
            if i >= self.e or (self.e == 1 and c >= self.p):
                raise ValueError("bad element %r" % s)
            digs[i] += c
        return self.encode(digs)

    def poly_str(self, P):
        """Text of a monic polynomial given as an ascending coefficient tuple."""
        terms = []
        for i in range(len(P) - 1, -1, -1):
            c = P[i]
            if c == 0:
                continue
            cs = self.elem_str(c)
            if i == 0:
                terms.append(cs)
            else:
                var = "X" if i == 1 else "X^%d" % i
                if c == 1:
                    terms.append(var)
                elif "+" in cs:
                    terms.append("(%s)*%s" % (cs, var))
                else:
                    terms.append("%s*%s" % (cs, var))
        return "+".join(terms)

    def poly_parse(self, s):
        coeffs = {}
        for term in re.findall(r"\([^)]*\)\*X(?:\^\d+)?|[^+()]+", s):
            if "X" in term:
                coef, _, power = term.partition("X")
                coef = coef.rstrip("*").strip("()")
                i = int(power[1:]) if power else 1
                c = self.elem_parse(coef) if coef else 1
            else:
                i, c = 0, self.elem_parse(term)
            if i in coeffs and i > 0:
                raise ValueError("repeated power in %r" % s)
            coeffs[i] = self.add(coeffs.get(i, 0), c)
        top = max(coeffs)
        return tuple(coeffs.get(i, 0) for i in range(top + 1))

    def type_str(self, mu):
        """Text of a type {poly: partition}; labels in ascending-tuple order."""
        return "{%s}" % ";".join(
            "%s:(%s)" % (self.poly_str(P), ",".join(map(str, mu[P])))
            for P in sorted(mu))

    def type_parse(self, s):
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError("bad type %r" % s)
        out = {}
        for chunk in filter(None, s[1:-1].split(";")):
            poly, _, part = chunk.rpartition(":")
            P = self.poly_parse(poly)
            if P in out or P[-1] != 1 or not re.fullmatch(r"\(\d+(,\d+)*\)", part):
                raise ValueError("bad type entry %r" % chunk)
            out[P] = tuple(sorted(map(int, part[1:-1].split(",")), reverse=True))
        return out

    def x_minus(self, a):
        return (self.neg(a), 1)

    def has_root(self, P):
        for x in range(self.q):
            v = 0
            for c in reversed(P):
                v = self.add(self.mul(v, x), c)
            if v == 0:
                return True
        return False


# -- GL(n, F_q) counting ----------------------------------------------------

def gl_order(q, n):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def _centralizer_factor(Q, parts):
    """a_lambda(Q) = Q^(sum lambda'_i^2) prod_k phi_{m_k}(1/Q): the order of
    the centralizer of one primary block, Q = q^deg."""
    conj = [sum(1 for x in parts if x > i) for i in range(max(parts, default=0))]
    out = Fraction(Q) ** sum(c * c for c in conj)
    for k in set(parts):
        for i in range(1, parts.count(k) + 1):
            out *= 1 - Fraction(1, Q ** i)
    return out


def type_size(mu):
    return sum((len(P) - 1) * sum(parts) for P, parts in mu.items())


def class_size(q, mu):
    """|C_mu| in GL(n, F_q), n = |mu|, from the centralizer order."""
    cent = Fraction(1)
    for P, parts in mu.items():
        cent *= _centralizer_factor(q ** (len(P) - 1), parts)
    size = Fraction(gl_order(q, type_size(mu))) / cent
    if size.denominator != 1:
        raise ArithmeticError("non-integral class size")
    return int(size)


def num_classes(q, n):
    """Number of conjugacy classes of GL(n, F_q) for n <= 4."""
    return {1: q - 1, 2: q * q - 1, 3: q ** 3 - q, 4: q ** 4 - q}[n]


def complete(gf, mu, n):
    """mu padded with parts 1 at X - 1 up to size n."""
    extra = n - type_size(mu)
    if extra < 0:
        raise ValueError("type larger than n")
    out = dict(mu)
    if extra:
        one = gf.x_minus(1)
        out[one] = tuple(sorted(out.get(one, ()) + (1,) * extra, reverse=True))
    return out


def gaussian_binomial(q, n, k):
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rank_probability(q, d, a, c):
    """P[a uniform vectors of (F_q)^d have rank c], by counting d x a
    matrices of rank c."""
    if not 0 <= c <= min(a, d):
        return Fraction(0)
    count = Fraction(1)
    for i in range(c):
        count *= Fraction((q ** d - q ** i) * (q ** a - q ** i), q ** c - q ** i)
    return count / Fraction(q) ** (d * a)


# -- matrices over GF -------------------------------------------------------

def mat_mul(gf, A, B):
    n, m = len(A), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = 0
            for k in range(len(B)):
                s = gf.add(s, gf.mul(A[i][k], B[k][j]))
            row.append(s)
        out.append(row)
    return out


def mat_inverse(gf, A):
    """Inverse by Gauss-Jordan, or None when A is singular."""
    n = len(A)
    M = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return None
        M[c], M[piv] = M[piv], M[c]
        s = gf.inv(M[c][c])
        M[c] = [gf.mul(s, x) for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [gf.sub(x, gf.mul(f, y)) for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def poly_mul(gf, A, B):
    out = [0] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        for j, y in enumerate(B):
            out[i + j] = gf.add(out[i + j], gf.mul(x, y))
    return tuple(out)


def companion(gf, P):
    d = len(P) - 1
    M = [[0] * d for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = 1
    for i in range(d):
        M[i][d - 1] = gf.neg(P[i])
    return M


def jordan_matrix(gf, mu):
    """Block diagonal of the companion matrices of P^m, one per part m."""
    blocks = []
    for P in sorted(mu):
        for m in mu[P]:
            Pm = (1,)
            for _ in range(m):
                Pm = poly_mul(gf, Pm, P)
            blocks.append(companion(gf, Pm))
    n = sum(len(b) for b in blocks)
    M = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            M[at + i][at:at + len(b)] = row
        at += len(b)
    return M
