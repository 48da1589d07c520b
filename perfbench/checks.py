"""Output checks that do not trust the program under test.

Each check recomputes what it compares against with the benchmark's own
arithmetic (gf.py): class counts and sizes, |GL(n, q)|, Gaussian binomials,
rank laws, the mass identity of class products, the type of a conjugated
Jordan matrix.  check() returns None when the output is right and a short
reason when it is not.
"""

import re
from fractions import Fraction

import gf
from workloads import field


def _type(rows):
    return {tuple(P): tuple(parts) for P, parts in rows}


def _rows(stdout):
    """'type  value' lines as (type text, value text) pairs."""
    out = []
    for line in stdout.splitlines():
        typ, sep, value = line.partition("  ")
        if not sep or not typ.startswith("{"):
            raise ValueError("bad row %r" % line)
        out.append((typ, value))
    return out


def _coefficients(q, stdout, n=None):
    """{type: Fraction} of a class-product style listing; types of size n."""
    G = field(q)
    out = {}
    for typ, value in _rows(stdout):
        mu = G.type_parse(typ)
        key = tuple(sorted(mu.items()))
        if key in out or (n is not None and gf.type_size(mu) != n):
            raise ValueError("repeated or mis-sized type %s" % typ)
        out[key] = Fraction(value)
    return out


def _census(req, stdout, stderr):
    q, n = req["q"], req["n"]
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("total  "):
        return "missing total line"
    total = int(lines[-1].split()[1])
    counts = _coefficients(q, "\n".join(lines[:-1]), n)
    if len(counts) != gf.num_classes(q, n):
        return "%d classes, expected %d" % (len(counts), gf.num_classes(q, n))
    for key, c in counts.items():
        if c != gf.class_size(q, dict(key)):
            return "wrong class size for %s" % field(q).type_str(dict(key))
    if total != gf.gl_order(q, n) or sum(counts.values()) != total:
        return "total is not |GL(%d, %d)|" % (n, q)
    return None


def _mass(q, n, a, b, coeffs):
    """C_a C_b = sum c_nu C_nu implies |C_a| |C_b| = sum c_nu |C_nu|."""
    G = field(q)
    lhs = gf.class_size(q, gf.complete(G, a, n)) * gf.class_size(q, gf.complete(G, b, n))
    rhs = sum(c * gf.class_size(q, dict(key)) for key, c in coeffs.items())
    return lhs == rhs


def _class_product(req, stdout, stderr):
    q, n = req["q"], req["n"]
    coeffs = _coefficients(q, stdout, n)
    if any(c.denominator != 1 or c < 0 for c in coeffs.values()):
        return "structure constant not a natural number"
    if not _mass(q, n, _type(req["a"]), _type(req["b"]), coeffs):
        return "mass identity fails"
    return None


def _generic_product(req, stdout, stderr):
    """The structure polynomials, evaluated at X = q^n, must satisfy the
    mass identity at the two smallest admissible n."""
    q = req["q"]
    a, b = _type(req["a"]), _type(req["b"])
    G = field(q)
    polys = {}
    for typ, value in _rows(stdout):
        mu = G.type_parse(typ)
        polys[tuple(sorted(mu.items()))] = [Fraction(x) for x in value.split()]
    if not polys:
        return "no structure polynomials"
    n0 = gf.type_size(a) + gf.type_size(b)
    for n in (n0, n0 + 1):
        coeffs = {}
        for key, poly in polys.items():
            if gf.type_size(dict(key)) > n:
                continue
            val = sum(c * Fraction(q) ** (n * i) for i, c in enumerate(poly))
            if val:
                full = tuple(sorted(gf.complete(G, dict(key), n).items()))
                coeffs[full] = val
        if not _mass(q, n, a, b, coeffs):
            return "mass identity fails at n=%d" % n
    if req["verify_at"] is not None and (
            "verification at n=%d: PASS" % req["verify_at"]) not in stderr:
        return "no PASS line"
    return None


def _type_query(req, stdout, stderr):
    got = field(req["q"]).type_parse(stdout.strip())
    return None if got == _type(req["mu"]) else "wrong type %s" % stdout.strip()


def _verify(req, stdout, stderr):
    line = stdout.strip()
    head = "suite %s: PASS (" % req["suite"]
    where = "at (n=%d, q=%d))" % (req["n"], req["q"])
    if "\n" in line or not line.startswith(head) or not line.endswith(where):
        return "no PASS line"
    if req["suite"] in ("assoc", "pi", "operators") and not re.search(
            r"[ (]%d random " % req["samples"], line):
        return "wrong sample count"
    return None


def _class_size(req, stdout, stderr):
    expected = gf.class_size(req["q"], _type(req["mu"]))
    return None if int(stdout) == expected else "wrong class size"


def _count_subspaces(req, stdout, stderr):
    expected = gf.gaussian_binomial(req["q"], req["n"], req["k"])
    return None if int(stdout) == expected else "wrong subspace count"


def _rank_law(req, stdout, stderr):
    expected = gf.rank_probability(req["q"], req["d"], req["a"], req["c"])
    return None if Fraction(stdout.strip()) == expected else "wrong rank law"


def degree1_closed_form(q, a, b):
    """The closed form of Ahat_{X-a} * Ahat_{X-b} for units a, b:

      (q-1) Ahat_{X-ab} + 1/q Ahat_{m(a,b)} + (q-1)/q^2 [ sum_{c in I} Ahat_{X^2+cX+ab}
        + 1/2 sum_{d != 0} Ahat_{m(a/d, bd)}
        + sum_{delta^2 = ab} (Ahat_{X-delta:(2)} - 1/2 Ahat_{X-delta:(1,1)})
        + [a = b] (Ahat_{X-a:(2)} - Ahat_{X-a:(1,1)}) ]

    with I = {c : X^2 + cX + ab irreducible} (c is reducible iff
    c = -(r + ab/r) for a unit r) and m(x, y) the type with one part 1 at
    X-x and one at X-y.  Returns {type key: Fraction}."""
    G = field(q)
    out = {}

    def add(entries, c):
        key = tuple(sorted(entries))
        out[key] = out.get(key, 0) + c
        if out[key] == 0:
            del out[key]

    def single(x, parts):
        return [(G.x_minus(x), parts)]

    def merge(x, y):
        return single(x, (1, 1)) if x == y else single(x, (1,)) + single(y, (1,))

    ab = G.mul(a, b)
    w = Fraction(q - 1, q * q)
    add(single(ab, (1,)), Fraction(q - 1))
    add(merge(a, b), Fraction(1, q))
    reducible = {G.neg(G.add(r, G.mul(ab, G.inv(r)))) for r in range(1, q)}
    for c in range(q):
        if c not in reducible:
            add([((ab, c, 1), (1,))], w)
    for d in range(1, q):
        add(merge(G.mul(a, G.inv(d)), G.mul(b, d)), w / 2)
    for delta in range(1, q):
        if G.mul(delta, delta) == ab:
            add(single(delta, (2,)), w)
            add(single(delta, (1, 1)), -w / 2)
    if a == b:
        add(single(a, (2,)), w)
        add(single(a, (1, 1)), -w)
    return out


def _degree1(req, stdout, stderr):
    head, _, body = stdout.partition("\n")
    if not head.startswith("case: ") or len(head) <= len("case: "):
        return "no case line"
    if _coefficients(req["q"], body) != degree1_closed_form(req["q"], req["a"], req["b"]):
        return "coefficients differ from the closed form"
    return None


CHECKS = {
    "census": _census,
    "class_product": _class_product,
    "generic_product": _generic_product,
    "type": _type_query,
    "verify": _verify,
    "class_size": _class_size,
    "count_subspaces": _count_subspaces,
    "rank_law": _rank_law,
    "degree1": _degree1,
}


def check(req, stdout, stderr, golden=None):
    """None if stdout passes the request's check (and equals the golden
    output when one was recorded for this argv), else the reason."""
    if golden is not None and stdout != golden:
        return "stdout differs from the golden output"
    try:
        return CHECKS[req["check"]["kind"]](req["check"], stdout, stderr)
    except (ValueError, KeyError, IndexError, ArithmeticError) as exc:
        return "unparsable output: %s" % exc


def same_coefficients(req, stdout, other_stdout):
    """degree1 --n and class-product of one pair must agree."""
    q = req["check"]["q"]
    try:
        return _coefficients(q, stdout) == _coefficients(q, other_stdout)
    except (ValueError, ArithmeticError):
        return False
