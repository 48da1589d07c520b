"""Command-line front end.

Subcommands expose the library to batch users: conjugacy types and class
sizes, the census of GL(n, F_q), products of completed classes, the generic
(polynomial-in-q^n) structure constants, the degree-1 closed forms, the
counting formulas, the rank laws, and a set of self-verification suites.

Exit codes: 0 success, 1 computation error (message on stderr), 2 usage
error (bad flags, malformed matrices, field elements or types, or a request
refused for its cost).  All output is deterministic given the flags and
--seed.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from . import center, degree1, fields, linalg, partial_iso, ranklaw, subspaces
from .conjtype import (
    census,
    class_size,
    complete,
    enumerate_polypartitions,
    format_polypartition,
    linear_type,
    num_free_families,
    parse_polypartition,
    reduce_polypartition,
    type_of,
)
from .fields import make_field


def _field_from_args(args):
    if args.q is not None:
        if args.p is not None or args.e != 1:
            raise SystemExit2("give either --q or --p/--e, not both")
        q = args.q
        # q = p^e has e < bit_length(q); e = 1 comes first, where is_prime
        # refuses a q too large to test before any root is taken
        for e in range(1, max(q, 1).bit_length()):
            p = _iroot(q, e)
            if p ** e == q and fields.is_prime(p):
                return make_field(p, e)
        raise SystemExit2("--q must be a prime power, got %d" % q)
    if args.p is None:
        raise SystemExit2("a field is required: --q or --p [--e]")
    return _parsed(make_field, args.p, args.e)


def _iroot(n, k):
    """The integer k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class SystemExit2(Exception):
    """Usage error detected after argparse (exit code 2)."""


def _parsed(parse, *args):
    """parse(*args), answering malformed input as a usage error."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None


def _at_least(flag, value, low):
    """value, unless it is below low: then a usage error naming the flag."""
    if value < low:
        raise SystemExit2("%s must be at least %d, got %d" % (flag, low, value))
    return value


def _flag(owner, flag, value, default):
    """A flag's value, at least 0, or its default if not given; a flag given
    to an owner that does not read it (default None) is a usage error."""
    if value is None:
        return default
    if default is None:
        raise SystemExit2("%s does not read %s" % (owner, flag))
    return _at_least(flag, value, 0)


def _read_flags(args, owner, table, key):
    """Set each flag that table[key] reads to its value, 0 if not given, and
    return the largest; another flag of the table, given, is a usage error."""
    for flag in dict.fromkeys(f for flags in table.values() for f in flags):
        setattr(args, flag, _flag(owner, "--" + flag, getattr(args, flag),
                                  0 if flag in table[key] else None))
    return max(getattr(args, flag) for flag in table[key])


def _check_answer_bits(q, n):
    """Refuse a closed form over F_q whose largest dimension is n before it
    is computed: its answer is built from integers of order q^(n^2), of at
    most n^2 ceil(log2 q) bits."""
    fields.check_work("closed form", n * n * (q - 1).bit_length(), "answer bits")


def _frac_str(c):
    c = Fraction(c)
    return "%d/%d" % (c.numerator, c.denominator)


def _print_coeffs(coeffs, as_json):
    items = sorted(
        ((format_polypartition(m), c) for m, c in coeffs.items()))
    if as_json:
        print(json.dumps(
            [{"type": t, "coeff": _frac_str(c)} for t, c in items],
            indent=2))
    else:
        for t, c in items:
            print("%s  %s" % (t, c if c.denominator != 1 else c.numerator))


# -- subcommands -------------------------------------------------------------

def cmd_type(args):
    ctx = _field_from_args(args)
    g = _parsed(linalg.mat_parse, ctx, args.mat)
    if any(len(row) != len(g) for row in g):
        raise SystemExit2("matrix must be square")
    try:
        mu = type_of(ctx, g)
    except fields.WorkCapExceeded:
        raise
    except ValueError:
        raise SystemExit2("matrix is singular") from None
    print(format_polypartition(mu))
    return 0


def cmd_class_size(args):
    ctx = _field_from_args(args)
    mu = _parsed(parse_polypartition, ctx, args.type)
    if mu.size != args.n:
        raise SystemExit2("%s has size %d, not --n %d"
                          % (format_polypartition(mu), mu.size, args.n))
    _check_answer_bits(ctx.q, args.n)
    print(class_size(mu, args.n))
    return 0


def cmd_census(args):
    ctx = _field_from_args(args)
    buckets = census(ctx, _at_least("--n", args.n, 0))
    rows = sorted((format_polypartition(mu), cnt) for mu, cnt in buckets.items())
    if args.json:
        print(json.dumps(
            [{"type": t, "size": c} for t, c in rows], indent=2))
    else:
        for t, c in rows:
            print("%s  %d" % (t, c))
        print("total  %d" % sum(buckets.values()))
    return 0


def cmd_class_product(args):
    ctx = _field_from_args(args)
    lam = _parsed(parse_polypartition, ctx, args.a)
    mu = _parsed(parse_polypartition, ctx, args.b)
    n = _at_least("--n", args.n, 0)
    for t in (lam, mu):
        if t.size > n:
            raise SystemExit2("%s has size %d, above --n %d"
                              % (format_polypartition(t), t.size, n))
    out = center.class_product(lam, mu, n)
    _print_coeffs(out.terms, args.json)
    return 0


def cmd_generic_product(args):
    ctx = _field_from_args(args)
    lam = _parsed(parse_polypartition, ctx, args.a)
    mu = _parsed(parse_polypartition, ctx, args.b)
    if args.verify_at is not None:
        # verify_fh works on the reduced types
        low = max(reduce_polypartition(t).size for t in (lam, mu))
        _at_least("--verify-at", args.verify_at, low)
    gp = center.fh_polynomials(lam, mu)
    if args.verify_at is not None:
        report = center.verify_fh(gp, [args.verify_at])
        ok = not report[args.verify_at]
        print("verification at n=%d: %s" % (args.verify_at, "PASS" if ok else "FAIL"),
              file=sys.stderr)
        if not ok:
            print(json.dumps(report, default=str), file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(
            {
                "q": ctx.q,
                "lhs": [format_polypartition(m) for m in gp.lhs],
                "rhs": [
                    {"type": format_polypartition(nu),
                     "poly": [_frac_str(c) for c in poly.coeffs]}
                    for nu, poly in sorted(gp.rhs.items())
                ],
                # S^type of Ahat_lhs[0] Ahat_lhs[1], one table per pair of the
                # class expansions; lhs defaults to the request's own
                "S": [
                    dict({"type": format_polypartition(nu), "coeff": _frac_str(c)},
                         **({} if pair == gp.lhs else
                            {"lhs": [format_polypartition(t) for t in pair]}))
                    for pair, S in sorted(gp.tables.items())
                    for nu, c in sorted(S.items())
                ],
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        for nu, poly in sorted(
                gp.rhs.items(), key=lambda kv: format_polypartition(kv[0])):
            print("%s  %s" % (format_polypartition(nu),
                              " ".join(map(str, poly.coeffs))))
    return 0


def _unit(ctx, flag, literal):
    """The field element a flag names; 0 is a usage error, not a unit."""
    x = _parsed(ctx.elem_parse, literal)
    if not x:
        raise SystemExit2("%s %r is 0 in F_%d, not a unit" % (flag, literal, ctx.q))
    return x


def cmd_degree1(args):
    ctx = _field_from_args(args)
    a = _unit(ctx, "--a", args.a)
    b = _unit(ctx, "--b", args.b)
    if args.n is None:
        out = degree1.degree1_product(ctx, a, b)  # its cap comes before sqrt's O(q) table
        case = degree1.classify(ctx, a, b)
        if args.json:
            print(json.dumps({
                "q": ctx.q,
                "a": ctx.elem_str(a),
                "b": ctx.elem_str(b),
                "case": case.tag,
                "delta": None if case.delta is None else ctx.elem_str(case.delta),
                "terms": [
                    {"type": format_polypartition(m), "coeff": _frac_str(c)}
                    for m, c in sorted(
                        out.items(),
                        key=lambda kv: format_polypartition(kv[0]))
                ],
            }, indent=2))
        else:
            print("case: %s" % case.tag)
            _print_coeffs(out, False)
    else:
        out = degree1.project_degree1(ctx, a, b, _at_least("--n", args.n, 1))
        _print_coeffs(out.terms, args.json)
    return 0


_WHAT_FLAGS = {"E": ("n", "kplus", "k", "k1"), "F": ("kplus", "k", "k1"), "subspaces": ("n", "k")}


def cmd_count(args):
    ctx = _field_from_args(args)
    q = ctx.q
    _check_answer_bits(q, _read_flags(args, "--what " + args.what, _WHAT_FLAGS, args.what))
    if args.what == "E":
        out = _parsed(partial_iso.count_E, q, args.n, args.kplus, args.k, args.k1)
    elif args.what == "F":
        out = _parsed(partial_iso.count_F, q, args.kplus, args.k, args.k1)
    else:
        out = subspaces.num_subspaces(q, args.n, args.k)
    print(out)
    return 0


_LAW_FLAGS = {
    "rank": ("d", "a", "c"),
    "cond": ("d", "a", "b", "c", "dd"),
    "dimsum": ("n", "j", "k", "l", "m"),
    "count": ("j", "k", "l", "m"),
}


def cmd_ranklaw(args):
    ctx = _field_from_args(args)
    q = ctx.q
    _check_answer_bits(q, _read_flags(args, "--law " + args.law, _LAW_FLAGS, args.law))
    if args.law == "rank":
        out = _parsed(ranklaw.rank_law, args.d, q, args.a, args.c)
    elif args.law == "cond":
        out = _parsed(ranklaw.rank_law_conditional, args.d, q, args.a, args.b, args.c, args.dd)
    elif args.law == "dimsum":
        out = _parsed(ranklaw.dim_sum_law, args.n, q, args.j, args.k, args.l, args.m)
    else:
        out = _parsed(ranklaw.count_constrained_subspaces, args.j, args.k, args.l, args.m, q)
    print(out)
    return 0


# -- verify suites ------------------------------------------------------------

def _suite_assoc(ctx, n, rng, samples):
    basis = partial_iso.all_pisos(ctx, n)
    for _ in range(samples):
        x, y, z = (partial_iso.basis_elem(rng.choice(basis)) for _ in range(3))
        lhs = partial_iso.product(ctx, partial_iso.product(ctx, x, y), z)
        rhs = partial_iso.product(ctx, x, partial_iso.product(ctx, y, z))
        if lhs != rhs:
            return False, "associativity fails"
    return True, "%d random triples associative at (n=%d, q=%d)" % (
        samples, n, ctx.q)


def _suite_naive(ctx, n, rng, samples):
    _at_least("--n", n, 3 if ctx.q == 2 else 2)
    triple = partial_iso.naive_product_counterexample(ctx, n)
    return True, "counterexample found: %r" % (triple,)


def _suite_operators(ctx, n, rng, samples):
    basis = partial_iso.all_pisos(ctx, n)
    subs = []
    for k in range(n + 1):
        subs.extend(subspaces.enumerate_subspaces(ctx, n, k))
    for _ in range(samples):
        x = partial_iso.basis_elem(rng.choice(basis))
        X, Y = rng.choice(subs), rng.choice(subs)
        lhs = partial_iso.op_L(ctx, X, partial_iso.op_R(ctx, Y, x))
        rhs = partial_iso.op_R(ctx, Y, partial_iso.op_L(ctx, X, x))
        if lhs != rhs:
            return False, "L/R commutation fails"
        both = partial_iso.op_R(ctx, Y, partial_iso.op_R(ctx, X, x))
        merged = partial_iso.op_R(ctx, subspaces.subspace_sum(ctx, X, Y), x)
        if both != merged:
            return False, "R composition fails"
    return True, "%d random operator identities hold at (n=%d, q=%d)" % (
        samples, n, ctx.q)


def _suite_extensions(ctx, n, rng, samples):
    q = ctx.q
    full = subspaces.full_subspace(n)
    checked = 0
    for x in partial_iso.all_pisos(ctx, n):
        k = x.dim
        tp = partial_iso.piso_type(ctx, x)
        k1 = tp.k1
        W_ext = subspaces.extend_basis(ctx, x.W, full)
        V_ext = subspaces.extend_basis(ctx, x.V, full)
        for k_plus in range(k, n + 1):
            W_plus = subspaces.from_rows(ctx, W_ext[:k_plus], n)
            exts = partial_iso.trivial_extensions_fixed_right(ctx, x, W_plus)
            if len(exts) != partial_iso.count_E(q, n, k_plus, k, k1):
                return False, "E count mismatch at %r" % (x,)
            # the extensions with both spaces fixed are one V+-slice of exts
            V_plus = subspaces.from_rows(ctx, V_ext[:k_plus], n)
            both = [e for e in exts if e.V == V_plus]
            if len(both) != partial_iso.count_F(q, k_plus, k, k1):
                return False, "F count mismatch at %r" % (x,)
            checked += 2
        if checked >= 2 * samples:
            break
    return True, "%d extension counts match at (n=%d, q=%d)" % (
        checked, n, ctx.q)


def _suite_census(ctx, n, rng, samples):
    try:
        buckets = census(ctx, n)
    except AssertionError as exc:
        return False, str(exc)
    return True, "%d classes cover GL(%d, F_%d)" % (len(buckets), n, ctx.q)


def _suite_ranklaw(ctx, n, rng, samples):
    q = ctx.q
    # (n+2)^2 (n+1)/2 rank laws, and (n+1)(n+1-j)^2 dimension laws for each j
    fields.check_work("verify suite", (n + 2) ** 2 * (n + 1) // 2
                      + (n + 1) * sum(i * i for i in range(1, n + 2)), "law evaluations")
    for d in range(n + 1):
        for a in range(n + 2):
            s = sum(ranklaw.rank_law(d, q, a, c) for c in range(d + 1))
            if s != 1:
                return False, "rank_law does not sum to 1"
    for j in range(n + 1):
        for k in range(j, n + 1):
            for l in range(j, n + 1):
                s = sum(ranklaw.dim_sum_law(n, q, j, k, l, m)
                        for m in range(n + 1))
                if s != 1:
                    return False, "dim_sum_law does not sum to 1"
    return True, "laws are probability measures up to n=%d, q=%d" % (n, q)


def _unit_pairs(ctx, work, unit, extra=0):
    """(a, b, {X-a:(1)}, {X-b:(1)}) for every pair of units a, b, refused
    before the first pair when work(lam, mu) summed over the pairs, plus the
    extra work of the caller's other pairs, is above the cap; unit names
    what work counts.  The types {X-a:(1)} with a != 1 differ only in their
    label, so a pair's work depends only on which of a, b is 1, and the sum
    weighs one pair of each kind by its number of pairs (the unit q - 1
    stands for the q - 2 units other than 1, none at q = 2)."""
    q = ctx.q
    kinds = ((linear_type(ctx, 1), 1), (linear_type(ctx, q - 1), q - 2))
    fields.check_work("verify suite", extra + sum(i * j * work(lam, mu) for lam, i in kinds
                                                  for mu, j in kinds), unit)
    units = range(1, q)
    types = {a: linear_type(ctx, a) for a in units}
    return [(a, b, types[a], types[b]) for a in units for b in units]


def _suite_degree1(ctx, n, rng, samples):
    for a, b, lam, mu in _unit_pairs(
            ctx, lambda lam, mu: partial_iso.invariant_product_work(lam, mu, 2),
            "type_of calls"):
        if degree1.degree1_product(ctx, a, b) != partial_iso.invariant_product(lam, mu, 2):
            return False, "closed form != engine at a=%d b=%d" % (a, b)
    return True, "closed form matches engine for all units, q=%d" % ctx.q


def _fh_work(lam, mu):
    """The work of fh_polynomials(lam, mu) (product_work) and the type_of
    calls of verify_fh at n = 2 and 3, which enumerates the smaller
    completed class."""
    lam, mu = reduce_polypartition(lam), reduce_polypartition(mu)
    return (center.product_work(lam, mu)
            + sum(min(class_size(complete(t, n), n) for t in (lam, mu)) for n in (2, 3)))


def _suite_fh(ctx, n, rng, samples):
    # the degree-1 pairs, then the transvection {X-1:(2)}, whose class
    # expansion has several terms, against each unit; its pairs weigh in
    # the cap as _unit_pairs weighs its own
    q = ctx.q
    tv = linear_type(ctx, 1, (2,))
    extra = _fh_work(tv, linear_type(ctx, 1)) + (q - 2) * _fh_work(tv, linear_type(ctx, q - 1))
    pairs = [(lam, mu) for _, _, lam, mu in _unit_pairs(ctx, _fh_work,
                                                        center.PRODUCT_WORK_UNIT, extra)]
    pairs += [(tv, linear_type(ctx, b)) for b in range(1, q)]
    for lam, mu in pairs:
        report = center.verify_fh(center.fh_polynomials(lam, mu), [2, 3])
        if any(report.values()):
            return False, "fh mismatch at %s * %s" % (format_polypartition(lam),
                                                      format_polypartition(mu))
    return True, "fh polynomials verified for degree-1 pairs and {X-1:(2)}, q=%d" % q


def _suite_phi(ctx, n, rng, samples):
    # the type orbits of sizes 0, 1 and 2 at n = 3 hold nf(q, 3, k)^2
    # partial isomorphisms each
    fields.check_work("verify suite", sum(num_free_families(ctx.q, 3, k) ** 2
                                          for k in range(3)), "partial isomorphisms")
    for size in (0, 1, 2):
        for mu in enumerate_polypartitions(ctx, size):
            big = partial_iso.invariant_elem(ctx, mu, 3)
            small = partial_iso.invariant_elem(ctx, mu, 2)
            if partial_iso.phi(ctx, big, 2) != small:
                return False, "phi fails on %s" % format_polypartition(mu)
    return True, "phi sends hat elements at n=3 to n=2, q=%d" % ctx.q


def _suite_pi(ctx, n, rng, samples):
    basis = partial_iso.all_pisos(ctx, n)
    for _ in range(samples):
        x = partial_iso.basis_elem(rng.choice(basis))
        y = partial_iso.basis_elem(rng.choice(basis))
        lhs = partial_iso.pi_n(ctx, partial_iso.product(ctx, x, y))
        rhs = partial_iso.pi_n(ctx, x).mul(ctx, partial_iso.pi_n(ctx, y))
        if lhs != rhs:
            return False, "pi_n is not multiplicative"
    return True, "pi_n multiplicative on %d random pairs at (n=%d, q=%d)" % (
        samples, n, ctx.q)


# suite: (function, default --n, --q, --samples); None: a flag it does not read
_SUITES = {
    "assoc": (_suite_assoc, 2, 2, 100),
    "naive": (_suite_naive, 2, 3, None),
    "operators": (_suite_operators, 2, 2, 100),
    "extensions": (_suite_extensions, 2, 2, 100),
    "census": (_suite_census, 2, 2, None),
    "ranklaw": (_suite_ranklaw, 4, 2, None),
    "degree1": (_suite_degree1, None, 3, None),
    "fh": (_suite_fh, None, 2, None),
    "phi": (_suite_phi, None, 2, None),
    "pi": (_suite_pi, 2, 2, 100),
}


def cmd_verify(args):
    fn, default_n, default_q, default_samples = _SUITES[args.suite]
    n = _flag("suite " + args.suite, "--n", args.n, default_n)
    samples = _flag("suite " + args.suite, "--samples", args.samples, default_samples)
    if args.q is None and args.p is None:
        args.q = default_q
    ctx = _field_from_args(args)
    rng = random.Random(args.seed)
    ok, msg = fn(ctx, n, rng, samples)
    print("suite %s: %s (%s)" % (args.suite, "PASS" if ok else "FAIL", msg))
    return 0 if ok else 1


# -- argument parsing ----------------------------------------------------------

def _add_field_flags(p):
    p.add_argument("--q", type=int, help="field size (prime power)")
    p.add_argument("--p", type=int, help="characteristic (with --e)")
    p.add_argument("--e", type=int, default=1, help="extension degree")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="glfq",
        description="Conjugacy classes, partial isomorphisms, and generic "
                    "class products over finite general linear groups.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("type", help="conjugacy type of a matrix")
    _add_field_flags(p)
    p.add_argument("--mat", required=True,
                   help="rows separated by ';', entries by ','")
    p.set_defaults(fn=cmd_type)

    p = sub.add_parser("class-size", help="cardinality of a conjugacy class")
    _add_field_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--type", required=True)
    p.set_defaults(fn=cmd_class_size)

    p = sub.add_parser("census", help="bucket GL(n, F_q) by type")
    _add_field_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("class-product",
                       help="product of two completed classes at fixed n")
    _add_field_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True, help="polypartition")
    p.add_argument("--b", required=True, help="polypartition")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_class_product)

    p = sub.add_parser("generic-product",
                       help="structure polynomials in X = q^n")
    _add_field_flags(p)
    p.add_argument("--a", required=True, help="polypartition")
    p.add_argument("--b", required=True, help="polypartition")
    p.add_argument("--verify-at", type=int, default=None, metavar="N",
                   help="cross-check against the brute-force product at n=N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_generic_product)

    p = sub.add_parser("degree1", help="closed-form degree-1 products")
    _add_field_flags(p)
    p.add_argument("--a", required=True, help="field element")
    p.add_argument("--b", required=True, help="field element")
    p.add_argument("--n", type=int, default=None,
                   help="project to GL(n) class products")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_degree1)

    p = sub.add_parser("count", help="extension and subspace counts")
    _add_field_flags(p)
    p.add_argument("--what", choices=sorted(_WHAT_FLAGS), required=True)
    for flag in ("n", "k", "kplus", "k1"):
        p.add_argument("--" + flag, type=int)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("ranklaw", help="exact rank and dimension laws")
    _add_field_flags(p)
    p.add_argument("--law", choices=sorted(_LAW_FLAGS), required=True)
    for flag in ("d", "a", "b", "c", "dd", "n", "j", "k", "l", "m"):
        p.add_argument("--" + flag, type=int)
    p.set_defaults(fn=cmd_ranklaw)

    p = sub.add_parser("verify", help="self-verification suites")
    _add_field_flags(p)
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):  # every admitted answer prints
        sys.set_int_max_str_digits(0)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SystemExit2, fields.WorkCapExceeded) as exc:
        # a request refused for its cost is answered like a usage error
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
