"""Command-line interface: outputs, exit codes, and determinism."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import oracles
from glfq import center, cli, conjtype, degree1, fields, partial_iso, subspaces
from glfq.conjtype import (
    class_size,
    complete,
    enumerate_polypartitions,
    format_polypartition,
    linear_type,
    parse_polypartition,
)
from glfq.fields import make_field, poly_parse


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def enumerate_nothing(*args):
    raise AssertionError("enumeration started")


def test_class_size_example(capsys):
    code, out, _ = run(
        capsys, "class-size", "--q", "5", "--n", "6",
        "--type", "{X^2+X+1:(2);X+3:(1,1)}")
    assert code == 0
    assert out.strip() == "38418317437500000000"


def test_type_example(capsys):
    code, out, _ = run(
        capsys, "type", "--q", "5", "--mat", "0,2;1,2")
    assert code == 0
    assert out.strip() == "{X^2+3*X+3:(1)}"


def test_type_rejects_singular_matrix(capsys):
    code, _, err = run(capsys, "type", "--q", "5", "--mat", "1,1;1,1")
    assert code == 2
    assert "singular" in err


def test_class_size_at_q_4096(capsys):
    code, out, _ = run(
        capsys, "class-size", "--q", "4096", "--n", "3", "--type", "{X+1:(2,1)}")
    assert code == 0
    q = 4096
    assert int(out) == (q ** 3 - 1) * (q + 1)  # the transvections of GL(3, q)


def test_generic_product_names_inputs_with_unipotent_parts(capsys):
    # {X+1:(2)} expands over Pi_n(Ahat_{X+1:(1)}) and Pi_n(Ahat_{}): one S
    # table per pair, each naming its pair, and the polynomials verified
    code, out, err = run(
        capsys, "generic-product", "--q", "2", "--a", "{X+1:(2)}",
        "--b", "{X^2+X+1:(1)}", "--verify-at", "4", "--json")
    assert (code, err) == (0, "verification at n=4: PASS\n")
    data = json.loads(out)
    assert data["lhs"] == ["{X+1:(2)}", "{X^2+X+1:(1)}"]
    assert {tuple(d["lhs"]) for d in data["S"]} == {
        ("{X+1:(1)}", "{X^2+X+1:(1)}"), ("{}", "{X^2+X+1:(1)}")}


def test_generic_product_json_roundtrip(capsys):
    code, out, _ = run(capsys, "generic-product", "--q", "3", "--a", "{X+1:(1)}",
                       "--b", "{X+1:(1)}", "--json")
    assert code == 0
    data = json.loads(out)
    ctx = make_field(3)
    lam = parse_polypartition(ctx, "{X+1:(1)}")
    gp = center.fh_polynomials(lam, lam)
    assert data["q"] == 3
    assert data["lhs"] == ["{X+1:(1)}", "{X+1:(1)}"]
    # every coefficient is a fraction "a/b", also when it is an integer
    assert all("/" in c for d in data["rhs"] for c in d["poly"])
    assert {d["type"]: [Fraction(c) for c in d["poly"]] for d in data["rhs"]} == {
        center.format_polypartition(nu): list(poly.coeffs) for nu, poly in gp.rhs.items()}
    # one table, for the pair of the inputs themselves: no entry names it
    assert all(set(d) == {"type", "coeff"} for d in data["S"])
    assert {d["type"]: Fraction(d["coeff"]) for d in data["S"]} == {
        center.format_polypartition(nu): c for nu, c in gp.tables[lam, lam].items()}


def test_census_json_consistent_with_class_size(capsys):
    code, out, _ = run(capsys, "census", "--q", "2", "--n", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert sum(r["size"] for r in rows) == 6  # |GL(2, F_2)|
    assert len(rows) == 3


def test_class_product_json(capsys):
    code, out, _ = run(
        capsys, "class-product", "--q", "2", "--n", "2",
        "--a", "{X+1:(2)}", "--b", "{X+1:(2)}", "--json")
    assert code == 0
    rows = json.loads(out)
    assert all(set(r) == {"type", "coeff"} for r in rows)
    # integer structure constants
    assert all(r["coeff"].endswith("/1") for r in rows)


def test_generic_product_verified(capsys):
    code, out, err = run(
        capsys, "generic-product", "--q", "3",
        "--a", "{X+1:(1)}", "--b", "{X+1:(1)}", "--verify-at", "3", "--json")
    assert code == 0
    assert "verification at n=3: PASS" in err
    data = json.loads(out)
    assert data["q"] == 3
    assert data["rhs"] and data["S"]


@pytest.mark.parametrize("a", ["{X+1:(2)}", "{X+1:(1,1)}"])
def test_generic_product_size_two_at_q3(capsys, a):
    # k = 2, l = 1 at q=3: the middle-space sum runs over the four lines of
    # V = (F_3)^2 when m = 2
    code, out, err = run(
        capsys, "generic-product", "--q", "3", "--a", a, "--b", "{X+1:(1)}",
        "--verify-at", "3")
    assert code == 0
    assert "verification at n=3: PASS" in err
    assert out


def test_generic_product_verified_below_n0(capsys):
    # the polynomials hold down to n = max(|lam|, |mu|) = 2; n0 is 4
    code, out, err = run(
        capsys, "generic-product", "--q", "2", "--a", "{X+1:(2)}", "--b", "{X+1:(2)}",
        "--verify-at", "3")
    assert code == 0
    assert err == "verification at n=3: PASS\n"
    assert out


def test_generic_product_refuses_work_above_cap(capsys, monkeypatch):
    monkeypatch.setattr(fields, "MAX_TYPE_OF_CALLS", 100)
    monkeypatch.setattr(partial_iso, "_invariant_product_classes", enumerate_nothing)
    code, out, err = run(
        capsys, "generic-product", "--q", "2",
        "--a", "{X^2+X+1:(1)}", "--b", "{X^2+X+1:(1)}")
    assert code == 2
    assert out == ""
    assert err == ("usage error: this product needs 610 type_of calls or field elements, "
                   "above the cap of 100\n")


def test_class_product_refuses_work_above_cap(capsys, monkeypatch):
    # the invariant product of {X^2+2:(1)} with itself at n0 = 4 makes
    # 7,887,520 type_of calls at any n >= 4; the closed-form count is
    # refused before any enumeration
    monkeypatch.setattr(center, "class_orbit", enumerate_nothing)
    monkeypatch.setattr(partial_iso, "_invariant_product_classes", enumerate_nothing)
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "class-product", "--q", "5", "--n", "9",
        "--a", "{X^2+2:(1)}", "--b", "{X^2+2:(1)}")
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err == ("usage error: this product needs 7887520 type_of calls or field elements, "
                   "above the cap of 1000000\n")


def test_generic_product_verify_at_refuses_work_above_cap(capsys):
    # the polynomials fit the cap; the class product at n = 6 does not
    code, out, err = run(
        capsys, "generic-product", "--q", "5", "--a", "{X+2:(1)}",
        "--b", "{X+3:(1)}", "--verify-at", "6")
    assert code == 2
    assert out == ""
    assert err == ("usage error: this product needs 12206250 type_of calls, "
                   "above the cap of 1000000\n")


@pytest.mark.parametrize("argv", [
    ("census", "--q", "5", "--n", "4"),
    ("verify", "--suite", "census", "--q", "5", "--n", "4"),
])
def test_census_refuses_work_above_cap(capsys, monkeypatch, argv):
    # |GL(4, F_5)| = 116,064,000,000; the group order is checked before
    # enumerate_gl would build the whole list
    monkeypatch.setattr(conjtype, "enumerate_gl", enumerate_nothing)
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err == ("usage error: this census needs 116064000000 type_of calls, "
                   "above the cap of 1000000\n")


@pytest.mark.parametrize("argv,count", [
    (("verify", "--suite", "assoc", "--n", "4"), 412820326),
    (("verify", "--suite", "pi", "--n", "3", "--q", "3"), 126547877),
    (("verify", "--suite", "extensions", "--n", "4"), 412820326),
    (("verify", "--suite", "operators", "--n", "3", "--q", "4"), 32934765970),
    (("verify", "--suite", "phi", "--q", "4"), 14292370),
])
def test_verify_suites_refuse_enumerations_above_cap(capsys, monkeypatch, argv, count):
    # the size of the basis of A(n), or of the type orbits phi sums over,
    # is checked before any subspace or partial isomorphism is built
    monkeypatch.setattr(subspaces, "enumerate_subspaces", enumerate_nothing)
    monkeypatch.setattr(partial_iso, "invariant_elem", enumerate_nothing)
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    what = "verify suite" if "phi" in argv else "basis"
    assert err == ("usage error: this %s needs %d partial isomorphisms, "
                   "above the cap of 1000000\n" % (what, count))


@pytest.mark.parametrize("argv,message", [
    # (q - 1)^2 (q^2 + 1) invariant-product calls at q = 37
    (("verify", "--suite", "degree1", "--q", "37"), "1775520 type_of calls"),
    # the completed classes at n = 3 dominate: q^2 (q^2 + q + 1) per pair;
    # a pair of size-1 types adds the q field elements of its closed form
    (("verify", "--suite", "fh", "--q", "11"), "1460005 type_of calls or field elements"),
    (("verify", "--suite", "fh", "--q", "16"), "14733005 type_of calls or field elements"),
    (("verify", "--suite", "ranklaw", "--n", "40"), "1012823 law evaluations"),
])
def test_verify_suites_refuse_their_total_above_cap(capsys, monkeypatch, argv, message):
    # the total over every unit pair, or over every law, is checked before
    # the first one is computed
    def compute_nothing(*args):
        raise AssertionError("computation started")

    for module, name in ((center, "generic_S"), (center, "fh_polynomials"),
                         (partial_iso, "invariant_product"), (cli.ranklaw, "rank_law")):
        monkeypatch.setattr(module, name, compute_nothing)
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == "usage error: this verify suite needs %s, above the cap of 1000000\n" % message


def degree1_work(lam, mu):
    return partial_iso.invariant_product_work(lam, mu, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("suite,work", [("degree1", degree1_work), ("fh", cli._fh_work)])
def test_unit_pair_suites_name_the_sum_over_every_pair(capsys, monkeypatch, q, suite, work):
    # the total weighs one pair of each kind; it equals the sum over all
    # pairs, and fh pairs {X-1:(2)} with every unit as well
    args = cli.build_parser().parse_args(["verify", "--suite", suite, "--q", str(q)])
    ctx = cli._field_from_args(args)
    units = range(1, q)
    lefts = [linear_type(ctx, a) for a in units]
    if suite == "fh":
        lefts.append(linear_type(ctx, 1, (2,)))
    total = sum(work(lam, linear_type(ctx, b)) for lam in lefts for b in units)
    monkeypatch.setattr(fields, "MAX_TYPE_OF_CALLS", total - 1)
    code, out, err = run(capsys, "verify", "--suite", suite, "--q", str(q))
    # fh sums product_work, which counts the field elements of closed forms too
    unit = "type_of calls" if suite == "degree1" else "type_of calls or field elements"
    assert (code, out, err) == (2, "", "usage error: this verify suite needs %d %s, "
                                       "above the cap of %d\n" % (total, unit, total - 1))


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_every_suite_answers_at_once_over_a_large_field(capsys, suite):
    # each suite at its default flags over F_65521 computes or is refused
    t0 = time.monotonic()
    code, _, _ = run(capsys, "verify", "--suite", suite, "--q", "65521")
    assert time.monotonic() - t0 < 5.0
    assert code in (0, 2)


def test_class_product_over_a_large_prime_field_answers_at_once(capsys):
    # the primitive element of F_q is tested on the divisors (q - 1)/r of
    # the prime factors r of q - 1, not on every r <= q - 1
    t0 = time.monotonic()
    code, out, err = run(capsys, "class-product", "--q", "100000007", "--n", "1",
                         "--a", "{X+2:(1)}", "--b", "{X+3:(1)}")
    assert time.monotonic() - t0 < 2.0
    assert (code, out, err) == (0, "{X+100000001:(1)}  1\n", "")


def test_class_product_matches_enumeration_on_a_seeded_sweep(capsys, monkeypatch):
    # 40 requests drawn from the pairs of types of size <= 2 at q <= 4 and
    # max(|lam|, |mu|) <= n <= n0 + 2, where the smaller class has at most
    # 2,000 elements: the polynomials equal the oracle completed_product on
    # each, and the stdout of class-product is the oracle's text.  Where the
    # polynomials make no more type_of calls than the smaller class has
    # elements, class-product enumerates no class; elsewhere it starts no
    # invariant product.  Both routes occur in the sample
    cases = []
    for q in (2, 3, 4):
        ctx = make_field(2, 2) if q == 4 else make_field(q)
        types = [t for s in range(3) for t in enumerate_polypartitions(ctx, s)]
        for i, lam in enumerate(types):
            for mu in types[i:]:
                for n in range(max(lam.size, mu.size, 1), lam.size + mu.size + 3):
                    if min(class_size(complete(t, n), n) for t in (lam, mu)) <= 2000:
                        cases.append((q, lam, mu, n))
    polynomial = 0
    for q, lam, mu, n in random.Random(0).sample(cases, 40):
        want = center.completed_product(lam, mu, n)
        assert center.fh_polynomials(lam, mu, n).at(n) == want
        smaller = min(class_size(complete(t, n), n) for t in (lam, mu))
        with monkeypatch.context() as m:
            if center.product_work(lam, mu, n) <= smaller:
                polynomial += 1
                for name in ("class_orbit", "completed_product"):
                    m.setattr(center, name, enumerate_nothing)
            else:
                m.setattr(partial_iso, "_invariant_product_classes", enumerate_nothing)
            code, out, err = run(capsys, "class-product", "--q", str(q), "--n", str(n),
                                 "--a", format_polypartition(lam),
                                 "--b", format_polypartition(mu))
        cli._print_coeffs(want.terms, False)
        assert (code, out, err) == (0, capsys.readouterr().out, "")
    assert 0 < polynomial < 40


@pytest.mark.parametrize("q,n,a,b,want", [
    # 2I in GL(2, F_1009), one element, against diag(3, 1): the invariant
    # product of the pair would make q (q + 1) = 1,019,090 type_of calls
    (1009, 2, "{X+1007:(1,1)}", "{X+1006:(1)}", "{X+1003:(1);X+1007:(1)}  1\n"),
    # a scalar of GL(3, F_37) against a degree-1 type: q^2 (q^2 + q + 1)
    (37, 3, "{X+35:(1,1,1)}", "{X+1:(1)}", "{X+2:(1);X+35:(1,1)}  1\n"),
    # 2I in GL(4, F_1009) against a regular unipotent: the invariant products
    # of the class expansions would make 1,038,543,410,020 type_of calls
    (1009, 4, "{X+1008:(4)}", "{X+1007:(1,1,1,1)}", "{X+1007:(4)}  1\n"),
])
def test_class_product_of_a_scalar_class_enumerates_it(capsys, monkeypatch, q, n, a, b, want):
    # the scalar class has one element: class-product enumerates it rather
    # than start invariant products that cost more
    monkeypatch.setattr(partial_iso, "_invariant_product_classes", enumerate_nothing)
    t0 = time.monotonic()
    code, out, err = run(capsys, "class-product", "--q", str(q), "--n", str(n),
                         "--a", a, "--b", b)
    assert time.monotonic() - t0 < 1.0
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("q,n,a", [
    (3, 6, "{X+1:(1)}"), (5, 9, "{X+1:(1)}"),
    (2, 8, "{X+1:(2)}"), (2, 10, "{X+1:(2)}"), (2, 11, "{X+1:(2)}"),
])
def test_large_class_products_answer_at_once(capsys, monkeypatch, q, n, a):
    # these enumerated 10^4 to 2 * 10^11 elements; the polynomials answer
    monkeypatch.setattr(center, "class_orbit", enumerate_nothing)
    monkeypatch.setattr(center, "completed_product", enumerate_nothing)
    t0 = time.monotonic()
    code, out, err = run(capsys, "class-product", "--q", str(q), "--n", str(n),
                         "--a", a, "--b", a)
    assert time.monotonic() - t0 < 1.0
    assert (code, err) == (0, "")
    assert out.endswith("  %d\n" % {2: 4, 3: 3, 5: 5}[q])


def test_degree1_closed_form_refused_above_cap(capsys):
    # the closed form sums over every element of F_q: refused before the
    # first one, where it used to take 45 s and 808 MB
    t0 = time.monotonic()
    code, out, err = run(capsys, "degree1", "--q", "1000003", "--a", "2", "--b", "3")
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == ("usage error: this closed form needs 1000003 field elements, "
                   "above the cap of 1000000\n")


def test_degree1_projection_refused_above_cap(capsys, monkeypatch):
    # --n is the class product, whose table is the same closed form: its q
    # field elements are counted before the first one
    for name in ("classify", "irreducible_quadratics_I"):
        monkeypatch.setattr(degree1, name, enumerate_nothing)
    t0 = time.monotonic()
    code, out, err = run(capsys, "degree1", "--q", "1000003", "--a", "2", "--b", "3", "--n", "2")
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == ("usage error: this product needs 1000003 type_of calls or field elements, "
                   "above the cap of 1000000\n")


# route: (the route, uncached, at (ctx, n); the number of elements it
# enumerates there)
ROUTE_WORK = {
    "census": (conjtype.census.__wrapped__,
               lambda ctx, n: len(conjtype.enumerate_gl(ctx, n))),
    "all_pisos": (partial_iso.all_pisos.__wrapped__,
                  lambda ctx, n: len(partial_iso.Basis(ctx, n))),
    "naive_atoms": (partial_iso.naive_product_counterexample, oracles.naive_atoms_by_scan),
    "degree1": (lambda ctx, n: degree1.degree1_product(ctx, 1, 1),
                lambda ctx, n: len(ctx.elements())),
    "field_tables": (lambda ctx, n: fields._make_field.__wrapped__(ctx.p, ctx.e),
                     lambda ctx, n: len(ctx._log)),
    "irreducibles": (lambda ctx, n: fields.enumerate_irreducibles.__wrapped__(ctx, n),
                     lambda ctx, n: len(list(itertools.product(ctx.elements(), repeat=n)))),
}


@pytest.mark.parametrize("route,q,n", [
    ("census", 2, 3), ("census", 3, 2), ("census", 3, 3), ("census", 4, 2),
    ("all_pisos", 2, 3), ("all_pisos", 3, 2), ("all_pisos", 4, 2),
    ("naive_atoms", 2, 3), ("naive_atoms", 2, 4), ("naive_atoms", 3, 2),
    ("naive_atoms", 3, 3), ("naive_atoms", 4, 2), ("naive_atoms", 5, 2),
    ("degree1", 2, 1), ("degree1", 3, 1), ("degree1", 4, 1),
    ("field_tables", 4, 1), ("field_tables", 8, 1), ("field_tables", 9, 1),
    ("irreducibles", 2, 1), ("irreducibles", 3, 2), ("irreducibles", 4, 2),
    ("irreducibles", 2, 5),
])
def test_each_route_counts_its_work(monkeypatch, route, q, n):
    # one below the number of elements a route enumerates, the route refuses
    # itself at its entry and names its count: that number
    call, work = ROUTE_WORK[route]
    ctx = make_field(*{4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q,)))
    elements = work(ctx, n)
    monkeypatch.setattr(fields, "MAX_TYPE_OF_CALLS", elements - 1)
    with pytest.raises(fields.WorkCapExceeded) as refused:
        call(ctx, n)
    assert re.fullmatch(r"this [a-z ]+ needs %d [a-z_ ]+, above the cap of %d"
                        % (elements, elements - 1), str(refused.value))


@pytest.mark.parametrize("route,patch,message", [
    (lambda: fields.prime_factors(10 ** 18 + 3), None, "this field needs 999999999 trial divisions"),
    (lambda: make_field(2, 20), (fields, "is_irreducible"),
     "this field needs 1048576 table elements"),
    (lambda: conjtype.census(make_field(5), 4), (conjtype, "enumerate_gl"),
     "this census needs 116064000000 type_of calls"),
    (lambda: degree1.degree1_product(make_field(1000003), 2, 3), (degree1, "classify"),
     "this closed form needs 1000003 field elements"),
    (lambda: partial_iso.all_pisos(make_field(2), 4), (subspaces, "enumerate_subspaces"),
     "this basis needs 412820326 partial isomorphisms"),
    (lambda: partial_iso.naive_product_counterexample(make_field(251), 2),
     (subspaces, "enumerate_subspaces"), "this counterexample search needs 15624252 atoms"),
], ids=["prime_factors", "make_field", "census", "degree1_product", "all_pisos",
        "naive_product_counterexample"])
def test_library_routes_refuse_themselves_before_enumerating(monkeypatch, route, patch, message):
    # called without the CLI, each route checks its own count at its entry
    if patch:
        monkeypatch.setattr(*patch, enumerate_nothing)
    t0 = time.monotonic()
    with pytest.raises(fields.WorkCapExceeded) as refused:
        route()
    assert time.monotonic() - t0 < 1.0
    assert str(refused.value) == message + ", above the cap of 1000000"


@pytest.mark.parametrize("q,mat,degree,count", [
    # no eigenvalue: the irreducible quadratic factors send factor to the
    # sieve of degree 2, which ran for minutes
    (65521, "0,17,0,0;1,0,0,0;0,0,0,17;0,0,1,0", 2, 4293001441),
    # the sieve of degree 1 alone: its candidates ran out of memory
    (1000000000039, "1,2;3,4", 1, 1000000000039),
    (1000003, "1,2;3,4", 1, 1000003),
])
def test_type_over_a_large_field_refuses_its_sieve(capsys, monkeypatch, q, mat, degree, count):
    # the sieve of the monic irreducibles of degree d counts its q^d
    # candidates before it tests the first
    real = fields.is_irreducible

    def below_degree(ctx, P):
        if fields.pdeg(P) >= degree:
            raise AssertionError("sieve started")
        return real(ctx, P)

    monkeypatch.setattr(fields, "is_irreducible", below_degree)
    t0 = time.monotonic()
    code, out, err = run(capsys, "type", "--q", str(q), "--mat", mat)
    assert time.monotonic() - t0 < 2.0
    assert (code, out) == (2, "")
    assert err == ("usage error: this sieve of irreducibles needs %d candidates, "
                   "above the cap of 1000000\n" % count)


def test_naive_suite_refused_above_cap(capsys, monkeypatch):
    # 252 lines of (F_251)^2, 249^2 pairs of automorphisms other than the
    # identity, one plane each
    monkeypatch.setattr(subspaces, "enumerate_subspaces", enumerate_nothing)
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "--suite", "naive", "--q", "251")
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == ("usage error: this counterexample search needs 15624252 atoms, "
                   "above the cap of 1000000\n")


@pytest.mark.parametrize("q,a,b", [
    # the two slowest products known to finish (about 17 s and 10 s on a
    # 2-vCPU VM), then the largest generic-product requests of perfbench
    (3, "{X+1:(2)}", "{X+1:(2)}"),
    (3, "{X^2+1:(1)}", "{X^2+1:(1)}"),
    (2, "{X^2+X+1:(1)}", "{X^2+X+1:(1)}"),
    (7, "{X+1:(1)}", "{X+6:(1)}"),
])
def test_documented_slow_products_stay_below_cap(q, a, b):
    ctx = make_field(q)
    lam, mu = parse_polypartition(ctx, a), parse_polypartition(ctx, b)
    work = partial_iso.invariant_product_work(lam, mu, lam.size + mu.size)
    assert 0 < work <= fields.MAX_TYPE_OF_CALLS // 10


def test_generic_product_rejects_unipotent_input(capsys, monkeypatch):
    # a unipotent input is refused by the cost of the tables of its class
    # expansion, before any of them is computed: {X+1:(4)} at q = 2 expands
    # over types of size up to 3, and the pair {X+1:(1)}^2 among them costs
    # the q = 2 field elements of its closed form
    monkeypatch.setattr(partial_iso, "_invariant_product_classes", enumerate_nothing)
    monkeypatch.setattr(degree1, "degree1_product", enumerate_nothing)
    a = "{X+1:(4)}"
    code, out, err = run(capsys, "generic-product", "--q", "2", "--a", a, "--b", a)
    assert (code, out) == (2, "")
    assert err == ("usage error: this product needs 12440509 type_of calls or field elements, "
                   "above the cap of 1000000\n")


def test_class_product_of_size_1_types_at_q_1009_is_degree1_n(capsys):
    # the engine's table of this pair would make q^2 + 1 type_of calls for
    # n = 2; generic_S takes the closed form of its q field elements
    out = run(capsys, "class-product", "--q", "1009", "--n", "2",
              "--a", "{X+2:(1)}", "--b", "{X+3:(1)}")
    assert out == run(capsys, "degree1", "--q", "1009", "--a", "1007", "--b", "1006", "--n", "2")
    assert out[0] == 0 and out[1] and out[2] == ""


def seeded_unit_pairs():
    rng = random.Random(0)
    return [(q, rng.randrange(1, q), rng.randrange(1, q), n)
            for q in (2, 4, 5, 9, 1009) for n in (1, 2, 3)]


@pytest.mark.parametrize("q,a,b,n", seeded_unit_pairs())
def test_degree1_n_and_class_product_print_the_same(capsys, q, a, b, n):
    # degree1 --n is the class product of {X-a:(1)} and {X-b:(1)}: one route
    ctx = make_field(*{4: (2, 2), 9: (3, 2)}.get(q, (q,)))
    lam, mu = linear_type(ctx, a), linear_type(ctx, b)
    code, out, err = run(capsys, "class-product", "--q", str(q), "--n", str(n),
                         "--a", format_polypartition(lam), "--b", format_polypartition(mu))
    assert (code, err) == (0, "") and out
    assert run(capsys, "degree1", "--q", str(q), "--a", ctx.elem_str(a),
               "--b", ctx.elem_str(b), "--n", str(n)) == (0, out, "")


def test_degree1_closed_form_json(capsys):
    code, out, _ = run(
        capsys, "degree1", "--q", "5", "--a", "2", "--b", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "odd-square"
    assert any(t["type"] == "{X+4:(1)}" for t in data["terms"])


def test_degree1_projection(capsys):
    code, out, _ = run(
        capsys, "degree1", "--q", "3", "--a", "2", "--b", "2", "--n", "2",
        "--json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["coeff"].endswith("/1") for r in rows)


def test_count_subcommand(capsys):
    code, out, _ = run(
        capsys, "count", "--q", "2", "--what", "subspaces", "--n", "4",
        "--k", "2")
    assert code == 0
    assert out.strip() == "35"
    code, out, _ = run(
        capsys, "count", "--q", "2", "--what", "E", "--n", "3", "--kplus",
        "3", "--k", "1", "--k1", "0")
    assert code == 0
    assert int(out.strip()) > 0


@pytest.mark.parametrize("what,argv,message", [
    ("E", ("--n", "4"),
     "need 0 <= k1 <= k <= k_plus <= n, got k1=1, k=2, k_plus=1, n=4"),
    ("F", (), "need 0 <= k1 <= k <= k_plus, got k1=1, k=2, k_plus=1"),
])
def test_count_range_error_names_values(capsys, what, argv, message):
    code, out, err = run(
        capsys, "count", "--q", "4", "--what", what, *argv, "--k", "2",
        "--kplus", "1", "--k1", "1")
    assert code == 2
    assert out == ""
    assert err.strip() == "usage error: " + message


@pytest.mark.parametrize("argv", [
    ["class-size", "--q", "2", "--n", "%(n)d", "--type", "{X+1:(%(n)d)}"],
    ["count", "--q", "2", "--what", "subspaces", "--n", "%(n)d", "--k", "%(h)d"],
    ["count", "--q", "2", "--what", "E", "--n", "%(n)d", "--kplus", "%(n)d"],
    ["ranklaw", "--q", "2", "--law", "rank", "--d", "%(n)d", "--a", "%(n)d", "--c", "%(h)d"],
])
def test_huge_closed_form_answers_print_or_are_refused(capsys, argv):
    # each answer is built from integers of order q^(N^2), N the largest
    # dimension flag: about 90,000 bits at N = 300, which print in full,
    # and 4 * 10^8 at N = 20000, which are refused before they are computed
    for n, bits in ((300, None), (20000, 400000000)):
        t0 = time.monotonic()
        code, out, err = run(capsys, *[a % {"n": n, "h": n // 2} for a in argv])
        assert time.monotonic() - t0 < 1.0
        if bits is None:
            assert (code, err) == (0, "") and len(out) > 4300
        else:
            assert (code, out, err) == (2, "", "usage error: this closed form needs %d answer "
                                               "bits, above the cap of 1000000\n" % bits)


def test_answer_bits_admit_the_identity_class_of_gl_1000_over_f_2(capsys, monkeypatch):
    # 1000^2 bits of q = 2 is at the cap, and one more dimension is above it
    monkeypatch.setattr(cli, "class_size", lambda mu, n: 1)
    for n, code in ((1000, 0), (1001, 2)):
        ones = ",".join(["1"] * n)
        assert run(capsys, "class-size", "--q", "2", "--n", str(n),
                   "--type", "{X+1:(%s)}" % ones)[0] == code


def test_flags_not_given_read_as_0(capsys):
    # count --what subspaces --n 3 is [3 choose 0]_2; rank --d 2 --a 2 is c = 0
    assert run(capsys, "count", "--q", "2", "--what", "subspaces", "--n", "3") == (0, "1\n", "")
    assert run(capsys, "ranklaw", "--q", "2", "--law", "rank", "--d", "2", "--a", "2") == (
        0, "1/16\n", "")


def test_census_mismatch_is_a_computation_error(capsys, monkeypatch):
    # the checks run inside census's memo, so a cached census would skip them
    conjtype.census.cache.clear()
    monkeypatch.setattr(conjtype, "class_size", lambda mu, n: 0)
    code, out, err = run(capsys, "census", "--q", "2", "--n", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: census counts ")
    assert err.strip().endswith(", class_size 0")


@pytest.mark.parametrize("name,patch,message", [
    ("class_size", lambda mu, n: 0, "census counts 3 of type {X+1:(2)}, class_size 0"),
    ("gl_order", lambda q, n: 7, "census counts 6 elements, |GL(2, F_2)| = 7"),
])
def test_verify_census_fails_with_the_census_check_message(capsys, monkeypatch, name, patch,
                                                           message):
    conjtype.census.cache.clear()
    monkeypatch.setattr(conjtype, name, patch)
    code, out, err = run(capsys, "verify", "--suite", "census")
    assert (code, out, err) == (1, "suite census: FAIL (%s)\n" % message, "")


def test_ranklaw_subcommand(capsys):
    code, out, _ = run(
        capsys, "ranklaw", "--q", "2", "--law", "rank", "--d", "2", "--a",
        "2", "--c", "2")
    assert code == 0
    assert out.strip() == "3/8"


def test_field_flag_validation(capsys):
    code, _, err = run(capsys, "class-size", "--q", "6", "--n", "2",
                       "--type", "{X+1:(1,1)}")
    assert code == 2
    assert "prime power" in err
    code, _, err = run(capsys, "class-size", "--q", "4", "--p", "2",
                       "--n", "2", "--type", "{X+1:(1,1)}")
    assert code == 2
    code, _, _ = run(capsys, "class-size", "--p", "2", "--e", "2", "--n", "2",
                     "--type", "{X+1:(1,1)}")
    assert code == 0


@pytest.mark.parametrize("q,field", [(2, (2, 1)), (4, (2, 2)), (9, (3, 2)), (27, (3, 3)),
                                     (49, (7, 2)), (4096, (2, 12)), (65521, (65521, 1)),
                                     (625, (5, 4)), (10 ** 18 + 3, (10 ** 18 + 3, 1))])
def test_q_is_split_into_its_prime_and_degree(q, field):
    args = cli.build_parser().parse_args(["type", "--q", str(q), "--mat", "1"])
    assert cli._field_from_args(args) is make_field(*field)


@pytest.mark.parametrize("flags,named", [
    (["--q", "0"], "got 0"),
    (["--q", "1"], "got 1"),
    (["--q", "-4"], "got -4"),
    (["--p", "4"], "p = 4"),
    (["--p", "1"], "p = 1"),
    (["--p", "3", "--e", "0"], "got 0"),
    (["--q", "12"], "--q must be a prime power, got 12"),
    (["--q", "65522"], "--q must be a prime power, got 65522"),
    (["--q", "6"], "--q must be a prime power, got 6"),
    # a perfect power of a composite, and 10^18 + 1 = (10^6 + 1)(10^12 - 10^6 + 1)
    (["--q", "36"], "--q must be a prime power, got 36"),
    (["--q", "1000000000000000001"], "--q must be a prime power, got 1000000000000000001"),
])
def test_bad_field_is_a_usage_error(capsys, flags, named):
    code, out, err = run(capsys, "type", *flags, "--mat", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and named in err


@pytest.mark.parametrize("flags,message", [
    # a q or p at or above 3.3 * 10^24, the bound of Miller-Rabin on the
    # bases 2..41, is left to trial division: the prime 2^89 - 1 would take
    # 2.5 * 10^13 of them
    (["--q", "618970019642690137449562111"], "24879108095802 trial divisions"),
    (["--p", "618970019642690137449562111"], "24879108095802 trial divisions"),
    # the tables of F_{2^20} take about 20 s and 136 MB to build
    (["--p", "2", "--e", "20"], "1048576 table elements"),
    # and 2^e for such an e is not formed
    (["--p", "2", "--e", "5000000"], "1048576 table elements or more"),
    (["--p", "3", "--e", "10000000000000"], "3486784401 table elements or more"),
])
def test_oversized_field_is_refused_at_once(capsys, flags, message):
    start = time.monotonic()
    code, out, err = run(capsys, "class-size", *flags, "--n", "1", "--type", "{X+1:(1)}")
    assert time.monotonic() - start < 1
    assert (code, out, err) == (
        2, "", "usage error: this field needs %s, above the cap of 1000000\n" % message)

@pytest.mark.parametrize("flags", [["--q", "1000000000000000003"],
                                   ["--p", "1000000000000000003"]])
def test_large_prime_field_answers_a_closed_form_at_once(capsys, flags):
    # primality by Miller-Rabin: the prime 10^18 + 3 needed 10^9 trial
    # divisions, and a prime field keeps no tables
    start = time.monotonic()
    code, out, err = run(capsys, "class-size", *flags, "--n", "1", "--type", "{X+2:(1)}")
    assert time.monotonic() - start < 1
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("argv,message", [
    (["census", "--q", "3", "--n", "-1"], "--n must be at least 0, got -1"),
    (["class-product", "--q", "3", "--n", "-1", "--a", "{X+1:(1)}", "--b", "{X+1:(1)}"],
     "--n must be at least 0, got -1"),
    (["degree1", "--q", "3", "--a", "2", "--b", "2", "--n", "0"],
     "--n must be at least 1, got 0"),
    (["generic-product", "--q", "3", "--a", "{X+1:(1)}", "--b", "{X+1:(1)}",
      "--verify-at", "-1"], "--verify-at must be at least 1, got -1"),
    # {X+2:(1)} is X - 1 over F_3 and reduces away, so n = 1 is the bound
    (["generic-product", "--q", "3", "--a", "{X+2:(1)}", "--b", "{X+1:(1)}",
      "--verify-at", "0"], "--verify-at must be at least 1, got 0"),
    (["verify", "--suite", "assoc", "--samples", "-3"], "--samples must be at least 0, got -3"),
    (["verify", "--suite", "ranklaw", "--n", "-1"], "--n must be at least 0, got -1"),
    (["verify", "--suite", "phi", "--n", "0"], "suite phi does not read --n"),
    (["verify", "--suite", "census", "--samples", "5"],
     "suite census does not read --samples"),
    (["ranklaw", "--q", "2", "--law", "rank", "--d", "-1", "--a", "2", "--c", "0"],
     "--d must be at least 0, got -1"),
    (["ranklaw", "--q", "2", "--law", "dimsum", "--n", "-1", "--k", "1", "--l", "1"],
     "--n must be at least 0, got -1"),
    (["ranklaw", "--q", "2", "--law", "dimsum", "--n", "2", "--j", "2", "--k", "1",
      "--l", "1"], "need j <= min(k,l) <= max(k,l) <= n"),
    (["verify", "--suite", "naive", "--n", "1"], "--n must be at least 2, got 1"),
    (["verify", "--suite", "naive", "--q", "2", "--n", "2"], "--n must be at least 3, got 2"),
    (["count", "--q", "2", "--what", "subspaces", "--n", "-1", "--k", "0"],
     "--n must be at least 0, got -1"),
    (["count", "--q", "2", "--what", "subspaces", "--n", "2", "--k", "-1"],
     "--k must be at least 0, got -1"),
    (["class-product", "--q", "2", "--n", "1", "--a", "{X+1:(2)}", "--b", "{}"],
     "{X+1:(2)} has size 2, above --n 1"),
    (["count", "--q", "2", "--what", "F", "--kplus", "3", "--k", "2", "--k1", "1", "--n", "99"],
     "--what F does not read --n"),
    (["count", "--q", "2", "--what", "subspaces", "--n", "3", "--k1", "0"],
     "--what subspaces does not read --k1"),
    (["ranklaw", "--q", "2", "--law", "rank", "--d", "2", "--a", "2", "--c", "2", "--b", "1"],
     "--law rank does not read --b"),
    (["ranklaw", "--q", "2", "--law", "count", "--j", "1", "--n", "4"],
     "--law count does not read --n"),
])
def test_out_of_range_integer_flag_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "usage error: %s\n" % message)


def test_bad_polypartition_is_a_usage_error(capsys):
    code, _, err = run(capsys, "class-size", "--q", "2", "--n", "2",
                       "--type", "oops")
    assert code == 2
    assert err.startswith("usage error: ") and "'oops'" in err
    # a malformed partition is named in the message
    code, _, err = run(capsys, "generic-product", "--q", "3",
                       "--a", "{X+1:(2,0)}", "--b", "{X+1:(1)}")
    assert code == 2
    assert err.startswith("usage error: ") and "(2, 0)" in err
    # empty and non-integer partitions name the bad entry
    for entry in ("X+1:()", "X+1:(a)", "X+1:(1,,1)"):
        code, _, err = run(capsys, "class-size", "--q", "2", "--n", "2",
                           "--type", "{%s}" % entry)
        assert code == 2
        assert err.startswith("usage error: ") and repr(entry) in err
    # so does a type of the wrong size
    code, out, err = run(capsys, "class-size", "--q", "3", "--n", "2",
                         "--type", "{X^2+1:(1);X+1:(1)}")
    assert (code, out) == (2, "")
    assert err == "usage error: {X+1:(1);X^2+1:(1)} has size 3, not --n 2\n"


def test_out_of_range_extension_literal_is_rejected(capsys):
    code, _, err = run(capsys, "degree1", "--q", "4", "--a", "3", "--b", "t")
    assert code == 2
    assert err.startswith("usage error: ") and "'3'" in err
    # prime fields keep reading integers mod p
    code, out, _ = run(capsys, "degree1", "--q", "3", "--a", "5", "--b", "2")
    assert code == 0
    assert out == run(capsys, "degree1", "--q", "3", "--a", "2", "--b", "2")[1]


@pytest.mark.parametrize("argv,named", [
    (["degree1", "--q", "4", "--a", "t5", "--b", "1"], "t5"),
    (["degree1", "--q", "4", "--a", "tt", "--b", "1"], "tt"),
    (["degree1", "--q", "4", "--a", "t*1", "--b", "1"], "t*1"),
    (["type", "--q", "4", "--mat", "t5,1;0,1"], "t5"),
    (["class-size", "--q", "5", "--n", "1", "--type", "{X2+1:(1)}"], "X2"),
    (["class-size", "--q", "5", "--n", "1", "--type", "{X*4+1:(1)}"], "X*4"),
    (["class-size", "--q", "5", "--n", "1", "--type", "{X^a+1:(1)}"], "X^a"),
    (["class-size", "--q", "5", "--n", "1", "--type", "{X^(2)+1:(1)}"], "X^(2)"),
    (["class-size", "--q", "9", "--n", "1", "--type", "{X+t5:(1)}"], "t5"),
    # a label that reads but is not monic
    (["class-size", "--q", "5", "--n", "1", "--type", "{2X+1:(1)}"], "2X+1"),
])
def test_malformed_term_is_named(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and repr(named) in err


@pytest.mark.parametrize("argv,named", [
    (["degree1", "--q", "13", "--a", "1 2", "--b", "1"], "'1 2'"),
    (["degree1", "--q", "13", "--a", "1_2", "--b", "1"], "'1_2'"),
    (["degree1", "--q", "4", "--a", "1 t", "--b", "1"], "'1 t'"),
    (["type", "--q", "13", "--mat", "1 2,0;0,1"], "'1 2'"),
    (["class-size", "--q", "13", "--n", "1", "--type", "{X+1 2:(1)}"], "'{X+1 2:(1)}'"),
    (["class-size", "--q", "13", "--n", "1", "--type", "{X+1_2:(1)}"], "'1_2'"),
    (["class-size", "--q", "13", "--n", "2", "--type", "{X+1:(1 1)}"], "'{X+1:(1 1)}'"),
])
def test_literal_split_by_a_space_or_underscore_is_named(capsys, argv, named):
    # each of these used to read as the literal with the space or '_' dropped
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and named in err


def test_spaces_around_operators_are_read(capsys):
    for argv, spaced in [
        (["degree1", "--q", "4", "--b", "1", "--a"], (" t + 1 ", "t+1")),
        (["type", "--q", "13", "--mat"], (" 12 , 1 ; 0 , - 1 ", "12,1;0,12")),
        (["type", "--q", "13", "--mat"], ("1,2;\n0,1", "1,2;0,1")),
        (["class-size", "--q", "2", "--n", "2", "--type"], ("{ X ^ 2 + X + 1 : (1) }",
                                                           "{X^2+X+1:(1)}")),
    ]:
        code, out, _ = run(capsys, *argv, spaced[0])
        assert code == 0 and (code, out) == run(capsys, *argv, spaced[1])[:2]


@pytest.mark.parametrize("sub", [
    ["class-size", "--n", "1", "--type"],
    ["class-product", "--n", "1", "--b", "{X+1:(1)}", "--a"],
    ["generic-product", "--b", "{X+1:(1)}", "--a"],
])
def test_label_whose_sieve_passes_the_cap_is_refused_at_once(capsys, sub):
    # its coefficient tuple would take about 16 MB
    t0 = time.monotonic()
    code, out, err = run(capsys, sub[0], "--q", "2", *sub[1:], "{X^2000000+1:(1)}")
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == ("usage error: this label 'X^2000000+1' of degree 2000000 needs 1048574 "
                   "sieve candidates or more, above the cap of 1000000\n")


def test_parenthesised_constant_term_is_read(capsys):
    # over F_4, X+(t+1) is X+t+1
    ctx = make_field(2, 2)
    assert poly_parse(ctx, "X+(t+1)") == poly_parse(ctx, "X+t+1") == (3, 1)
    argv = ["class-product", "--q", "4", "--n", "1", "--b", "{X+t:(1)}", "--a"]
    code, out, _ = run(capsys, *argv, "{X+(t+1):(1)}")
    assert (code, out) == run(capsys, *argv, "{X+t+1:(1)}")[:2] == (0, "{X+1:(1)}  1\n")


@pytest.mark.parametrize("q,a,b,named", [
    ("3", "0", "1", "--a '0'"),
    ("3", "2", "0", "--b '0'"),
    ("3", "3", "1", "--a '3'"),  # 3 is read mod 3
    ("4", "t", "0", "--b '0'"),
])
@pytest.mark.parametrize("n", [None, "3"])
def test_degree1_zero_is_a_usage_error(capsys, q, a, b, named, n):
    argv = ["degree1", "--q", q, "--a", a, "--b", b] + (["--n", n] if n else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "usage error: %s is 0 in F_%s, not a unit\n" % (named, q)


@pytest.mark.parametrize("q,mat,literal", [
    ("3", "1,;0,1", "''"),
    ("4", "t,1;0,x", "'x'"),
])
def test_malformed_matrix_entry_is_named(capsys, q, mat, literal):
    code, _, err = run(capsys, "type", "--q", q, "--mat", mat)
    assert code == 2
    assert err.startswith("usage error: ") and literal in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("suite", ["assoc", "naive", "operators", "census",
                                   "ranklaw", "pi", "extensions", "degree1",
                                   "fh", "phi"])
def test_verify_suites_pass(capsys, suite):
    # only the suites that draw random cases read --samples
    sampled = suite in ("assoc", "operators", "pi", "extensions")
    flags = ["--samples", "25"] if sampled else []
    code, out, _ = run(capsys, "verify", "--suite", suite, *flags)
    assert code == 0
    assert "PASS" in out


def test_verify_deterministic_with_seed(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "assoc", "--seed", "7",
                     "--samples", "10")
    _, out2, _ = run(capsys, "verify", "--suite", "assoc", "--seed", "7",
                     "--samples", "10")
    assert out1 == out2


# The stdout of these suites depends on enumeration and dict orders (the
# GL(n) enumeration, the accumulation order inside naive_product), so it is
# pinned byte for byte.
NAIVE_DEFAULT_STDOUT = (
    "suite naive: PASS (counterexample found: (((Span((1, 0),), ((2,),)), "
    "(Span((1, 0),), ((2,),)), (Span((1, 0), (0, 1)), ((1, 0), (0, 1)))), "
    "{(Span((1, 0), (0, 1)), ((1, 0), (0, 1))): Fraction(1, 1)}, "
    "{(Span((1, 0), (0, 1)), ((1, 0), (0, 1))): Fraction(1, 3), "
    "(Span((1, 0), (0, 1)), ((1, 2), (0, 1))): Fraction(1, 3), "
    "(Span((1, 0), (0, 1)), ((1, 1), (0, 1))): Fraction(1, 3)}))\n"
)


def test_verify_naive_default_stdout(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "naive")
    assert code == 0
    assert out == NAIVE_DEFAULT_STDOUT


def test_verify_extensions_default_stdout(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "extensions")
    assert code == 0
    assert out == "suite extensions: PASS (114 extension counts match at (n=2, q=2))\n"


def peak_rss_kb(*argv):
    """Peak resident set size, in kB, of one CLI request run in a child
    process; the request must succeed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen([sys.executable, "-m", "glfq.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss


def test_assoc_suite_memory_budget():
    # the sampled associativity suite at (n, q) = (3, 2) holds no copy of the
    # 30,038-element basis and a product memo of at most 4,096 entries: its
    # peak RSS stays within 12 MB of a request that builds almost nothing
    base = peak_rss_kb("verify", "--suite", "extensions", "--n", "2", "--q", "2",
                       "--samples", "1")
    assoc = peak_rss_kb("verify", "--suite", "assoc", "--n", "3", "--q", "2",
                        "--samples", "600", "--seed", "0")
    assert assoc - base < 12 * 1024, (assoc, base)
