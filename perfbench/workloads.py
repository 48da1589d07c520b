"""Seeded request lists, one per workload.

A request is one glfq process: an argv list and the check its stdout must
pass.  The seed draws the varying parts of each list (the types queried,
the conjugating matrices, the field elements, the verify seeds and the
order) from fixed pools; the expensive requests of each workload are the
same for every seed, so that two seeds cost about the same.
"""

import random

from gf import GF, jordan_matrix, mat_inverse, mat_mul

_FIELDS = {}


def field(q):
    if q not in _FIELDS:
        _FIELDS[q] = GF(q)
    return _FIELDS[q]


def request(argv, kind, **params):
    return {"argv": [str(a) for a in argv], "check": dict(params, kind=kind)}


def _units(q, exclude=(0, 1)):
    return [a for a in range(q) if a not in exclude]


def _type_arg(q, mu):
    return field(q).type_str(mu)


def _as_check(mu):
    """Types travel in checks as sorted [label, parts] lists."""
    return [[list(P), list(parts)] for P, parts in sorted(mu.items())]


def random_irreducible(rng, gf, d):
    """A random monic irreducible of degree d <= 3 other than X."""
    while True:
        P = tuple(rng.randrange(gf.q) for _ in range(d)) + (1,)
        if P[0] != 0 and (d == 1 or not gf.has_root(P)):
            return P


def random_type(rng, gf, n, max_degree=3):
    """A random type of size n whose labels have degree <= max_degree."""
    mu, size = {}, 0
    while size < n:
        d = rng.choice([d for d in range(1, max_degree + 1) if d <= n - size])
        P = random_irreducible(rng, gf, d)
        m = rng.randint(1, (n - size) // d)
        mu[P] = tuple(sorted(mu.get(P, ()) + (m,), reverse=True))
        size += d * m
    return mu


def type_query(rng, q, n):
    """`type` of S J(mu) S^-1 for a random type mu and random invertible S;
    the answer must be mu."""
    gf = field(q)
    mu = random_type(rng, gf, n)
    while True:
        S = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        S_inv = mat_inverse(gf, S)
        if S_inv is not None:
            break
    M = mat_mul(gf, mat_mul(gf, S, jordan_matrix(gf, mu)), S_inv)
    text = ";".join(",".join(gf.elem_str(x) for x in row) for row in M)
    return request(["type", "--q", q, "--mat", text], "type", q=q, mu=_as_check(mu))


def census(q, n):
    return request(["census", "--q", q, "--n", n], "census", q=q, n=n)


def class_product(q, n, a, b):
    mu_a, mu_b = {field(q).x_minus(a): (1,)}, {field(q).x_minus(b): (1,)}
    return request(["class-product", "--q", q, "--n", n, "--a", _type_arg(q, mu_a),
                    "--b", _type_arg(q, mu_b)],
                   "class_product", q=q, n=n, a=_as_check(mu_a), b=_as_check(mu_b))


def generic_product(q, a, b, verify_at=None):
    argv = ["generic-product", "--q", q, "--a", _type_arg(q, a), "--b", _type_arg(q, b)]
    if verify_at is not None:
        argv += ["--verify-at", verify_at]
    return request(argv, "generic_product", q=q, a=_as_check(a), b=_as_check(b),
                   verify_at=verify_at)


def degree1_projection(q, a, b, n):
    gf = field(q)
    return request(["degree1", "--q", q, "--a", gf.elem_str(a), "--b", gf.elem_str(b),
                    "--n", n], "class_product", q=q, n=n,
                   a=_as_check({gf.x_minus(a): (1,)}), b=_as_check({gf.x_minus(b): (1,)}))


def verify(suite, n, q, samples):
    return request(["verify", "--suite", suite, "--n", n, "--q", q, "--samples", samples,
                    "--seed", 0],
                   "verify", suite=suite, n=n, q=q, samples=samples)


def class_size(rng, q, n, max_degree=1):
    mu = random_type(rng, field(q), n, max_degree)
    return request(["class-size", "--q", q, "--n", n, "--type", _type_arg(q, mu)],
                   "class_size", q=q, mu=_as_check(mu))


def count_subspaces(rng, q):
    n = rng.randint(3, 6)
    k = rng.randint(1, n - 1)
    return request(["count", "--q", q, "--what", "subspaces", "--n", n, "--k", k],
                   "count_subspaces", q=q, n=n, k=k)


def rank_law(rng, q):
    d, a = rng.randint(1, 5), rng.randint(1, 5)
    c = rng.randint(0, min(a, d))
    return request(["ranklaw", "--q", q, "--law", "rank", "--d", d, "--a", a, "--c", c],
                   "rank_law", q=q, d=d, a=a, c=c)


def degree1_closed_form(rng, q):
    gf = field(q)
    a, b = rng.sample(_units(q), 2)
    return request(["degree1", "--q", q, "--a", gf.elem_str(a), "--b", gf.elem_str(b)],
                   "degree1", q=q, a=a, b=b)


# -- workloads ----------------------------------------------------------------

def classify(rng):
    # One class at a time, over prime and extension fields: census, class
    # products, type queries and the closed forms at large q.  The small-q
    # time goes to type_of -> charpoly/rank/mat_mul -> field ops and factor;
    # at q = 256, 512 and 65521 nothing is enumerated and the time and
    # memory go to building the field context, so setup_s and peak_rss_mb
    # come from here.  partial_iso and center never run.  Tests type_of,
    # the extension-field kernels and field construction, and bypasses the
    # product and engine code.  q=1024 shows the same table build as q=512,
    # but one such request takes 10 s.
    reqs = [census(q, n) for q, n in ((3, 3), (8, 2), (7, 2), (5, 2), (4, 2), (2, 3))]
    reqs += [class_product(3, 4, 2, 2), class_product(4, 3, 2, 2)]
    reqs += [type_query(rng, q, 3) for q in (5, 8, 9, 16, 5, 8, 9, 16)]
    reqs += [
        class_size(rng, 512, 4),
        count_subspaces(rng, 512),
        rank_law(rng, 256),
        degree1_closed_form(rng, 256),
        class_size(rng, 65521, rng.randint(3, 6)),
        rank_law(rng, 65521),
        count_subspaces(rng, 65521),
    ]
    return reqs


def generic(rng):
    # The paper's pipeline: generic-product on both sides of the auto
    # engine switch (q=3 degree 1 takes the orbit sum, the rest take the
    # classes engine) and degree1 --n, checked against class-product.
    # Moves with the invariant-product engine and only with it.  The orbit
    # sum takes most of the list, so the list stays short otherwise.
    gf3 = field(3)
    a5, b5 = rng.choice(_units(5)), rng.choice(_units(5))
    a7, b7 = rng.choice(_units(7)), rng.choice(_units(7))
    c5, d5 = rng.choice(_units(5)), rng.choice(_units(5))
    reqs = [
        generic_product(3, {gf3.x_minus(2): (1,)}, {gf3.x_minus(2): (1,)}),
        generic_product(2, {(1, 1, 1): (1,)}, {(1, 1, 1): (1,)}),
        generic_product(5, {field(5).x_minus(a5): (1,)}, {field(5).x_minus(b5): (1,)}, 3),
        generic_product(7, {field(7).x_minus(a7): (1,)}, {field(7).x_minus(b7): (1,)}, 2),
        degree1_projection(5, c5, d5, 3),
        class_product(5, 3, c5, d5),
    ]
    # degree1 --n and class-product of the same pair: two code paths
    reqs[4]["check"]["same_as"] = 5
    return reqs


def algebra(rng):
    # verify suites over the partial-isomorphism algebra: _basis_product ->
    # trivial extensions -> canonical_piso -> rref with transform.  assoc at
    # (n=2, q=2) has a small basis and the product memo mostly hits; at
    # (n=3, q=2) and (n=2, q=3) the basis is large and it mostly misses.
    # type_of barely runs.  The suites' own --seed is fixed: the cost of a
    # random triple is heavy-tailed (assoc at (n=3, q=2) took 1.1 to 3.4 s
    # over verify seeds), so seeding it would measure the draw, not the code.
    # The workload seed only orders the requests.
    return [
        verify("assoc", 2, 2, 2000),
        verify("assoc", 3, 2, 600),
        verify("assoc", 2, 3, 1000),
        verify("pi", 2, 2, 500),
        verify("pi", 2, 3, 200),
        verify("operators", 2, 2, 500),
        verify("operators", 3, 2, 200),
        verify("extensions", 2, 2, 100),
        verify("extensions", 3, 2, 100),
        verify("extensions", 2, 3, 100),
    ]


WORKLOADS = {"classify": classify, "generic": generic, "algebra": algebra}


def requests_for(workload, seed):
    """The request list of a workload at a seed, in the order it runs."""
    rng = random.Random("%s/%d" % (workload, seed))
    reqs = WORKLOADS[workload](rng)
    order = list(range(len(reqs)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    out = [reqs[i] for i in order]
    for r in out:
        if "same_as" in r["check"]:
            r["check"]["same_as"] = where[r["check"]["same_as"]]
    return out
