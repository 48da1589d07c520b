"""Subspace enumeration and canonical forms."""

import os
import random
import subprocess
import sys

import pytest
from oracles import invertible_by_rank

from glfq import linalg, subspaces
from glfq.conjtype import enumerate_gl
from glfq.fields import make_field


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_enumeration_matches_gaussian_binomial(p, e):
    ctx = make_field(p, e)
    for n in range(4):
        for k in range(n + 1):
            got = subspaces.enumerate_subspaces(ctx, n, k)
            assert len(got) == subspaces.num_subspaces(ctx.q, n, k)
            assert len(set(got)) == len(got)


def test_canonical_form_independent_of_spanning_set():
    ctx = make_field(3)
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [tuple(rng.choice(ctx.elements()) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        S = subspaces.from_rows(ctx, rows, n)
        # a different spanning set: all pairwise sums plus originals
        rows2 = rows + [
            tuple(ctx.add(a, b) for a, b in zip(r1, r2))
            for r1 in rows for r2 in rows]
        rng.shuffle(rows2)
        assert subspaces.from_rows(ctx, rows2, n) == S
        for v in S.vectors(ctx):
            assert S.contains_vector(ctx, v)


def test_containing_filter():
    ctx = make_field(2)
    n = 4
    L = subspaces.from_rows(ctx, [(1, 0, 0, 0)], n)
    got = [S for S in subspaces.enumerate_subspaces(ctx, n, 2) if S.contains(ctx, L)]
    # subspaces of dim 2 containing a line = [n-1 choose 1]_q
    assert len(got) == subspaces.num_subspaces(2, n - 1, 1)


def test_sum_and_zero_full():
    ctx = make_field(2)
    n = 3
    Z = subspaces.zero_subspace(n)
    F = subspaces.full_subspace(n)
    for S in subspaces.enumerate_subspaces(ctx, n, 2):
        assert subspaces.subspace_sum(ctx, S, Z) == S
        assert subspaces.subspace_sum(ctx, S, F) == F


@pytest.mark.parametrize("q,p,e", [(2, 2, 1), (3, 3, 1)])
def test_completions_count(q, p, e):
    ctx = make_field(p, e)
    n = 3
    base = (tuple(linalg.identity(n)[0]),)
    for k_plus in range(1, n + 1):
        got = subspaces.enumerate_completions(ctx, list(base), k_plus, n)
        want = 1
        for i in range(1, k_plus):
            want *= q ** n - q ** i
        assert len(got) == want


def test_extend_basis_completes_a_subspace_basis():
    ctx = make_field(3)
    n = 4
    for S in subspaces.enumerate_subspaces(ctx, n, 1):
        for sup in subspaces.enumerate_subspaces(ctx, n, 3):
            if not sup.contains(ctx, S):
                continue
            rows = subspaces.extend_basis(ctx, S, sup)
            assert rows[:1] == S.basis
            assert all(r in sup.basis for r in rows[1:])
            assert subspaces.from_rows(ctx, rows, n) == sup
            assert linalg.rank(ctx, rows) == 3
    with pytest.raises(ValueError):
        subspaces.enumerate_completions(ctx, [(1, 0, 0, 0), (2, 0, 0, 0)], 3, n)


def test_subspace_sum_checks_ambient_dimension_under_optimized_mode():
    code = (
        "from glfq import subspaces\n"
        "from glfq.fields import make_field\n"
        "try:\n"
        "    subspaces.subspace_sum(make_field(2), subspaces.full_subspace(2),\n"
        "                           subspaces.full_subspace(3))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('no ValueError under -O')\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "cannot add subspaces of (F_q)^2 and (F_q)^3"


def free_families_by_rref(ctx, rows, rref_rows, pool, size):
    """subspaces._free_families with a full row reduction of the grown
    family per accepted vector, instead of one row added to its RREF."""
    if len(rows) == size:
        yield tuple(rows)
        return
    zero = (0,) * len(pool[0])
    for v in pool:
        if subspaces.reduce_against(ctx, v, rref_rows) != zero:
            R, piv = linalg.rref(ctx, rref_rows + (v,))
            yield from free_families_by_rref(ctx, rows + [v], R[: len(piv)], pool, size)


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 2, 2),
                                   (3, 1, 3)])
def test_completions_match_full_rref_oracle(p, e, n):
    """The same lists, in the same order, as the full-reduction enumerator:
    GL(n, F_q) itself, then seeded free families of each size completed
    by one vector and to a basis."""
    ctx = make_field(p, e)
    rng = random.Random(p ** e * 10 + n)
    cases = [((), n)]
    for k in range(1, n):
        basis = rng.choice(subspaces.enumerate_completions(ctx, (), k, n))
        cases += [(basis, k_plus) for k_plus in sorted({k + 1, n})]
    pool = subspaces.full_subspace(n).vectors(ctx)
    for basis, k_plus in cases:
        R, piv = linalg.rref(ctx, basis)
        want = list(free_families_by_rref(ctx, list(basis), R[: len(piv)], pool, k_plus))
        got = subspaces.enumerate_completions(ctx, basis, k_plus, n)
        assert got == want
        assert len(got) == len(set(got)) > 0


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_gl_matches_every_matrix_of_full_rank(q, n):
    # the last row of each family is taken without updating the RREF; the
    # same matrices come out, in the same (lexicographic) order
    ctx = make_field(2, 2) if q == 4 else make_field(q)
    want = invertible_by_rank(ctx, n)
    assert list(enumerate_gl(ctx, n)) == want
    assert subspaces.enumerate_completions(ctx, (), n, n) == want
