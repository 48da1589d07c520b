"""The one memo facility and the functions cached through it."""

import inspect

import pytest

from glfq import center, conjtype, fields, linalg, partial_iso
from glfq.fields import make_field
from glfq.memo import memo


def test_hit_returns_the_identical_object():
    calls = []

    @memo
    def build(n):
        calls.append(n)
        return [n]

    first = build(3)
    assert build(3) is first
    assert build.cache == {(3,): first}
    assert calls == [3]


def test_limit_empties_the_store_in_place():
    @memo(limit=2)
    def square(n):
        return n * n

    store = square.cache
    square(1)
    square(2)
    assert len(store) == 2
    assert square(3) == 9
    assert square.cache is store
    assert store == {(3,): 9}
    # a hit never flushes
    square(4)
    assert square(4) == 16 and len(store) == 2


def test_a_hit_compares_its_key_once():
    class Key:
        # equal keys that are distinct objects, all in one hash bucket
        eqs = 0

        def __hash__(self):
            return 0

        def __eq__(self, other):
            Key.eqs += 1
            return isinstance(other, Key)

    @memo
    def build(key):
        return [key]

    first = build(Key())
    Key.eqs = 0
    assert build(Key()) is first
    assert Key.eqs == 1


def test_wrapped_bypasses_the_store():
    @memo
    def build(n):
        return [n]

    raw = build.__wrapped__(5)
    assert raw == [5] and build.cache == {}
    assert build(5) is not raw


@pytest.mark.parametrize("module,name", [
    (fields, "_make_field"),
    (fields, "enumerate_irreducibles"),
    (fields, "factor"),
    (fields, "_square_roots"),
    (conjtype, "enumerate_gl"),
    (conjtype, "census"),
    (conjtype, "class_orbit"),
    (partial_iso, "all_pisos"),
    (partial_iso, "orbit_of_type"),
    (partial_iso, "_basis_product"),
    (partial_iso, "_mat_mul"),
    (partial_iso, "trivial_extensions_grouped"),
    (center, "_padding_profiles"),
])
def test_memoized_functions_stay_plain_module_functions(module, name):
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
    assert isinstance(fn.cache, dict)
    assert inspect.isfunction(fn.__wrapped__)


def test_product_cache_is_the_product_memo_store():
    assert partial_iso._PRODUCT_CACHE is partial_iso._basis_product.cache


def test_algebra_product_memo_equals_mat_mul():
    # every ordered pair of GL(2, F_3), through a filled and a flushed store
    ctx = make_field(3)
    gl = conjtype.enumerate_gl(ctx, 2)
    pairs = [(a, b) for a in gl for b in gl]
    assert len(pairs) == 2304
    partial_iso._mat_mul.cache.clear()
    for _ in range(2):
        assert all(partial_iso._mat_mul(ctx, a, b) == linalg.mat_mul(ctx, a, b)
                   for a, b in pairs)
    assert len(partial_iso._mat_mul.cache) == 2304
    partial_iso._mat_mul.cache.clear()
    assert all(partial_iso._mat_mul(ctx, a, b) == linalg.mat_mul(ctx, a, b)
               for a, b in pairs)


def test_make_field_normalizes_its_default_degree():
    assert make_field(3) is make_field(3, 1)
    assert make_field(2, 2) is make_field(2, 2)


def test_enumerations_are_keyed_by_their_arguments():
    ctx = make_field(2)
    assert conjtype.enumerate_gl(ctx, 2) is conjtype.enumerate_gl(ctx, 2)
    assert conjtype.enumerate_gl(ctx, 1) is not conjtype.enumerate_gl(ctx, 2)
    mu = conjtype.parse_polypartition(ctx, "{X+1:(1)}")
    same = conjtype.parse_polypartition(ctx, "{X+1:(1)}")
    assert partial_iso.orbit_of_type(mu, 2) is partial_iso.orbit_of_type(same, 2)
    # equal entries over another field are another key
    other = conjtype.parse_polypartition(make_field(3), "{X+1:(1)}")
    assert other.entries == mu.entries
    assert conjtype.class_orbit(other, 1) == [((2,),)]
    assert conjtype.class_orbit(mu, 1) == [((1,),)]
