"""The one memo of glfq: results cached by the call's own positional
arguments.  Field contexts key by identity (make_field returns one object
per field); polypartitions and partial isomorphisms hash by value."""

import functools

_MISSING = object()


def memo(fn=None, *, limit=None):
    """Cache fn in the dict wrapper.cache, keyed by its positional arguments.
    A hit is one dict lookup.  A miss that finds `limit` entries empties the
    dict in place first; wrapper.__wrapped__ is the uncached function."""
    if fn is None:
        return functools.partial(memo, limit=limit)
    cache = {}

    @functools.wraps(fn)
    def wrapper(*args):
        out = cache.get(args, _MISSING)
        if out is _MISSING:
            if limit is not None and len(cache) >= limit:
                cache.clear()
            out = cache[args] = fn(*args)
        return out

    wrapper.cache = cache
    return wrapper
