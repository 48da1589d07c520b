"""Spans and counters around the layers of glfq, installed from outside.

The tracer replaces module-level functions of the nine glfq modules by
wrappers that record one span per call: name, start, end and parent span.
A name bound in several glfq namespaces (``type_of`` lives in ``conjtype``
and is imported into ``center``, ``partial_iso`` and ``cli``) is replaced
in each of them.  Field element operations are counted, not spanned.
Spans stay in memory until ``summary()`` folds them into per-function
calls, self time and inclusive time at the end of the request.

Names that a later version of glfq no longer has are listed as absent
instead of failing, so the tracer keeps working across refactors.
"""

import inspect
import sys
import time
from array import array

MODULES = ("cli", "center", "degree1", "partial_iso", "conjtype",
           "subspaces", "linalg", "fields", "ranklaw")
# Private functions that the layers of the roadmap name; every public
# module-level function is traced as well.
INTERNALS = ("partial_iso._basis_product", "partial_iso._invariant_product_orbits",
             "partial_iso._invariant_product_classes", "center._padding_profiles")
ELEM_OPS = ("add", "sub", "mul", "inv", "neg")
# Names whose absence is reported: every name a per-layer metric reads.
EXPECTED = INTERNALS + (
    "fields.make_field", "fields.factor", "fields.FieldCtx",
    "linalg.mat_mul", "linalg.rref", "linalg.charpoly", "linalg.apply_poly",
    "linalg.inverse", "conjtype.type_of", "conjtype.enumerate_gl",
    "conjtype.class_orbit", "subspaces.enumerate_subspaces",
    "subspaces.enumerate_completions", "subspaces.reduce_against",
    "subspaces.Subspace", "partial_iso.product", "partial_iso.canonical_piso",
    "partial_iso.all_pisos", "partial_iso.invariant_product",
    "partial_iso._PRODUCT_CACHE", "center.fh_polynomials", "center.generic_S",
    "center.transport", "center.completed_product", "degree1.project_degree1",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.depth = []
        self.counts = {}
        self.absent = []
        self._seen_lists = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, hooks=None):
        """A wrapper recording a span per call.  hooks = (before, after):
        after(args, kwargs, result, state) sees each result, with
        state = before(args, kwargs); either may be None."""
        nid = len(self.names)
        self.names.append(name)
        self.depth.append(0)
        names, parents, outers = self.span_name, self.span_parent, self.span_outer
        starts, ends, stack, depth = self.span_start, self.span_end, self.stack, self.depth
        clock = time.perf_counter
        before, after = hooks or (None, None)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            outers.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            state = before(args, kwargs) if before else None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if after:
                after(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def summary(self):
        """{name: [calls, self_s, total_s]}; total_s counts only outermost
        spans of a name, so recursion is not counted twice."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {}
        for i in range(n):
            row = out.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            dur = ends[i] - starts[i]
            row[0] += 1
            row[1] += dur - child[i]
            if self.span_outer[i]:
                row[2] += dur
        return out

    # -- counters read by the per-layer metrics ------------------------------

    def _distinct_elements(self, key):
        """Count the elements of each distinct list returned (memo hits
        return the same list object and are not counted again)."""
        def after(args, kwargs, result, state):
            if id(result) not in self._seen_lists:
                self._seen_lists[id(result)] = result
                self.count(key, len(result))
        return None, after

    def install(self, glfq_modules):
        """Patch every glfq namespace; glfq_modules maps short name -> module."""
        mods = {k: glfq_modules[k] for k in MODULES if k in glfq_modules}
        for name in EXPECTED:
            mod, _, attr = name.partition(".")
            if mod not in mods or not hasattr(mods[mod], attr):
                self.absent.append(name)
        hooks = {
            "conjtype.enumerate_gl": self._distinct_elements("conjtype.enumerate_gl.elements"),
            "conjtype.class_orbit": self._distinct_elements("conjtype.class_orbit.elements"),
        }
        if "partial_iso" in mods and hasattr(mods["partial_iso"], "_PRODUCT_CACHE"):
            hooks["partial_iso._basis_product"] = self._product_cache_hook(mods["partial_iso"])
        if "subspaces" in mods and hasattr(mods["subspaces"], "Subspace"):
            hooks["subspaces.enumerate_subspaces"] = self._containing_hook(mods["subspaces"])
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                name = "%s.%s" % (short, attr)
                if attr.startswith("_") and name not in INTERNALS and short != "cli":
                    continue
                replaced[obj] = self.wrap(name, obj, hooks.get(name))
        namespaces = {id(m): m for m in mods.values()}
        namespaces.update((id(m), m) for m in list(sys.modules.values())
                          if getattr(m, "__name__", "").startswith("glfq"))
        for mod in namespaces.values():
            _rebind(vars(mod), replaced)
        if "fields" in mods and hasattr(mods["fields"], "FieldCtx"):
            self._count_methods(mods["fields"].FieldCtx, ELEM_OPS, "fields.elem_ops")
        if "subspaces" in mods and hasattr(mods["subspaces"], "Subspace"):
            self._count_methods(mods["subspaces"].Subspace, ("__init__",),
                                "subspaces.Subspace.created")

    def _count_methods(self, cls, methods, key):
        counts = self.counts
        counts[key] = 0
        for m in methods:
            fn = vars(cls).get(m)
            if fn is None:
                self.absent.append("%s.%s" % (cls.__name__, m))
                continue

            def counted(*args, _fn=fn, **kwargs):
                counts[key] += 1
                return _fn(*args, **kwargs)

            setattr(cls, m, counted)

    def _product_cache_hook(self, partial_iso):
        """Memo misses are the growth of _PRODUCT_CACHE over a call; a call
        that finds the memo at or past its cap and flushes it counts the
        entries left after the flush.  Calls with cache=False never store
        and are counted apart."""
        def before(args, kwargs):
            return len(partial_iso._PRODUCT_CACHE)

        def after(args, kwargs, result, size_before):
            size = len(partial_iso._PRODUCT_CACHE)
            cache = kwargs.get("cache", args[3] if len(args) > 3 else True)
            if cache is False:
                self.count("partial_iso.basis_product.uncached")
            else:
                self.count("partial_iso.basis_product.misses",
                           size - size_before if size >= size_before else size)
        return before, after

    def _containing_hook(self, subspaces):
        """With containing= set, candidates are the Subspace objects built
        during the call and the yield is the share returned."""
        def before(args, kwargs):
            return self.counts.get("subspaces.Subspace.created", 0)

        def after(args, kwargs, result, created_before):
            containing = kwargs.get("containing", args[3] if len(args) > 3 else None)
            if containing is None:
                return
            self.count("subspaces.containing.candidates",
                       self.counts.get("subspaces.Subspace.created", 0) - created_before)
            self.count("subspaces.containing.returned", len(result))
        return before, after


def _rebind(namespace, replaced):
    """Replace original functions by their wrappers in a namespace, including
    inside module-level dicts of tuples such as a dispatch table."""
    for attr, obj in list(namespace.items()):
        if inspect.isfunction(obj) and obj in replaced:
            namespace[attr] = replaced[obj]
        elif isinstance(obj, dict):
            for k, v in list(obj.items()):
                if inspect.isfunction(v) and v in replaced:
                    obj[k] = replaced[v]
                elif isinstance(v, tuple) and any(
                        inspect.isfunction(x) and x in replaced for x in v):
                    obj[k] = tuple(replaced.get(x, x) if inspect.isfunction(x) else x
                                   for x in v)
