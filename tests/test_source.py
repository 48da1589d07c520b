"""Static checks on the library source."""

import ast
import pathlib
import re

from glfq import cli

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "glfq"


def test_library_has_no_assert_statements():
    # every check in the library is an explicit raise, so none of them
    # vanishes under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_lines_fit_in_100_columns():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = ["%s:%d" % (path.name, i)
             for path in paths
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if len(line) > 100]
    assert found == []


def test_every_parameter_is_read():
    # a parameter that no line of its function reads is a dead flag; the
    # verify suites share one dispatch signature and are exempt
    suites = {fn.__name__ for fn, *_ in cli._SUITES.values()}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (not isinstance(node, (ast.FunctionDef, ast.Lambda))
                    or getattr(node, "name", None) in suites):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += ["%s:%d %s" % (path.name, node.lineno, p) for p in params if p not in read]
    assert found == []


def test_every_imported_name_is_read():
    # an import that no line of its module reads is dead weight, in the
    # library and in the tests alike
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += ["%s:%d %s" % (path.name, node.lineno, name)
                  for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                  for name in (a.asname or a.name.split(".")[0] for a in node.names)
                  if name not in read]
    assert found == []


def test_every_memo_limit_states_its_measured_traffic():
    # a memo's limit is sized from the traffic it was measured on, so the
    # comment right above each @memo(limit=...) gives that measurement
    limits, found = 0, []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.lstrip().startswith("@memo(limit="):
                continue
            limits += 1
            top = i
            while top and lines[top - 1].lstrip().startswith("#"):
                top -= 1
            comment = " ".join(lines[top:i])
            if "measured" not in comment.lower() or not re.search(r"\d", comment):
                found.append("%s:%d" % (path.name, i + 1))
    assert limits >= 5
    assert found == []


def test_cli_caps_only_its_suite_totals_and_answer_bits():
    # every enumerating route refuses itself at its entry; the CLI checks
    # only sums over a verify suite's own pairs or laws, and the bits of a
    # closed form's answer
    owners = {"_unit_pairs", "_suite_ranklaw", "_suite_phi", "_check_answer_bits"}
    tree = ast.parse((SRC / "cli.py").read_text())
    found, calls = [], 0
    for fn in tree.body:
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "check_work"):
                calls += 1
                if getattr(fn, "name", None) not in owners:
                    found.append("cli.py:%d" % node.lineno)
    assert calls == len(owners)
    assert found == []


# Traced by perfbench/tracer.py, which reads them by name, and called by no
# library function: they stay in the library until the benchmark's tracer
# list changes.
TRACED_WITHOUT_CALLER = {"center.transport", "partial_iso.canonical_piso",
                         "partial_iso._invariant_product_orbits"}


def test_every_library_function_has_a_library_caller():
    # a function or method that only the tests call belongs in tests/;
    # dunder methods and the traced functions above are exempt, and a
    # function's own body does not count as its caller.  A method is
    # reached only through an attribute, so a local variable of the same
    # name does not count as its caller.
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    names, attrs = {}, {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.setdefault(n.id, []).append(id(n))
            elif isinstance(n, ast.Attribute):
                attrs.setdefault(n.attr, []).append(id(n))
    found = set()
    for mod, tree in trees.items():
        defs = [(node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(item, True) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, ast.FunctionDef)]
        for fn, is_method in defs:
            if fn.name.startswith("__"):
                continue
            refs = attrs.get(fn.name, []) + ([] if is_method else names.get(fn.name, []))
            inside = {id(n) for n in ast.walk(fn)}
            if all(i in inside for i in refs):
                found.add("%s.%s" % (mod, fn.name))
    # each exemption still lacks a caller, and nothing else does
    assert found == TRACED_WITHOUT_CALLER
    tracer = (SRC.parent.parent / "perfbench" / "tracer.py").read_text()
    assert all('"%s"' % name in tracer for name in TRACED_WITHOUT_CALLER)


def test_only_conjtype_builds_the_unipotent_label():
    # conjtype owns the (X-1) block: Polypartition.unipotent and
    # with_unipotent read and write it, and no other module builds the
    # label X - 1 as linear_poly(ctx, 1)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "conjtype":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "linear_poly"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == 1):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
