"""Static checks on the library source."""

import ast
import pathlib

from glfq import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "glfq"


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
