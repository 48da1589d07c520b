"""Static checks on the library source."""

import ast
import pathlib

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
