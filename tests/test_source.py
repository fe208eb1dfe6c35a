import ast
from pathlib import Path

import flagspec

LIBRARY = Path(flagspec.__file__).parent


def _optimisation_dependent_reads(tree: ast.AST):
    """Nodes whose behaviour changes under python -O or -OO: -O drops
    assert statements and sets __debug__ to False, -OO also sets every
    __doc__ to None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node, "assert"
        elif isinstance(node, ast.Name) and node.id in ("__debug__", "__doc__"):
            yield node, node.id
        elif isinstance(node, ast.Attribute) and node.attr == "__doc__":
            yield node, ".__doc__"


def test_library_reads_no_optimisation_dependent_names():
    # with none of these in the library, -O and -OO cannot change what it
    # does, so no verdict, exit code or output depends on the flags
    found = [
        f"{path.relative_to(LIBRARY)}:{node.lineno}: {what}"
        for path in sorted(LIBRARY.rglob("*.py"))
        for node, what in _optimisation_dependent_reads(ast.parse(path.read_text()))
    ]
    assert not found, "\n".join(found)


def test_the_gate_sees_each_kind_of_read():
    source = ("assert x\n"
              "if __debug__:\n    pass\n"
              "first = __doc__.splitlines()[0]\n"
              "doc = f.__doc__\n")
    kinds = [what for _, what in _optimisation_dependent_reads(ast.parse(source))]
    assert sorted(kinds) == [".__doc__", "__debug__", "__doc__", "assert"]
