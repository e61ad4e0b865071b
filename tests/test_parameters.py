"""Every parameter with a default value in ``src/roothk`` is listed here.

A default is a setting some caller may leave out; one that no caller sets is
dead weight.  With this list, a new optional parameter shows up in the same
diff that adds it, next to the caller that sets it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "roothk"

ALLOWED = {
    ("cli", "main", "argv"),
    ("cli", "CheckRecord.__init__", "citation"),
    ("cli", "ReportDocument.add", "citation"),
    ("lattice_tower", "invariant_intermediate_lattices", "reflections"),
}


def _defaulted(tree, module):
    """(module, qualified function name, parameter) for every parameter with a
    default, in functions and lambdas at any depth."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                a = child.args
                positional = a.posonlyargs + a.args
                with_default = positional[len(positional) - len(a.defaults) :]
                with_default += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out.update((module, name, p.arg) for p in with_default)
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _all_defaulted():
    out = set()
    for path in sorted(SRC.glob("*.py")):
        out |= _defaulted(ast.parse(path.read_text()), path.stem)
    return out


def test_defaulted_parameters_are_the_allowlist():
    assert _all_defaulted() == ALLOWED


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(a, b=1, *, c=2, d): pass", {("m", "f", "b"), ("m", "f", "c")}),
        ("class K:\n    def g(self, x=None): pass", {("m", "K.g", "x")}),
        ("def f():\n    def inner(y=0): pass", {("m", "f.inner", "y")}),
        ("key = lambda s, t=3: s", {("m", "<lambda>", "t")}),
        ("def f(a, /, b=1): pass", {("m", "f", "b")}),
    ],
)
def test_the_scan_sees_every_kind_of_default(source, expected):
    assert _defaulted(ast.parse(source), "m") == expected
