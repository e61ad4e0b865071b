"""Every function and method in ``src/roothk`` is run by some command.

The commands below run in this process, with ``os.fork`` removed so that
``report``'s worker rows run inline, under ``sys.setprofile``.  Each
module-level function, each non-dunder method and each class's ``__init__``
defined in ``src/roothk/*.py`` must have been called, or be listed in
``UNREACHED`` with its reason.  Code that only tests call shows up here in
the diff that leaves it behind.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

import roothk
from roothk.cli import main

SRC = Path(roothk.__file__).resolve().parent

COMMANDS = (
    ["report"],
    ["report", "--format", "tsv"],
    ["analyze", "A", "3", "--lattice", "index:1"],
    ["analyze", "E", "8"],
    ["lemma-check", "--max-rank", "3"],
    ["sublattices", "B", "3"],
    ["sublattices", "D", "4"],
)

UNREACHED = {
    # bench/spans.py reads it to count the elements of a traced group.
    ("weyl", "WeylGroup.element_count"),
    # Raised only past _DISC_CAP, a discriminant group of a million elements.
    ("errors", "DiscriminantTooLargeError.__init__"),
    # The process entry point; test_console_script_and_module_freeze_before_exit runs it.
    ("cli", "run"),
}


def _defined(src):
    """(module, qualified name) of every module-level function, and of every
    method of a module-level class that is ``__init__`` or not a dunder."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out.add((path.stem, node.name))
            elif isinstance(node, ast.ClassDef):
                out.update(
                    (path.stem, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and (item.name == "__init__" or not item.name.startswith("__"))
                )
    return out


def _called(monkeypatch, capsys):
    """(module, qualified name) of every function in ``src/roothk`` that the
    commands call, from a cold start: the package's caches are emptied
    first, since a cached call never enters its function."""
    monkeypatch.delattr(os, "fork")
    for name, module in list(sys.modules.items()):
        if name.startswith("roothk."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    paths = {c.co_filename: Path(c.co_filename).resolve() for c in codes}
    return {(paths[c.co_filename].stem, c.co_qualname) for c in codes if paths[c.co_filename].parent == SRC}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_every_function_in_src_is_run_by_a_command(monkeypatch, capsys):
    defined = _defined(SRC)
    called = _called(monkeypatch, capsys)
    assert UNREACHED <= defined
    assert not UNREACHED & called
    missing = sorted(defined - called - UNREACHED)
    assert not missing, f"no command calls {missing}"


def test_the_scan_sees_functions_methods_and_inits(tmp_path):
    source = (
        "def f(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "    @property\n"
        "    def p(self): pass\n"
        "    def _m(self):\n"
        "        def inner(): pass\n"
    )
    (tmp_path / "mod.py").write_text(source)
    assert _defined(tmp_path) == {("mod", "f"), ("mod", "K.__init__"), ("mod", "K.p"), ("mod", "K._m")}
