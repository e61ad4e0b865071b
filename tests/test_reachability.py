"""Every function and method in ``src/roothk`` is run by some command, and
every record field is read by the package.

The commands below run in this process under ``sys.setprofile``.  Each
module-level function and each method, dunders included, defined in
``src/roothk/*.py`` must have been called, or be listed in ``UNREACHED``
with its reason.

``sys.setprofile`` does not see a NamedTuple field being read, so fields are
checked on the source instead.  A field is a NamedTuple field, a property or
a key that an ``__init__`` passes to ``vars(self).update``.  It counts as
read if some attribute load anywhere in ``src/roothk`` has its name.  The
match is by name only, so a field shares its readers with every attribute of
the same name.  Fields no load reads are listed in ``UNREAD`` with the item
that will read them.

Code that only tests reach shows up here in the diff that leaves it behind.
"""

import ast
import sys
from pathlib import Path

import pytest

import roothk
from roothk.cli import main

SRC = Path(roothk.__file__).resolve().parent

# Each command with its exit code.
COMMANDS = (
    (["report"], 0),
    (["report", "--format", "tsv"], 0),
    (["analyze", "A", "3", "--lattice", "index:1"], 0),
    (["analyze", "A", "3", "--lattice", "index:x"], 2),
    (["analyze", "E", "8"], 0),
    (["lemma-check", "--max-rank", "3"], 0),
    (["sublattices", "B", "3"], 0),
    (["sublattices", "D", "4"], 0),
    (["sublattices", "A", "1000000"], 1),
    (["sublattices", "D", "1000000"], 2),
)

UNREACHED = {
    # bench/spans.py reads it to count the elements of a traced group.
    ("weyl", "WeylGroup.element_count"),
    # The process entry point; test_console_script_and_module_freeze_before_exit runs it.
    ("cli", "run"),
    # They exist to raise; test_records exercises them.
    ("exact_linalg", "Frozen.__setattr__"),
    ("exact_linalg", "Frozen.__delattr__"),
    # Diagnostics; test_records pins the spec's repr.
    ("exact_linalg", "IntMatrix.__repr__"),
    ("root_data", "RootSystemSpec.__repr__"),
    ("root_data", "RootDatum.__repr__"),
    # The tests' reference computations: Reynolds sums, duplicate-free
    # element sets, and tests/_rational.py, which reads any matrix as rows.
    ("exact_linalg", "IntMatrix.__add__"),
    ("exact_linalg", "IntMatrix.__hash__"),
    ("exact_linalg", "IntMatrix.__iter__"),
}

UNREAD = {
    # ROADMAP item 5: the freeness pass checks its trace histogram.
    ("hk_analysis", "FreenessCheck.reflections"),
    # ROADMAP item 10: the fixed-locus rows.
    ("hk_analysis", "FixedLocusEntry.fix_dim"),
    ("hk_analysis", "FixedLocusEntry.codim_doubled"),
    ("hk_analysis", "FixedLocusEntry.component_invariant_factors"),
}


def _defined(src):
    """(module, qualified name) of every module-level function and of every
    method of a module-level class."""
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
                )
    return out


def _fields(src):
    """(module, class.field) of every record field of a module-level class:
    its NamedTuple fields, its properties and the keyword names of the
    ``vars(self).update`` calls in its ``__init__``."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = []
            if any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases):
                names += [item.target.id for item in cls.body if isinstance(item, ast.AnnAssign)]
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list):
                    names.append(item.name)
                if item.name == "__init__":
                    names += [
                        kw.arg
                        for call in ast.walk(item)
                        if isinstance(call, ast.Call) and ast.unparse(call.func) == "vars(self).update"
                        for kw in call.keywords
                    ]
            out.update((path.stem, f"{cls.name}.{name}") for name in names)
    return out


def _loaded_attributes(src):
    """The name of every attribute that some expression in ``src`` loads."""
    return {
        node.attr
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _called(monkeypatch, capsys):
    """(module, qualified name) of every function in ``src/roothk`` that the
    commands call, from a cold start: the package's caches are emptied
    first, since a cached call never enters its function."""
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
        for argv, code in COMMANDS:
            assert main(argv) == code, argv
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


def test_every_record_field_in_src_is_read():
    fields = _fields(SRC)
    loaded = _loaded_attributes(SRC)
    assert UNREAD <= fields
    assert not {f for f in UNREAD if f[1].split(".")[1] in loaded}
    unread = sorted(f for f in fields - UNREAD if f[1].split(".")[1] not in loaded)
    assert not unread, f"nothing in src reads {unread}"


def test_the_scan_sees_functions_methods_and_inits(tmp_path):
    source = (
        "from typing import NamedTuple\n"
        "def f(): pass\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        vars(self).update(a=1)\n"
        "    def __eq__(self, other): pass\n"
        "    @property\n"
        "    def p(self): pass\n"
        "    def _m(self):\n"
        "        def inner(): pass\n"
        "        return self.a.p\n"
        "class T(NamedTuple):\n"
        "    x: int\n"
        "    y: int = 0\n"
        "T(1).x\n"
        "T(1).y = 2\n"
    )
    (tmp_path / "mod.py").write_text(source)
    assert _defined(tmp_path) == {
        ("mod", "f"),
        ("mod", "K.__init__"),
        ("mod", "K.__eq__"),
        ("mod", "K.p"),
        ("mod", "K._m"),
    }
    assert _fields(tmp_path) == {("mod", "K.a"), ("mod", "K.p"), ("mod", "T.x"), ("mod", "T.y")}
    # T.y is only stored, never loaded.
    assert _loaded_attributes(tmp_path) == {"a", "p", "update", "x"}
