"""The package's surface stays small.

Every public module-level function and class, and every public method
and property of a class, has a caller in the program.  A name that only
the tests use is dead weight in the package: it has to be kept in step
with the code that runs, and nothing that runs checks it.  The scan is
textual: a name counts as used when it appears as a word in any Python
file under src/ or bench/ outside the lines of its own definition
(bench/ names the functions it wraps by string).

The number of settable values does not grow (see
test_settable_values_do_not_grow).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "windest"


def _public(nodes):
    return [
        n for n in nodes
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
    ]


def public_definitions():
    """(module path, name, word, first line, last line) of each public
    def/class at module level and each public method or property of a
    class; word is the name that a caller writes."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text()).body):
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in _public(node.body)]
            for name, d in defs:
                first = min([d.lineno] + [x.lineno for x in d.decorator_list])
                out.append((path, name, d.name, first, d.end_lineno))
    return out


def unreferenced_names():
    sources = {
        path: path.read_text().splitlines()
        for folder in (ROOT / "src", ROOT / "bench")
        for path in sorted(folder.rglob("*.py"))
    }
    unused = []
    for def_path, name, word, first, last in public_definitions():
        pattern = re.compile(rf"\b{re.escape(word)}\b")
        used = any(
            pattern.search(line)
            for path, lines in sources.items()
            for lineno, line in enumerate(lines, start=1)
            if not (path == def_path and first <= lineno <= last)
        )
        if not used:
            unused.append(name)
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced_names() == []


# Defaulted parameters plus @dataclass fields in src/windest after the
# last change that moved it.
SETTABLE_VALUES = 161


def _is_dataclass(node):
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def settable_values():
    """Defaulted parameters (functions, methods, lambdas) plus @dataclass
    fields over src/windest."""
    n = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                n += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                n += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return n


def test_settable_values_do_not_grow():
    """Each defaulted parameter or dataclass field is a value some caller
    may set, so it has to work at every setting.  A value no caller sets
    belongs in a constant.

    To add one anyway, raise SETTABLE_VALUES by the number added and say
    in the change's description which caller sets each new value and why
    a constant will not do.  When a change removes some, lower the number
    to the new count so the ratchet holds there.
    """
    assert settable_values() <= SETTABLE_VALUES
