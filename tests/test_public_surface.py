"""Every public name in src/gdpakit is reached from the surface the package
serves: its own module-level code and click commands, the README, or the
acceptance suite.

A name is reached when a reached body loads it, as a bare name or as an
attribute; names are matched by spelling, not by scope, so a method is
reached by any load of its name.  The roots are the
module-level statements of src/gdpakit, the callbacks of click commands
and groups, every name token of tests/test_acceptance.py, and every
identifier in a code span of README.md.  A reached class brings in its
class-body statements and its dunder methods.  A public name that only the
README reaches is kept for a claim of the paper, and the README's
"Library layout" table names it.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gdpakit"
IDENT = re.compile(r"[A-Za-z_]\w*")
CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _is_command(fn) -> bool:
    """Whether fn is decorated as a click command or group."""
    for dec in fn.decorator_list:
        call = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(call, ast.Attribute) and call.attr in ("command", "group"):
            return True
    return False


def _names(node) -> set:
    """The names a subtree loads: bare names and attribute names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
    return out


def _definitions():
    """(defs, roots): defs maps the qualified name of each module-level
    function and class, and of each method, to (its name, the names its body
    loads); roots holds the names that module-level statements and command
    callbacks load."""
    defs, roots = {}, set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                defs[f"{mod}.{stmt.name}"] = (stmt.name, _names(stmt))
                if _is_command(stmt):
                    roots |= _names(stmt) | {stmt.name}
            elif isinstance(stmt, ast.ClassDef):
                body = set().union(*map(_names, stmt.decorator_list + stmt.bases))
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defs[f"{mod}.{stmt.name}.{item.name}"] = (item.name, _names(item))
                    else:
                        body |= _names(item)
                defs[f"{mod}.{stmt.name}"] = (stmt.name, body)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    return defs, roots


def _acceptance_names():
    src = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    return {t.string for t in tokenize.generate_tokens(io.StringIO(src).readline)
            if t.type == tokenize.NAME}


def _code_span_names(text):
    return {w for span in CODE_SPAN.findall(text) for w in IDENT.findall(span)}


def _reached(defs, roots) -> set:
    """The qualified names reached from the names in roots."""
    reached, todo = set(), set(roots)
    while todo:
        name = todo.pop()
        for q, (n, body) in defs.items():
            if n == name and q not in reached:
                reached.add(q)
                todo |= body
    return reached


def _readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _layout_table(text):
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return "\n".join(line for line in section.splitlines() if line.startswith("|"))


def _public(defs):
    return {q for q in defs if not any(p.startswith("_") for p in q.split(".")[1:])}


def test_every_public_name_is_reached():
    defs, roots = _definitions()
    roots |= _acceptance_names() | _code_span_names(_readme())
    unreached = sorted(_public(defs) - _reached(defs, roots))
    assert not unreached, (
        "public names that no src module, click command, README code span or "
        f"tests/test_acceptance.py reaches: {unreached}")


def test_names_kept_for_the_paper_are_in_the_layout_table():
    defs, roots = _definitions()
    served = _reached(defs, roots | _acceptance_names())
    readme = _readme()
    mentioned, named = _code_span_names(readme), _code_span_names(_layout_table(readme))
    missing = sorted(q for q in _public(defs) - served
                     if defs[q][0] in mentioned and defs[q][0] not in named)
    assert not missing, (
        f"public names that only README reaches but its layout table does not name: {missing}")
