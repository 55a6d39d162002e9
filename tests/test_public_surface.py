"""Every public name and option in src/gdpakit is used by the surface the
package serves: its own module-level code and click commands, the README,
or the acceptance suite.

A name is reached when a reached body loads it.  A module-level function
or class is reached by a bare or an attribute load of its name, a method
only by an attribute load; names are matched by spelling, not by scope.
The roots are the module-level statements of src/gdpakit, the callbacks of
click commands and groups, the names that tests/test_acceptance.py loads,
and the identifiers in the code spans of README.md (one after a dot counts
as an attribute).  A reached class brings in its class-body statements and
its dunder methods.  A public name that only the README reaches is kept for
a claim of the paper, and the README's "Library layout" table names it.

An option is a public parameter with a default, of a public function or
method or of a public class's ``__init__``.  It is used when a call in a
reached body, in the acceptance suite or in a README code span passes it,
by keyword or by position; calls, too, are matched by spelling.

Matching by spelling over-approximates: a method stays reached whenever a
served class has a method of the same name, though only tests dispatch to
it (``exact_div`` on the number rings, once, because Z[q] has one).  Such
methods are found by tracing the served calls, the README examples, the
acceptance suite and the benchmark workloads, not by this test.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gdpakit"
CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.S)
IDENT = re.compile(r"(\.?)([A-Za-z_]\w*)")


class Def:
    """A module-level function or class, or a method."""

    def __init__(self, node, cls=None):
        self.node, self.cls, self.name = node, cls, node.name
        self.is_method = cls is not None


def _is_command(fn) -> bool:
    """Whether fn is decorated as a click command or group."""
    for dec in fn.decorator_list:
        call = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(call, ast.Attribute) and call.attr in ("command", "group"):
            return True
    return False


def _loads(*nodes):
    """(bare, attrs): the names the subtrees load bare and as attributes."""
    bare, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attrs.add(n.attr)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                bare.add(n.id)
    return bare, attrs


def _definitions():
    """(defs, roots): defs maps the qualified name of each module-level
    function and class, and of each method, to its Def; roots holds the
    module-level statements and command callbacks."""
    defs, roots = {}, []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                defs[f"{mod}.{stmt.name}"] = Def(stmt)
                if _is_command(stmt):
                    roots.append(stmt)
            elif isinstance(stmt, ast.ClassDef):
                defs[f"{mod}.{stmt.name}"] = Def(stmt)
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{mod}.{stmt.name}.{item.name}"] = Def(item, stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.append(stmt)
    return defs, roots


def _body(d: Def) -> list:
    """What reaching d brings in: a function's whole body; a class's
    decorators, bases, class-body statements and dunder methods."""
    if not isinstance(d.node, ast.ClassDef):
        return [d.node]
    c = d.node
    return c.decorator_list + c.bases + [
        s for s in c.body if not isinstance(s, ast.FunctionDef) or s.name.startswith("__")]


def _acceptance():
    return ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))


def _readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _code_span_loads(text):
    """(bare, attrs) of the identifiers in the code spans of text."""
    bare, attrs = set(), set()
    for span in CODE_SPAN.findall(text):
        for dot, word in IDENT.findall(span):
            (attrs if dot else bare).add(word)
    return bare, attrs


def _code_span_trees(text):
    """The code spans of text that parse as Python."""
    for span in CODE_SPAN.findall(text):
        try:
            yield ast.parse(span.strip("`").removeprefix("python\n"))
        except SyntaxError:
            pass


def _reached(defs, bare, attrs) -> set:
    """The qualified names reached from the loads bare and attrs."""
    reached, todo_bare, todo_attrs = set(), set(bare), set(attrs)
    while todo_bare or todo_attrs:
        new = {q for q, d in defs.items() if q not in reached and (
            d.name in todo_attrs or (not d.is_method and d.name in todo_bare))}
        reached |= new
        todo_bare, todo_attrs = _loads(*(n for q in new for n in _body(defs[q])))
    return reached


def _served(defs, roots, with_readme=True):
    bare, attrs = _loads(*roots, _acceptance())
    bare |= {r.name for r in roots if isinstance(r, ast.FunctionDef)}
    if with_readme:
        more_bare, more_attrs = _code_span_loads(_readme())
        bare, attrs = bare | more_bare, attrs | more_attrs
    return _reached(defs, bare, attrs)


def _public(defs):
    return {q for q in defs if not any(p.startswith("_") for p in q.split(".")[1:])}


def test_every_public_name_is_reached():
    defs, roots = _definitions()
    unreached = sorted(_public(defs) - _served(defs, roots))
    assert not unreached, (
        "public names that no src module, click command, README code span or "
        f"tests/test_acceptance.py reaches: {unreached}")


def test_names_kept_for_the_paper_are_in_the_layout_table():
    defs, roots = _definitions()
    readme = _readme()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    mentioned, named = set.union(*_code_span_loads(readme)), set.union(*_code_span_loads(table))
    only_readme = _served(defs, roots) - _served(defs, roots, with_readme=False)
    missing = sorted(q for q in _public(defs) & only_readme
                     if defs[q].name in mentioned and defs[q].name not in named)
    assert not missing, (
        f"public names that only README reaches but its layout table does not name: {missing}")


def _options(defs, q):
    """{parameter name: position} of the options of defs[q], the position
    counting self or cls."""
    node = defs[q].node
    if isinstance(node, ast.ClassDef):
        node = next((s for s in node.body
                     if isinstance(s, ast.FunctionDef) and s.name == "__init__"), None)
        if node is None:
            return {}
    a = node.args
    positional = a.posonlyargs + a.args
    out = {p.arg: i for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)}
    out.update({p.arg: None for p, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None})
    return {p: i for p, i in out.items() if not p.startswith("_")}


def _callees(defs, func, cls):
    """[(qualified name, positional offset)] that a call of func may run:
    defs of the same spelling, a class (or an __init__) standing for the
    class's __init__, and cls inside a method for that method's class."""
    if isinstance(func, ast.Name):
        name, is_attr = func.id, False
        if name == "cls" and cls is not None:
            name = cls.name
    elif isinstance(func, ast.Attribute):
        name, is_attr = func.attr, True
    else:
        return []
    out = []
    for q, d in defs.items():
        if d.name != name or (d.is_method and not is_attr):
            continue
        if d.name == "__init__":
            q = q.rsplit(".", 1)[0]
        static = d.is_method and any(
            isinstance(x, ast.Name) and x.id == "staticmethod" for x in d.node.decorator_list)
        bound = isinstance(d.node, ast.ClassDef) or (d.is_method and not static)
        out.append((q, 1 if bound else 0))
    return out


def _passed(defs, call, cls) -> set:
    """{(qualified name, parameter)} that call passes.  A starred argument
    passes every positional parameter, a ** argument every parameter, and
    functools.partial(f, ...) every parameter of f, as the partial's caller
    passes what it does not bind."""
    out = set()
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name == "partial" and call.args:
        for q, _ in _callees(defs, call.args[0], cls):
            out |= {(q, p) for p in _options(defs, q)}
        return out
    starred = next((i for i, x in enumerate(call.args) if isinstance(x, ast.Starred)), None)
    n_pos = len(call.args) if starred is None else float("inf")
    for q, offset in _callees(defs, call.func, cls):
        for p, i in _options(defs, q).items():
            if (i is not None and i < offset + n_pos) or any(
                    k.arg in (p, None) for k in call.keywords):
                out.add((q, p))
    return out


def test_every_public_option_is_passed():
    defs, roots = _definitions()
    served = _served(defs, roots)
    bodies = [(n, None) for n in [*roots, _acceptance(), *_code_span_trees(_readme())]]
    for q in served:
        d = defs[q]
        bodies += [(n, d.node if isinstance(d.node, ast.ClassDef) else d.cls) for n in _body(d)]
    passed = {p for body, cls in bodies for n in ast.walk(body) if isinstance(n, ast.Call)
              for p in _passed(defs, n, cls)}
    options = {(q, p) for q in _public(defs) & served for p in _options(defs, q)}
    unused = sorted(f"{q}({p}=)" for q, p in options - passed)
    assert not unused, (
        "options that no call in src, a click command, README or "
        f"tests/test_acceptance.py passes: {unused}")
