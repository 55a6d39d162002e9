"""Benchmark-side tracing of gdpakit, installed from outside the package.

Two kinds of wrapper, never installed together and never in an untraced run:

* span wrappers around every public function and method of the seven
  package modules (and every module-level copy of one made by
  ``from .x import f``), recording name, start, end, parent span and item;
* counting wrappers around the hot ring operations and a few functions whose
  arguments or results give a size (SNF shapes and entry bits, slice cells,
  generator counts).  Ring operations run millions of times per item, so
  they are counted in a pass of their own rather than timed as spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction

MODULES = (
    "coeff_rings",
    "pi_core",
    "gdpa",
    "graded_modules",
    "resolutions_k",
    "coherence_lab",
    "cli",
)
RING_OPS = ("canon", "is_zero", "add", "mul")
RING_KINDS = {
    "IntegerRing": "ZZ",
    "PLocalRing": "Zloc",
    "IntegersModRing": "Zmod",
    "RationalField": "QQ",
    "IntPolyRing": "ZPOLY",
}
# constructors that are timed although they are not public names
TRACED_INITS = {"AlgebraContext"}
# O(1) primitives run millions of times per pass: a span around each would
# cost more than the call itself, so their time stays in the caller's span
UNSPANNED = {
    "pi_core.carry",
    "pi_core.PiSequence.pi",
    "gdpa.AlgebraContext.C",
    "gdpa.GdpaElement.coeff",
    "graded_modules.FreeGradedModule.basis",
    "coeff_rings.SpanReducer.reduce",
}


def _modules():
    return [importlib.import_module(f"gdpakit.{m}") for m in MODULES]


def slots():
    """Every place a public gdpakit callable is bound, as
    [(owner, attribute, raw object, span name, is ring op)].

    The owner is a module, a class or a click command (whose ``callback``
    is the command function); the raw object is what ``vars(owner)`` holds."""
    import click
    from gdpakit.coeff_rings import Ring

    out = []
    for mod in _modules():
        for name, val in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(val) and val.__module__.startswith("gdpakit."):
                out.append((mod, name, val, f"{val.__module__[8:]}.{val.__qualname__}", False))
            elif isinstance(val, click.Command) and inspect.isfunction(val.callback):
                fn = val.callback
                out.append((val, "callback", fn, f"cli.{fn.__name__}", False))
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                ring = issubclass(val, Ring)
                for attr, raw in list(vars(val).items()):
                    public = not attr.startswith("_") or (
                        attr == "__init__" and val.__name__ in TRACED_INITS
                    )
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if public and inspect.isfunction(fn):
                        name_ = f"{mod.__name__[8:]}.{val.__name__}.{attr}"
                        out.append((val, attr, raw, name_, ring))
    return out


def snapshot():
    """{(id(owner), attribute): raw object} of every slot, for identity checks."""
    return {(id(o), a): raw for o, a, raw, _, _ in slots()}


def rebound_since(snap) -> list:
    """Slots whose bound object is no longer the one in ``snap``."""
    now = snapshot()
    return [k for k in snap.keys() | now.keys() if now.get(k) is not snap.get(k)]


def _rebind(raw, fn):
    if isinstance(raw, classmethod):
        return classmethod(fn)
    if isinstance(raw, staticmethod):
        return staticmethod(fn)
    return fn


def _unwrap(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


class _Installer:
    """Installs one wrapper per original function into all of its slots."""

    def __init__(self):
        self._saved = []

    def install(self, targets, make_wrapper):
        wrappers = {}
        for owner, attr, raw, name, _ in targets:
            fn = _unwrap(raw)
            if id(fn) not in wrappers:
                w = make_wrapper(fn, name)
                w.__wrapped__ = fn
                wrappers[id(fn)] = w
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, _rebind(raw, wrappers[id(fn)]))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


class SpanTracer(_Installer):
    """Spans around every public callable except ring operations and the
    primitives in UNSPANNED.

    Span i is (names[name[i]], start[i], end[i], parent[i], item[i]); the
    parent is the index of the enclosing span, or -1.  Spans are kept in
    flat arrays, about 30 bytes each, and written out by ``write``."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item_of = array("i")
        self.stack: list[int] = []
        self.item = -1

    def __len__(self):
        return len(self.start)

    def install_all(self):
        self.install([s for s in slots() if not s[4] and s[3] not in UNSPANNED], self._make)

    def _make(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        names, start, end, parent, item_of = (
            self.name, self.start, self.end, self.parent, self.item_of)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            i = len(start)
            names.append(idx)
            parent.append(stack[-1] if stack else -1)
            item_of.append(tracer.item)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return span

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            f.write("span\tname\tstart\tend\tparent\titem\n")
            for i in range(len(self)):
                f.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.item_of[i]}\n")

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        n = len(self)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += d
            self_s[name] += d - child[i]
        return calls, total, self_s

    def name_of(self, i):
        return self.names[self.name[i]]

    def ancestors(self, i):
        p = self.parent[i]
        while p >= 0:
            yield self.names[self.name[p]]
            p = self.parent[p]


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, (tuple, list)):
        return max((_bits(y) for y in x), default=0)
    return 0


def _matrix_bits(m) -> int:
    return max((_bits(x) for row in m.entries for x in row), default=0)


def _snf(c, args, result):
    m = args[0]
    c["snf_cells"] += m.rows * m.cols
    c["snf_max_rows"] = max(c["snf_max_rows"], m.rows)
    c["snf_max_cols"] = max(c["snf_max_cols"], m.cols)
    bits = max(_matrix_bits(x) for x in (m, *result))
    c["snf_max_entry_bits"] = max(c["snf_max_entry_bits"], bits)


def _c_binomial(c, args, result):
    pi, n, m = args[:3]
    c["c_binomial_calls"] += 1
    # keyed by the pi object itself, as the memo in it is
    c["c_binomial_repeats"] += (pi, n, m) in c.seen
    c.seen.add((pi, n, m))


# span name -> hook(counts, positional args, result)
_HOOKS = {
    "coeff_rings.smith_normal_form": _snf,
    "coeff_rings.solve_columns": lambda c, a, r: c.update(solve_columns_cols=a[1].cols),
    "pi_core.c_binomial": _c_binomial,
    "pi_core.PiSequence.pi": lambda c, a, r: c.update(pi_calls=1),
    "gdpa.GdpaElement.mul": lambda c, a, r: c.update(element_mul_calls=1),
    "graded_modules.ModuleMap.slice": lambda c, a, r: c.update(slice_cells=r.rows * r.cols),
    "graded_modules.SubmoduleGenerators.generator_slice_vectors": (
        lambda c, a, r: c.update(gsv_vectors=len(r))
    ),
    "graded_modules.syzygy_generators": lambda c, a, r: c.update(generators_found=len(r.generators)),
    "resolutions_k.minimal_image_generators": (
        lambda c, a, r: c.update(generators_found=len(r.generators))
    ),
    "coherence_lab.t1_bound_check": lambda c, a, r: c.update(horizon_sum=r.horizon),
}


class _Counts(Counter):
    def __init__(self):
        super().__init__()
        self.seen = set()


class OpCounter(_Installer):
    """Counts ring operations by ring kind, and sizes seen at a few calls."""

    def __init__(self):
        super().__init__()
        self.counts = _Counts()

    def install_all(self):
        targets = [
            s for s in slots()
            if (s[4] and s[1] in RING_OPS) or (not s[4] and s[3] in _HOOKS)
        ]
        self.install(targets, self._make)

    def _make(self, fn, name):
        counts = self.counts
        hook = _HOOKS.get(name)
        if hook is None:  # a ring operation
            op = name.rsplit(".", 1)[1]
            keys = {cls: f"{op}_calls.{kind}" for cls, kind in RING_KINDS.items()}

            def counted(ring, *args, **kwargs):
                counts[keys.get(type(ring).__name__, f"{op}_calls.other")] += 1
                return fn(ring, *args, **kwargs)

            return counted

        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, result)
            return result

        return hooked
