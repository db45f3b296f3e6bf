"""Spans and counters recorded around the library's public functions.

Only the traced run installs these wrappers; the untraced run times the
library as it is.  A wrapper is installed where callers look the function
up: on the class for methods, and under every module-level name that
refers to the function in the ``fullshift`` modules (for example both
``sft.canonicalize_clopen`` and ``tables.canonicalize_clopen``).  The
wrappers record only while ``Tracer.active`` is set, which the benchmark
does around each instance's run, so input generation and output checks are
never traced.

A span records its name, start, end, parent span and instance id.  Spans
live in flat arrays in memory and are written out when the run ends.  The
hot leaves (``extensions``, ``EPPoint.make``, ``words``) get counters only;
the time spent in ``words`` is charged to the enclosing span so that its
self time stays exact.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import fullshift
import fullshift.cli as cli
import fullshift.constructions as cons
import fullshift.invariants as inv
import fullshift.sft as sft
import fullshift.tables as tables

MODULES = (fullshift, sft, tables, cons, inv, cli)

BUILDS = (
    "involution_into", "swap_involution", "cylinder_involution", "clopen_transport",
    "paired_transport", "minimality_witness", "free_pair", "localize_conjugate",
)
PATHS = ("connect_path", "first_return", "distinct_path_pair")


class Tracer:
    def __init__(self):
        self.active = False
        self.instance = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.inst = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.last_compose_entries = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self.instance)
        self.leaf.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def charge_leaf(self, seconds: float) -> None:
        if self._stack:
            self.leaf[self._stack[-1]] += seconds

    def span_count(self) -> int:
        return len(self.start)

    def write(self, stem) -> None:
        """Write ``<stem>.json`` (names, counters, column layout) and
        ``<stem>.bin``: the columns name, parent, instance (int32) then
        start, end, leaf (float64, seconds), one after another."""
        stem = str(stem)
        columns = (self.name, self.parent, self.inst, self.start, self.end, self.leaf)
        with open(stem + ".bin", "wb") as out:
            for column in columns:
                column.tofile(out)
        layout = {
            "spans": len(self.start),
            "columns": ["name:int32", "parent:int32", "instance:int32",
                        "start:float64", "end:float64", "leaf_s:float64"],
            "names": self.names,
            "counters": dict(self.counters),
        }
        with open(stem + ".json", "w") as out:
            json.dump(layout, out, indent=1)

    def totals(self):
        """Per span name: (calls, self seconds, inclusive seconds)."""
        return span_totals(self.names, self.name, self.parent, self.start, self.end, self.leaf)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, orig, wrapper, modules=MODULES):
        """Replace every module-level name bound to orig."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr, make_wrapper):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(make_wrapper(raw.__func__)))
        else:
            self._set(cls, attr, make_wrapper(raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def span_totals(names, name, parent, start, end, leaf):
    """Calls, self time and inclusive time per span name.

    Self time is a span's duration minus the part of it covered by its
    child spans (each clipped to the parent's interval) and minus the leaf
    time charged to it.  Spans of one thread nest, so children of one span
    never overlap and their clipped durations add up to the covered part.
    """
    n = len(start)
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            lo, hi = max(start[i], start[p]), min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
    out: dict[str, list[float]] = {}
    for i in range(n):
        dur = end[i] - start[i]
        row = out.setdefault(names[name[i]], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur - covered[i] - leaf[i]
        row[2] += dur
    return {k: tuple(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# wrappers


def _span(tracer, label, orig, post=None, pre=None):
    nid = tracer.name_id(label)

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return orig(*args, **kwargs)
        if pre is not None:
            args, kwargs = pre(args, kwargs)
        idx = tracer.open(nid)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(idx)
        if post is not None:
            post(args, kwargs, result)
        return result

    wrapper.__wrapped__ = orig
    return wrapper


def install(tracer: Tracer) -> None:
    """Install every wrapper; undo with ``tracer.uninstall()``."""
    c = tracer.counters

    def add(key, n):
        c[key] += n

    def span_fn(module, attr, label, **hooks):
        orig = getattr(module, attr)
        tracer.patch_function(orig, _span(tracer, label, orig, **hooks))

    def span_method(cls, attr, label, **hooks):
        tracer.patch_method(cls, attr, lambda orig: _span(tracer, label, orig, **hooks))

    # sft
    def words_in(args, kwargs):
        raw = list(args[1])
        add("sft.canonicalize_clopen.words_in", len(raw))
        return (args[0], raw) + args[2:], kwargs

    span_fn(sft, "canonicalize_clopen", "sft.canonicalize_clopen", pre=words_in)
    for attr in PATHS:
        span_fn(sft, attr, "sft.paths")
    _install_leaves(tracer)

    # tables
    def compose_post(args, kwargs, result):
        tracer.last_compose_entries = len(result.entries)
        add("tables.compose.entries_out", len(result.entries))

    span_method(tables.TableMap, "compose", "tables.compose", post=compose_post)

    order_orig = tables.TableMap.order
    default_cap = inspect.signature(order_orig).parameters["entry_cap"].default

    def order_pre(args, kwargs):
        tracer.last_compose_entries = 0
        return args, kwargs

    def order_post(args, kwargs, result):
        cap = args[2] if len(args) > 2 else kwargs.get("entry_cap", default_cap)
        add("tables.order.capped", result is None and tracer.last_compose_entries > cap)

    span_method(tables.TableMap, "order", "tables.order", pre=order_pre, post=order_post)
    span_method(
        tables.TableMap, "refine_to", "tables.refine_to",
        post=lambda a, k, r: add("tables.refine_to.entries_out", len(r.entries)),
    )
    for attr in ("reduce", "inverse", "support_and_fixed", "image_clopen"):
        span_method(tables.TableMap, attr, f"tables.{attr}")
    span_fn(
        tables, "validate_table", "tables.validate_table",
        post=lambda a, k, r: add("tables.validate_table.entries_in", len(a[1])),
    )

    # constructions
    for attr in BUILDS:
        span_fn(cons, attr, "constructions.build")
    span_method(tables.TableMap, "split_invariant", "constructions.build")
    for attr in sorted(vars(cons)):
        if attr.startswith("check_"):
            span_fn(cons, attr, "constructions.check")
    _install_search(tracer)

    # invariants
    span_fn(inv, "smith_normal_form", "invariants.smith_normal_form")
    span_fn(
        inv, "pointed_iso_decide", "invariants.pointed_iso_decide",
        post=lambda a, k, r: add("invariants.pointed_iso_decide.undecided",
                                 r.verdict == "undecided"),
    )
    span_fn(inv, "_torsion_match", "invariants.orbit")
    span_fn(inv, "gamma_equivalent", "invariants.gamma_equivalent")

    # cli
    span_fn(cli, "run", "cli.run")
    span_fn(cli, "_build_parser", "cli.parse")
    span_method(argparse.ArgumentParser, "parse_args", "cli.parse")
    span_method(cli.Report, "emit", "cli.format")
    for attr in ("format_table_text", "format_clopen_text"):
        orig = getattr(cli, attr)
        tracer.patch_function(orig, _span(tracer, "cli.format", orig), modules=(cli,))


def _install_leaves(tracer: Tracer) -> None:
    c = tracer.counters
    matrix_cls = sft.TransitionMatrix

    def make_words(orig):
        def words(self, k):
            if not tracer.active:
                return orig(self, k)
            t0 = perf_counter()
            result = orig(self, k)
            dt = perf_counter() - t0
            tracer.charge_leaf(dt)
            c["sft.words.calls"] += 1
            c["sft.words.self_s"] += dt
            return result
        return words

    def make_extensions(orig):
        code = orig.__code__

        def counted(gen):
            n = 0
            try:
                for w in gen:
                    n += 1
                    yield w
            finally:
                c["sft.extensions.words"] += n

        def extensions(self, word, target_len):
            gen = orig(self, word, target_len)
            # the generator's own recursive calls are counted by the outermost one
            if not tracer.active or sys._getframe(1).f_code is code:
                return gen
            return counted(gen)
        return extensions

    def make_point(orig):
        def make(pre, per):
            if tracer.active:
                c["sft.EPPoint.make.calls"] += 1
            return orig(pre, per)
        return make

    tracer.patch_method(matrix_cls, "words", make_words)
    tracer.patch_method(matrix_cls, "extensions", make_extensions)
    tracer.patch_method(sft.EPPoint, "make", make_point)


def _install_search(tracer: Tracer) -> None:
    """Span the bounded search and each table it hands to its visitor.

    ``_run_search`` is private, but it is the one place where both
    ``witness_search`` and ``gamma_equivalent`` enumerate tables, so it is
    where tables visited and predicate time can be measured from outside.
    """
    c = tracer.counters
    visit_id = tracer.name_id("constructions.search.visit")
    orig = cons._run_search

    def traced_visit(visit):
        def wrapped(table):
            idx = tracer.open(visit_id)
            try:
                result = visit(table)
            finally:
                tracer.close(idx)
            c["constructions.search.tables_visited"] += 1
            c["constructions.search.hits"] += result is not None
            return result
        return wrapped

    def pre(args, kwargs):
        if "visit" in kwargs:
            kwargs = dict(kwargs, visit=traced_visit(kwargs["visit"]))
        else:
            args = args[:3] + (traced_visit(args[3]),) + args[4:]
        return args, kwargs

    tracer.patch_function(orig, _span(tracer, "constructions.search", orig, pre=pre))
