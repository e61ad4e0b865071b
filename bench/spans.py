"""Span recording around the public functions of roothk's modules.

A :class:`Tracer` wraps every public function of the seven layer modules
where callers look it up: the defining module's global, and every other
``roothk`` module (or the package) that imported the same object by name.
Intra-module calls go through module globals too, so they are covered.
Spans nest by call order on a single thread; each records its name, layer,
start and end (``time.perf_counter_ns``, integer nanoseconds, so
the span arithmetic is exact), parent span and invocation id,
plus counts taken from the call's arguments and result at the same boundary.

Nothing under ``src/`` is changed: the wrappers are installed for the
duration of a ``with installed(tracer):`` block and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Module of src/roothk -> span-name prefix.  The prefixes are the layer names
# used by the per-layer metrics.
LAYERS = {
    "exact_linalg": "linalg",
    "root_data": "root",
    "weyl": "weyl",
    "invariant_theory": "inv",
    "lattice_tower": "tower",
    "hk_analysis": "hk",
    "cli": "cli",
}

TOWER_ROOTS = frozenset({"tower.invariant_intermediate_lattices", "tower.bc_tower"})
REP_BUILDERS = frozenset({"inv.rep_double", "inv.rep_sym2", "inv.rep_wedge2"})


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    invocation: int
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_json(self) -> dict:
        return asdict(self)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_group(args, kwargs, group):
    n = group.rank
    return {"elements": group.element_count(), "array_bytes": group.order * n * n}


def _count_freeness(args, kwargs, check):
    group = _arg(args, kwargs, 0, "group")
    return {"elements": group.order if check.status == "verified" else 0}


def _count_invariant_rows(args, kwargs, result):
    rep = _arg(args, kwargs, 0, "rep")
    return {"kernel_rows": len(rep.generator_images) * rep.dim}


def _count_commutant_rows(args, kwargs, result):
    # The commutant system has dim^2 rows per generator.
    rep = _arg(args, kwargs, 0, "rep")
    return {"kernel_rows": len(rep.generator_images) * rep.dim * rep.dim}


def _count_lattices(args, kwargs, report):
    return {"lattices": len(report.lattices)}


COUNTERS = {
    "weyl.generate_group": _count_group,
    "hk.freeness_codim_check": _count_freeness,
    "inv.invariant_dim": _count_invariant_rows,
    "inv.irreducibility_check": _count_commutant_rows,
    "tower.invariant_intermediate_lattices": _count_lattices,
    "tower.bc_tower": _count_lattices,
}


class Tracer:
    """Collects spans in memory; set ``invocation`` before each top-level call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                name=name,
                start=0,
                end=0,
                parent=self._stack[-1] if self._stack else None,
                invocation=self.invocation,
            )
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
            # A span around a generator function would close before the work.
            and not inspect.isgeneratorfunction(obj)
        ):
            yield attr, obj


@contextmanager
def installed(tracer: Tracer):
    """Wrap the public functions of every layer module while the block runs."""
    package = importlib.import_module("roothk")
    modules = {name: importlib.import_module(f"roothk.{name}") for name in LAYERS}
    wrappers = {}  # id(original) -> (original, wrapper)
    for name, module in modules.items():
        for attr, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{LAYERS[name]}.{attr}", fn))

    patches = []  # (namespace, attribute, original)
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((namespace, attr, obj))
    report_doc = modules["cli"].ReportDocument
    wrappers[id(report_doc.render)] = (report_doc.render, tracer.wrap("cli.render", report_doc.render))
    patches.append((report_doc, "render", report_doc.render))
    try:
        for namespace, attr, original in patches:
            setattr(namespace, attr, wrappers[id(original)][1])
        yield tracer
    finally:
        for namespace, attr, original in reversed(patches):
            setattr(namespace, attr, original)


# --- span arithmetic ------------------------------------------------------------


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, ()), s.start, s.end) for s in spans}


def busy(spans: list[Span], names) -> int:
    """Time during which at least one span named in ``names`` was open.

    Spans nest, so this is the summed duration of the spans in ``names`` that
    have no ancestor in ``names``.
    """
    return sum(s.duration for s in outermost(spans, names))


def outermost(spans: list[Span], names) -> list[Span]:
    names = frozenset(names)
    by_id = {s.id: s for s in spans}
    found = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            found.append(s)
    return found


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``.s`` metrics are busy time and ``self_s`` metrics summed self time, both
    in seconds; counts are summed over outermost spans so nesting never
    counts the same work twice.
    """
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def calls(name):
        return len(named(name)), "count"

    def seconds(*names):
        return busy(spans, names) / 1e9, "s"

    def counted(names, key):
        return sum(s.counts.get(key, 0) for s in outermost(spans, names)), "count"

    def self_s(pred):
        return sum(selfs[s.id] for s in spans if pred(s)) / 1e9, "s"

    group_s = seconds("weyl.generate_group")[0]
    elements = counted(["weyl.generate_group"], "elements")[0]
    array_bytes = max((s.counts.get("array_bytes", 0) for s in named("weyl.generate_group")), default=0)
    m = {
        "weyl.generate_group.s": (group_s, "s"),
        "weyl.generate_group.calls": calls("weyl.generate_group"),
        "weyl.elements": (elements, "count"),
        "weyl.elements_per_s": (elements / group_s if elements else 0.0, "1/s"),
        "weyl.element_array_mb": (array_bytes / 1e6, "MB"),
        "hk.freeness_codim_check.s": seconds("hk.freeness_codim_check"),
        "hk.freeness_codim_check.elements": counted(["hk.freeness_codim_check"], "elements"),
        "hk.analyze.self_s": self_s(lambda s: s.name == "hk.analyze"),
        "inv.invariant_report.s": seconds("inv.invariant_report"),
        "inv.invariant_report.calls": calls("inv.invariant_report"),
        "inv.irreducibility_check.s": seconds("inv.irreducibility_check"),
        "inv.invariant_dim.s": seconds("inv.invariant_dim"),
        "inv.invariant_dim.calls": calls("inv.invariant_dim"),
        "inv.rep_build.s": seconds(*REP_BUILDERS),
        "inv.kernel_rows": counted(["inv.invariant_dim", "inv.irreducibility_check"], "kernel_rows"),
        "tower.invariant_intermediate_lattices.s": seconds(*TOWER_ROOTS),
        "tower.lattices": counted(TOWER_ROOTS, "lattices"),
        "cli.render.s": seconds("cli.render"),
    }
    for name in (
        "hk.fixed_locus_on_abelian",
        "hk.brute_force_fixed_point_count",
        "linalg.stack_and_common_kernel",
        "linalg.smith_normal_form",
        "linalg.hermite_normal_form",
        "tower.lattice_isometric",
        "tower.short_vectors",
        "root.build_root_datum",
    ):
        m[f"{name}.s"] = seconds(name)
        m[f"{name}.calls"] = calls(name)
    for layer in LAYERS.values():
        m[f"{layer}.self_s"] = self_s(lambda s, layer=layer: s.layer == layer)
    return m
