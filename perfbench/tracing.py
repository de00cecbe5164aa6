"""Outside-in tracing of paracyclic's public functions.

The tracer replaces each function listed in ``WRAPPED`` by a wrapper that
records a span (id, name, size tag, start, end, parent id) and keeps exact
per-function aggregates: calls, inclusive seconds and self seconds (the
span's duration minus the part its child spans cover).  Nothing inside the
library changes; the wrappers are installed only around the traced runs.

``from .x import y`` binds ``y`` at import time, so a wrapper must replace
every binding of the original object, not just the one in its defining
module: ``_rebind`` scans every loaded ``paracyclic`` module for it.
``matmul`` is overridden per field backend, so it is patched on both
``PrimeField`` and ``Rationals``.  Per-element hot paths such as
``ParaPreorder.class_position`` and ``consheaf.gap_key`` are deliberately
not wrapped: at millions of calls the wrapper would dominate the trace.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) of each wrapped function, in report order.
WRAPPED = [
    ("paracat", "compose"),
    ("paracat", "enumerate_hom"),
    ("preord", "enumerate_preord_maps"),
    ("preord", "pullback_relation"),
    ("preord", "quotient_by_relation"),
    ("preord", "compose_preord"),
    ("corner", "pullback_point"),
    ("corner", "stratum_of"),
    ("extreal", "ext_sum"),
    ("consheaf", "enumerate_upsets"),
    ("consheaf", "sections"),
    ("consheaf", "gluing_check"),
    ("equivalence", "build_conv_tilde"),
    ("equivalence", "check_localization_adjunction"),
    ("equivalence", "realize_system"),
    ("equivalence", "recover_rep"),
    ("equivalence", "validate_rep"),
    ("sdot", "rotation_periodicity_check"),
    ("sdot", "rotate"),
    ("sdot", "cone"),
    ("sdot", "fingerprint"),
    ("_linalg", "Field.rref"),
    ("_linalg", "Field.right_kernel"),
    ("_linalg", "Field.solve_in_span"),
    ("_linalg", "Field.inverse"),
    ("_linalg", "PrimeField.matmul"),
    ("_linalg", "Rationals.matmul"),
    ("cli", "main"),
]


def span_name(module: str, attr: str) -> str:
    """Report name of a wrapped function: methods drop their class, and
    ``_linalg`` reads ``linalg`` because metric names start with a letter."""
    return f"{module.lstrip('_')}.{attr.rsplit('.', 1)[-1]}"


FUNCTIONS = list(dict.fromkeys(span_name(m, a) for m, a in WRAPPED))

# Size tags for the scaling breakdown, read from the call's arguments.
SIZE_TAGS = {
    "sdot.rotation_periodicity_check": (
        lambda args, kw: f"len{args[0].length}", [f"len{n}" for n in range(1, 6)]),
    "consheaf.gluing_check": (
        lambda args, kw: f"par{args[0].base.period - 1}", [f"par{n}" for n in range(4)]),
    "equivalence.check_localization_adjunction": (
        lambda args, kw: f"{_arg(args, kw, 1, 'variant', 'para')}{_arg(args, kw, 0, 'N', None)}",
        [f"{v}{n}" for v in ("para", "cyc") for n in (1, 2, 3)]),
}

# Counts kept beside the spans, each computed from a call's arguments and result.
COUNTS = [
    "preord.enumerate_preord_maps.maps",
    "equivalence.build_conv_tilde.edges",
    "consheaf.enumerate_upsets.upsets",
    "sdot.max_total_dim",
    "linalg.rref.cells",
    "linalg.rref.max_rows",
    "linalg.matmul.mults",
]

# Host-normalized median seconds of the workload parts, from the untraced
# measurement.
PARTS = ["c2", "c5", "c6", "c7", "c8", "c9",
         "len1", "len2", "len3", "len4", "len5", "glue", "rotate"]

# Raw seconds: the traced batch, its time outside every wrapped function, the
# same batch untraced (each part right before its traced run), their
# difference, and the median reference-kernel time (the host's speed).
SUMMARY = ["trace.wall_s", "trace.unattributed_s", "trace.untraced_wall_s",
           "trace.overhead_s", "trace.reference_s"]

UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# Spans kept per function for the trace file; aggregates count every call.
# Hot functions run 10^5 times per batch, too many to keep in memory.
SPANS_PER_NAME = 500


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in FUNCTIONS:
        for field, unit in UNITS.items():
            out[f"{name}.{field}"] = unit
    for name, (_, tags) in SIZE_TAGS.items():
        for tag in tags:
            out[f"{name}.{tag}.s"] = "s"
    for name in COUNTS:
        out[name] = "count"
    out["consheaf.section_cache.hit_ratio"] = "ratio"
    for part in PARTS:
        out[f"part.{part}_s"] = "s"
    for name in SUMMARY:
        out[name] = "s"
    return out


def _arg(args, kwargs, index, key, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


class Tracer:
    """Spans and counts of one traced batch, kept in memory."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []          # open frames: [span id, name, child seconds]
        self.next_id = 0
        self.stats = {name: [0, 0.0, 0.0] for name in FUNCTIONS}  # calls, s, self_s
        self.sized = {}          # (name, tag) -> seconds
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cache_misses = 0
        self._recorded = dict.fromkeys(FUNCTIONS, 0)
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        tagger = SIZE_TAGS.get(name, (None,))[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            frame = [span_id, name, 0.0]
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                duration = end - start
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                tag = tagger(args, kwargs) if tagger else None
                if tag is not None:
                    self.sized[(name, tag)] = self.sized.get((name, tag), 0.0) + duration
                if self._recorded[name] < SPANS_PER_NAME:
                    self._recorded[name] += 1
                    self.spans.append((span_id, name, tag, start, end,
                                       parent[0] if parent else None))
                else:
                    self.dropped += 1
            self._count(name, args, result, parent[1] if parent else None)
            return result

        return wrapper

    def _count(self, name, args, result, parent_name):
        counts = self.counts
        if name == "preord.enumerate_preord_maps":
            counts["preord.enumerate_preord_maps.maps"] += len(result)
        elif name == "equivalence.build_conv_tilde":
            counts["equivalence.build_conv_tilde.edges"] += len(result.edges)
        elif name == "consheaf.enumerate_upsets":
            counts["consheaf.enumerate_upsets.upsets"] += len(result)
        elif name == "consheaf.sections" and parent_name == "consheaf.gluing_check":
            self.cache_misses += 1
        elif name == "sdot.rotate":
            total_dim = sum(sum(x.dims) for x in result.objects)
            counts["sdot.max_total_dim"] = max(counts["sdot.max_total_dim"], total_dim)
        elif name == "linalg.rref":
            rows, cols = args[1].shape
            counts["linalg.rref.cells"] += rows * cols
            counts["linalg.rref.max_rows"] = max(counts["linalg.rref.max_rows"], rows)
        elif name == "linalg.matmul":
            (m, k), n = args[1].shape, args[2].shape[1]
            counts["linalg.matmul.mults"] += m * k * n

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED, at every place it is bound."""
        for module_name, attr in WRAPPED:
            module = sys.modules[f"paracyclic.{module_name}"]
            owner, _, fn_name = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = holder.__dict__[fn_name]
            wrapper = self._wrap(span_name(module_name, attr), original)
            self._set(holder, fn_name, wrapper)
            if not owner:
                self._rebind(original, wrapper)

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "paracyclic" and not name.startswith("paracyclic."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set(self, holder, attr, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------------

    def _cache_lookups(self) -> int:
        """gluing_check looks up four section spaces: union, both sides, overlap."""
        return 4 * self.stats["consheaf.gluing_check"][0]

    def metrics(self, traced_raw: float, untraced_raw: float, reference: float,
                parts: dict) -> dict:
        """Every per-layer metric; layers a workload never reaches read 0."""
        values = {}
        for name, (calls, total, own) in self.stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = total
            values[f"{name}.self_s"] = own
        for name, (_, tags) in SIZE_TAGS.items():
            for tag in tags:
                values[f"{name}.{tag}.s"] = self.sized.get((name, tag), 0.0)
        values.update(self.counts)
        lookups = self._cache_lookups()
        values["consheaf.section_cache.hit_ratio"] = (
            (lookups - self.cache_misses) / lookups if lookups else 0.0)
        for part in PARTS:
            values[f"part.{part}_s"] = parts.get(part, 0.0)
        values["trace.wall_s"] = traced_raw
        values["trace.unattributed_s"] = traced_raw - sum(
            own for _, _, own in self.stats.values())
        values["trace.overhead_s"] = traced_raw - untraced_raw
        values["trace.untraced_wall_s"] = untraced_raw
        values["trace.reference_s"] = reference
        units = metric_units()
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    def dump(self) -> dict:
        """The spans and the hit ratio's base, for the trace file."""
        return {
            "section_cache": {"lookups": self._cache_lookups(), "misses": self.cache_misses},
            "spans_per_name_cap": SPANS_PER_NAME,
            "spans_dropped": self.dropped,
            "span_fields": ["id", "name", "size", "start", "end", "parent"],
            "spans": self.spans,
        }
