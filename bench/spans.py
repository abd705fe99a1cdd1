"""In-memory span tracer that wraps cpdilate's public functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each traced
function with a timing wrapper in every cpdilate module that holds a
reference to it (so names imported with ``from .x import f`` are caught
where they are looked up), and ``Tracer.uninstall`` puts the originals
back.  A span is ``(op, id, parent, name, start, end)``; spans of one
benchmark operation share ``op``.  Spans stay in memory until
``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute) pairs traced as plain functions; the span is
# named "<module>.<attribute>".
FUNCTIONS = (
    ("cli", "main"),
    ("serialize", "parse_instance"),
    ("serialize", "parse_dilation"),
    ("serialize", "emit_dilation"),
    ("cpmaps", "random_instance"),
    ("cpmaps", "haar_unitary"),
    ("dilation", "dilate"),
    ("dilation", "build_gram"),
    ("dilation", "build_pi"),
    ("dilation", "build_S"),
    ("dilation", "build_psi"),
    ("dilation", "build_W"),
    ("dilation", "verify_dilation"),
    ("equivalence", "build_unitaries"),
    ("equivalence", "verify_diagram"),
    ("equivalence", "rotate_dilation"),
    ("linalg", "hermitian_eig"),
    ("linalg", "solve_lsq"),
    ("linalg", "svd_orthobasis"),
)

# (module, class, method) traced as methods.
METHODS = (
    ("cpmaps", "CPBlockMap", "is_completely_n_positive"),
    ("cpmaps", "Instance", "compatibility_residual"),
)

# Lazily built index tables of the algebra and module descriptors; all
# four share the span name "algebra.tables".
TABLES = (
    ("AlgebraDescriptor", "product_table"),
    ("AlgebraDescriptor", "adjoint_table"),
    ("ModuleDescriptor", "action_table"),
    ("ModuleDescriptor", "inner_table"),
)

ROOT_SPAN = "bench.op"


def _eig_counts(m, *args, **kwargs) -> dict:
    """Work handed to a dense Hermitian eigendecomposition of an N x N
    complex matrix: 16 N^2 input bytes and about 36 N^3 real flops
    (9 N^3 for the symmetric QR algorithm with vectors, times 4 for
    complex arithmetic)."""
    size = len(m)
    return {"gram_bytes": 16 * size * size, "eig_flops": 36 * size**3}


COUNTERS = {"linalg.hermitian_eig": _eig_counts}


class Tracer:
    """Collects spans and boundary counts for benchmark operations."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((self._op, span_id, parent, name, start, end))

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` as operation ``op_id`` under a root span."""
        self._op = op_id
        span_id, parent, start = self._open()
        try:
            return fn()
        finally:
            self._close(ROOT_SPAN, span_id, parent, start)

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    self.counts[self._op][key] += value
            span_id, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, span_id, parent, start)

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever cpdilate refers to it."""
        import cpdilate
        from cpdilate import algebra, cli, cpmaps, dilation, equivalence, linalg, serialize

        modules = {
            "cli": cli,
            "serialize": serialize,
            "cpmaps": cpmaps,
            "dilation": dilation,
            "equivalence": equivalence,
            "linalg": linalg,
        }
        holders = [cpdilate, *modules.values()]
        for mod_name, attr in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            wrapper = self.wrap(original, f"{mod_name}.{attr}")
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, original, wrapper)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, original, self.wrap(original, f"{mod_name}.{attr}"))
        for cls_name, attr in TABLES:
            prop = getattr(algebra, cls_name).__dict__[attr]
            self._patches.append((prop, "func", prop.func))
            prop.func = self.wrap(prop.func, "algebra.tables")

    def _set(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children[span_id], start, end)
        for _, span_id, _, _, start, end in spans
    }


def per_op_times(spans) -> dict[int, dict[str, float]]:
    """Per operation, seconds keyed by:

    * ``"<span name>.total"``: time inside that function, counting only
      spans with no ancestor of the same name (so recursion and nested
      table builds are not counted twice);
    * ``"<span name>.self"``: time inside it minus its traced children;
    * ``"layer.<layer>.self"``: self time summed over the layer's spans;
    * ``"op.total"``: the root span's duration.
    """
    own = self_times(spans)
    by_id = {s[1]: s for s in spans}
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for op, span_id, parent, name, start, end in spans:
        row = out[op]
        row[f"{name}.self"] += own[span_id]
        row[f"layer.{name.split('.', 1)[0]}.self"] += own[span_id]
        ancestor = parent
        while ancestor is not None and by_id[ancestor][3] != name:
            ancestor = by_id[ancestor][2]
        if ancestor is None:
            row[f"{name}.total"] += end - start
        if name == ROOT_SPAN:
            row["op.total"] += end - start
    return out
