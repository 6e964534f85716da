"""Span tracing installed from outside the package.

`Tracer.install()` replaces each traced function of `a1unicity` with a
wrapper: on the module that defines it, and on every other `a1unicity`
module that imported the same object by name (for example
`enumerator.tensor_multi`).  Each call records a span
`(name, start, end, parent, item)`; `item` is the query or sweep item
the benchmark is working on.  Hot methods only count calls.
`uninstall()` puts every original object back.

The tracer records only while `active` is true, so the benchmark's own
answer checks, which call the same functions, stay out of the layer
numbers.  The untraced run never constructs a Tracer.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

MARK = "_perfbench_span"

# (module, attribute) -> optional note hook, called as note(tracer, args, result)
# after each call; result is None when the call raised.


def _note_jbs(tracer, args, result):
    tracer.maxima["ffmatrix.jordan_block_sizes.n"] = max(
        tracer.maxima["ffmatrix.jordan_block_sizes.n"], int(args[0].shape[0])
    )


def _note_rank(tracer, args, result):
    rows, cols = args[0].shape
    tracer.sums["ffmatrix.rank.computed_ops"] += rows * cols * min(rows, cols)


def _note_enumerate(tracer, args, result):
    if result is not None:
        tracer.sums["enumerator.classes.total"] += result.count


SPANS = [
    ("atlas", "verdict", None),
    ("classical", "unicity_verdict", None),
    ("classical", "witnesses", None),
    ("sl2modules", "parse_descriptor", None),
    ("sl2modules", "format_descriptor", None),
    ("sl2modules", "realize", None),
    ("jordan", "tensor_pair", None),
    ("jordan", "tensor_multi", None),
    ("jordan", "tensor_pair_oracle", None),
    ("ffmatrix", "jordan_block_sizes", _note_jbs),
    ("ffmatrix", "rank", _note_rank),
    ("ffmatrix", "kronecker", None),
    ("ffmatrix", "sym_power", None),
    ("enumerator", "enumerate_embeddings", _note_enumerate),
    ("enumerator", "dn_partition_list", None),
    ("enumerator", "partitions_bounded", None),
    ("enumerator", "jordan_menu", None),
    ("enumerator", "canonicalize", None),
]

# (module, class, method): calls are counted, no span is recorded
COUNTED_METHODS = [
    ("sl2modules", "IrreducibleDescriptor", "sort_key"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.sums: Counter = Counter()
        self.maxima: Counter = Counter()
        self.item = None
        self.active = False
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, note):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.item)
                tracer.calls[name] += 1
                if note is not None:
                    note(tracer, args, result)

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _suite_wrapper(self, name, fn):
        """Selfcheck suite: a span that also marks its calls as one item."""
        inner = self._span_wrapper(name, fn, None)
        tracer = self

        def wrapper(*args, **kwargs):
            outer_item, tracer.item = tracer.item, name
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.item = outer_item

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for mod_name, attr, note in SPANS:
            original = getattr(modules[mod_name], attr)
            wrapper = self._span_wrapper(f"{mod_name}.{attr}", original, note)
            for module in modules.values():
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)
        for mod_name, cls_name, attr in COUNTED_METHODS:
            cls = getattr(modules[mod_name], cls_name)
            name = f"{mod_name}.{cls_name}.{attr}"
            self._patch(cls, attr, self._count_wrapper(name, vars(cls)[attr]))
        selfcheck = modules.get("selfcheck")
        if selfcheck is not None:
            suites = []
            for suite, fn, takes_quick in selfcheck.SUITES:
                wrapper = self._suite_wrapper(f"selfcheck.{suite}", fn)
                suites.append((suite, wrapper, takes_quick))
                if vars(selfcheck).get(fn.__name__) is fn:
                    self._patch(selfcheck, fn.__name__, wrapper)
            self._patch(selfcheck, "SUITES", suites)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list:
        """(owner, attribute, original) for every replaced attribute."""
        return list(self._patches)

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name call count, total time and self time, plus notes."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[idx]
        return {
            "calls": dict(self.calls),
            "total_s": dict(total),
            "self_s": dict(self_time),
            "sums": dict(self.sums),
            "maxima": dict(self.maxima),
        }

    def item_calls(self) -> dict:
        """Calls per (item, span name), for per-suite case counts."""
        out: Counter = Counter()
        for name, _, _, _, item in self.spans:
            out[(item, name)] += 1
        return {f"{item}|{name}": n for (item, name), n in out.items()}


def package_modules() -> dict:
    """Loaded `a1unicity` modules by short name ('' is the package)."""
    out = {}
    for full, module in list(sys.modules.items()):
        if module is None:
            continue
        if full == "a1unicity":
            out[""] = module
        elif full.startswith("a1unicity."):
            out[full.split(".", 1)[1]] = module
    return out


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers currently reachable from the package."""
    found = []
    for module in package_modules().values():
        for value in vars(module).values():
            if getattr(value, MARK, None) is not None:
                found.append(getattr(value, MARK))
            if isinstance(value, type):
                for attr in vars(value).values():
                    if getattr(attr, MARK, None) is not None:
                        found.append(getattr(attr, MARK))
            if isinstance(value, list):
                for entry in value:
                    if isinstance(entry, tuple):
                        found.extend(
                            getattr(x, MARK) for x in entry if getattr(x, MARK, None)
                        )
    return found
