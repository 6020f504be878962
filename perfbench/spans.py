"""In-memory span tracer for the traced benchmark run, and the statistics the
benchmark reports from timings and spans.

The tracer wraps public functions and methods of the ``wignernet`` modules.
Every call records one span: (name, start_ns, end_ns, parent span index,
iteration id).  Spans stay in a Python list until the run ends; self time is
computed afterwards from the parent links.  Because modules import each
other's functions by name (``training`` holds its own ``backward`` binding,
``cli`` its own ``save_dataset``), a function is patched in every
``wignernet.*`` module that binds it, and methods are patched on their class.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

NAME, START, END, PARENT, ITERATION = range(5)


def tail_percentile(values) -> tuple[float | None, float | None, int]:
    """Highest ladder percentile with at least MIN_BEYOND samples above its rank.

    Uses the nearest-rank definition.  Returns (percentile, value, sample
    count); percentile and value are None when there are too few samples.
    """
    xs = sorted(values)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = _rank(pct, n)
        if n - rank >= MIN_BEYOND:
            return pct, xs[rank - 1], n
    return None, None, n


def _rank(pct: float, n: int) -> int:
    # Rounded first so that, say, 99.9 * 1000 / 100 does not ceil to 1000.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(values, pct: float) -> float:
    xs = sorted(values)
    return xs[_rank(pct, len(xs)) - 1]


def part_of(span) -> str:
    """The part an iteration id names: ``train-3`` and ``pipeline-1-2-eval``
    belong to ``train`` and ``pipeline``."""
    return span[ITERATION].split("-", 1)[0]


def self_times(spans) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


class Tracer:
    """Wraps named functions of one package and records a span per call."""

    def __init__(self, package: str = "wignernet"):
        self.package = package
        self.spans: list[list] = []
        self.iteration = ""
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__perfbench_traced__ = True
        return traced

    def _modules(self):
        prefix = self.package + "."
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(prefix))
        ]

    def install(self, targets) -> None:
        """Wrap each ``module.function`` or ``module.Class.method`` target.

        A target whose module, class or attribute no longer exists is listed
        in ``self.absent`` instead of raising.
        """
        self.absent = []
        modules = self._modules()
        for target in targets:
            modname, _, qualname = target.partition(".")
            module = sys.modules.get(f"{self.package}.{modname}")
            *owner_path, attr = qualname.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(target)
                continue
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
                if not callable(original):
                    self.absent.append(target)
                    continue
                self._patch(owner, attr, original, self._wrap(target, original))
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapped = self._wrap(target, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        try:
            self.install(targets)
            yield self
        finally:
            self.uninstall()

    def summary(self, targets, part: str | None = None) -> dict[str, dict]:
        """Per target: call count, total self time (s), median duration (ms),
        over the spans of one part, or of all parts when part is None."""
        selfs = self_times(self.spans)
        by_name: dict[str, tuple[list[int], list[int]]] = {t: ([], []) for t in targets}
        for span, own in zip(self.spans, selfs):
            if span[NAME] not in by_name or (part is not None and part_of(span) != part):
                continue
            durations, owns = by_name[span[NAME]]
            durations.append(span[END] - span[START])
            owns.append(own)
        out = {}
        for name, (durations, owns) in by_name.items():
            entry = {"calls": len(durations), "self_s": sum(owns) / 1e9}
            if durations:
                entry["p50_ms"] = statistics.median(durations) / 1e6
            out[name] = entry
        return out

    def write(self, path, workload: str) -> None:
        """Dump every span as compact JSON rows: name index, start, end, parent, iteration."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[ITERATION]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": workload,
                    "columns": ["name", "start_ns", "end_ns", "parent", "iteration"],
                    "names": names,
                    "absent": self.absent,
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
