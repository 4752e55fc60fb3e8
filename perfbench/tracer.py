"""Run one `longedge` CLI command in this process with timing wrappers.

Usage: python perfbench/tracer.py <longedge arguments...>
(with the repository's `src` directory on PYTHONPATH).

Each wrapped public function is replaced in every `longedge` module that
holds a reference to it, so calls through any import path are seen.  Span
wrappers record (name, start, end, parent) in memory; count-only wrappers,
used for functions called once per distribution, add one to a counter.
The command's stdout is captured, and one JSON object with the exit code,
the captured stdout, per-name self times, counts and the names that were
not found is printed when the command ends.  Calls made inside
`--jobs` pool workers are not seen by wrappers in this process.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import sys
import time
from contextlib import redirect_stdout

# (module, function, kind): "span" records a span per call, "gen" one span
# per generator step, "count" only counts calls.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("templates", "enumerate_templates", "span"),
    ("templates", "enumerate_graphs", "gen"),
    ("counting", "severi_degree", "span"),
    ("counting", "n_graph", "span"),
    ("counting", "n_star", "count"),
    ("counting", "orderings_oracle", "span"),
    ("graphs", "is_allowable", "count"),
    ("graphs", "weight_profile", "count"),
    ("qcalc", "q_delta_templates", "span"),
    ("qcalc", "q_delta_log", "span"),
    ("qcalc", "q_graph", "span"),
    ("qcalc", "q_star", "count"),
    ("qcalc", "set_partitions", "count"),
    ("qcalc", "sigma", "span"),
    ("polynomials", "node_polynomial", "span"),
    ("polynomials", "interpolate", "span"),
    ("floor_diagrams", "fmcount", "span"),
    ("floor_diagrams", "enumerate_floor_diagrams", "span"),
    ("acceptance", "run_criteria", "span"),
)


class Recorder:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def leave(self, idx: int, rename: str | None = None) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()
        if rename is not None:
            self.names[idx] = rename

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration minus that of child spans."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        out: dict[str, float] = {}
        for name, value in zip(self.names, own):
            out[name] = out.get(name, 0.0) + value
        return out


def _span_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(idx)

    return wrapper


def _templates_wrapper(rec: Recorder, name: str, fn):
    """Span per call, named `<name>` when it built a catalog (cache miss)
    and `<name>.hit` otherwise; counts the templates built.  Without an
    lru_cache every call builds."""
    if not hasattr(fn, "cache_info"):
        return _span_wrapper(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        misses = fn.cache_info().misses
        idx = rec.enter(name)
        cold = False
        try:
            catalog = fn(*args, **kwargs)
            cold = fn.cache_info().misses > misses
            if cold:
                rec.add("templates.templates_built", len(catalog))
            return catalog
        finally:
            rec.leave(idx, None if cold else name + ".hit")

    return wrapper


def _generator_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = rec.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.leave(idx)
            rec.add(name + ".yielded")
            yield item

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    counts = rec.counts
    key = name + ".calls"
    counts[key] = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _q_graph_wrapper(rec: Recorder, name: str, fn):
    inner = _span_wrapper(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        value = inner(*args, **kwargs)
        rec.add(name + ".calls")
        if value:
            rec.add(name + ".nonzero")
        return value

    return wrapper


def _counted_span_wrapper(rec: Recorder, name: str, fn):
    inner = _span_wrapper(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(name + ".calls")
        return inner(*args, **kwargs)

    return wrapper


def _diagrams_wrapper(rec: Recorder, name: str, fn):
    inner = _span_wrapper(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        diagrams = inner(*args, **kwargs)
        rec.add("floor_diagrams.diagrams", len(diagrams))
        return diagrams

    return wrapper


_SPECIAL = {
    "templates.enumerate_templates": _templates_wrapper,
    "counting.n_graph": _counted_span_wrapper,
    "counting.severi_degree": _counted_span_wrapper,
    "qcalc.q_graph": _q_graph_wrapper,
    "floor_diagrams.enumerate_floor_diagrams": _diagrams_wrapper,
}
_BY_KIND = {"span": _span_wrapper, "gen": _generator_wrapper, "count": _count_wrapper}


def install(rec: Recorder) -> list[str]:
    """Install every wrapper; return the qualified names not found."""
    package = importlib.import_module("longedge")
    absent = []
    for module_name, func_name, kind in TARGETS:
        name = f"{module_name}.{func_name}"
        try:
            module = importlib.import_module(f"longedge.{module_name}")
        except ImportError:
            absent.append(name)
            continue
        original = getattr(module, func_name, None)
        if original is None:
            absent.append(name)
            continue
        make = _SPECIAL.get(name, _BY_KIND[kind])
        wrapper = make(rec, name, original)
        holders = [package] + [
            m for key, m in list(sys.modules.items()) if key.startswith("longedge.")
        ]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
    return absent


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    import longedge.cli as cli

    import_s = time.perf_counter() - started
    rec = Recorder()
    absent = install(rec)
    buffer = io.StringIO()
    idx = rec.enter("cli.main")
    try:
        with redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.leave(idx)
    print(json.dumps({
        "exit": code,
        "stdout": buffer.getvalue(),
        "import_s": import_s,
        "main_s": rec.ends[idx] - rec.starts[idx],
        "self_s": rec.self_times(),
        "counts": rec.counts,
        "spans": len(rec.names),
        "absent": absent,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
