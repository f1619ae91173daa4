"""Traced child: wrap the package's public functions from outside, then run the CLI.

    python perfbench/shim.py SUMMARY.json SUBCOMMAND [ARGS...]

Every public module-level function of the nine layers is replaced by a
timing wrapper, and every `from .x import name` alias of it is rebound,
so the source is not edited.  Generators are timed per `next()`.  Spans
stay in memory; at exit the summary (per-name calls, total and self
seconds, counters, the boundaries found) is written to SUMMARY.json.
Stdout is the CLI's own, byte for byte.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

from spans import Span, summarize

LAYERS = ("primes", "intpoly", "modular", "scanner", "sturm", "quadcover",
          "parse", "reports", "cli")

# Spans that pool threads start with nothing open are children of the
# innermost open span of this name: the scan that submitted the blocks.
ADOPTING = "scanner.scan"

_INT64_LIMIT = 1 << 63


def _roots_block_counters(args, result) -> dict:
    f, primes = args[0], args[1]
    lanes = int(primes.size)
    pmax = int(primes.max()) if lanes else 0
    return {
        "lanes": lanes,
        "split_lanes": int((result == f.degree).sum()),
        "fallback_lanes": lanes if f.degree * pmax * pmax >= _INT64_LIMIT else 0,
    }


def _rank_counters(args, result) -> dict:
    rank = getattr(result, "rank", None)
    return {} if rank is None else {"rank_max": rank}


def _distribution_counters(args, result) -> dict:
    return {"rank_max": result.rank, "classes": 1 << result.rank}


# Counters read from the arguments and return value at the boundary.
COUNTERS = {
    "modular.count_roots_block": _roots_block_counters,
    "quadcover.decide_cover": _rank_counters,
    "quadcover.exact_root_distribution": _distribution_counters,
    "sturm.sturm_chain": lambda args, result: {"terms": len(result)},
}
# Counters read from the arguments and each value a generator yields.
YIELD_COUNTERS = {
    "primes.iter_prime_arrays": lambda args, value: {"primes": int(value.size)},
}


class Tracer:
    """Collects spans from every thread of the traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.found: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not threading.main_thread() and self._adopters:
            parent = self._adopters[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        if name == ADOPTING:
            self._adopters.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, t0, t1, extra) -> None:
        self._stack().pop()
        if name == ADOPTING:
            self._adopters.remove(sid)
        self.spans.append(Span(sid, parent, name, t0, t1, extra))

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        hook = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, t0 = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, sid, parent, t0, time.perf_counter(), None)
                raise
            t1 = time.perf_counter()
            self._close(name, sid, parent, t0, t1, _safe(hook, args, result))
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        hook = YIELD_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid, parent, t0 = self._open(name)
                try:
                    value = next(it)
                except StopIteration:
                    self._close(name, sid, parent, t0, time.perf_counter(), None)
                    return
                except BaseException:
                    self._close(name, sid, parent, t0, time.perf_counter(), None)
                    raise
                t1 = time.perf_counter()
                self._close(name, sid, parent, t0, t1, _safe(hook, args, value))
                yield value

        return traced


def _safe(hook, args, result) -> dict | None:
    """A counter hook's output, or None when the boundary's shape changed."""
    if hook is None:
        return None
    try:
        return hook(args, result)
    except (AttributeError, IndexError, TypeError, ValueError):
        return None


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layers and rebind its aliases."""
    wrapped = {}
    modules = [importlib.import_module("intersective")]
    for layer in LAYERS:
        mod = importlib.import_module(f"intersective.{layer}")
        modules.append(mod)
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj)
            tracer.found.append(name)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("intersective.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        summary = summarize(tracer.spans)
        summary["import_s"] = import_s
        summary["found"] = sorted(tracer.found)
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
