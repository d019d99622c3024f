"""Span tracer for the per-layer run.

The program is not changed: the tracer wraps public functions of padic_cf
from outside and rebinds every name in every padic_cf namespace (module and
class dictionaries) that holds one of them, so that a call made inside the
package, such as browkin_expand calling browkin_bound, becomes a child span.

Each call records one span: name, request id, parent span, start and end.
Spans are kept in flat arrays in memory and written out when the run ends.
A layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import types
from array import array
from time import perf_counter

# (module under padic_cf, qualified name) of every traced function
TARGETS = (
    ("cli", "main"),
    ("browkin", "browkin_expand"),
    ("browkin", "browkin_bound"),
    ("browkin", "cf_evaluate"),
    ("browkin", "browkin_convergents"),
    ("browkin", "theta_sequence"),
    ("schneider", "schneider_expand"),
    ("schneider", "schneider_evaluate"),
    ("schneider", "schneider_convergents"),
    ("schneider", "head_analysis"),
    ("digits", "padic_digits"),
    ("digits", "PAdicDigits.prefix_value"),
    ("exactarith", "vp"),
    ("exactarith", "int_vp"),
    ("exactarith", "mod_inverse"),
    ("exactarith", "symmetric_residue"),
    ("exactarith", "QuadraticElement.__pow__"),
    ("exactarith", "QuadraticElement.__mul__"),
    ("exactarith", "QuadraticElement.__truediv__"),
    ("exactarith", "QuadraticElement.sign"),
)
CSV_WRITEROW = "cli.csv_writerow"
SPAN_NAMES = tuple(f"{module}.{name}" for module, name in TARGETS) + (CSV_WRITEROW,)


class TracerError(Exception):
    """The tracer could not account for every call or every span."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.request = 0
        self._name = array("i")
        self._request = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.steps = {"browkin.browkin_expand": 0, "schneider.schneider_expand": 0}
        self.bound_args: set[tuple] = set()
        self.bound_seed_misses = 0
        self.heads_exact = 0
        self._wrappers: set[int] = set()
        self._originals: dict[int, str] = {}
        self._bound_original = None  # browkin_bound as found, for cache_info

    def wrap(self, name: str, fn, after=None):
        """A function that runs fn inside a span called `name`, then passes
        (args, result) to `after`."""
        name_id = len(self.names)
        self.names.append(name)
        spans_name, spans_request, spans_parent = self._name, self._request, self._parent
        spans_start, spans_end, stack = self._start, self._end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans_start)
            spans_name.append(name_id)
            spans_request.append(self.request)
            spans_parent.append(stack[-1] if stack else -1)
            spans_end.append(0.0)
            stack.append(index)
            spans_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._wrappers.add(id(traced))
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target and the CLI's CSV writer; fail if any alias to
        an unwrapped original is left anywhere in the package."""
        package = _package_modules()
        after = {
            "browkin.browkin_expand": self._after_browkin_expand,
            "schneider.schneider_expand": self._after_schneider_expand,
            "browkin.browkin_bound": self._after_browkin_bound,
            "schneider.head_analysis": self._after_head_analysis,
        }
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            owner = sys.modules[f"padic_cf.{module_name}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if name == "browkin.browkin_bound":
                self._bound_original = original
            self._originals[id(original)] = name
            wrapper = self.wrap(name, original, after.get(name))
            for holder in _namespaces(package):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
        cli = sys.modules["padic_cf.cli"]
        cli.csv = _TracedCsv(cli.csv, self)
        self._check_no_alias(package)

    def _check_no_alias(self, package) -> None:
        for holder in _namespaces(package):
            for key, value in vars(holder).items():
                for ref in _references(value, self._wrappers):
                    if id(ref) in self._originals:
                        raise TracerError(
                            f"{holder.__name__}.{key} still reaches the unwrapped"
                            f" {self._originals[id(ref)]}"
                        )

    # -- counters read at the same boundaries ----------------------------

    def _after_browkin_expand(self, args, result) -> None:
        self.steps["browkin.browkin_expand"] += len(result.steps)

    def _after_schneider_expand(self, args, result) -> None:
        self.steps["schneider.schneider_expand"] += len(result.steps)

    def _after_browkin_bound(self, args, result) -> None:
        self.bound_args.add(args)
        self.bound_seed_misses += not result.exact_certificate

    def _after_head_analysis(self, args, result) -> None:
        self.heads_exact += bool(result.exact_identity)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls and self_s per span name, plus the layer counters."""
        if self._stack:
            raise TracerError(f"{len(self._stack)} spans still open")
        count = len(self._start)
        self_time = array("d", (self._end[i] - self._start[i] for i in range(count)))
        root_time = 0.0
        for i in range(count):
            duration = self._end[i] - self._start[i]
            parent = self._parent[i]
            if parent < 0:
                root_time += duration
            elif self._start[i] < self._start[parent] or self._end[i] > self._end[parent]:
                raise TracerError(f"span {i} lies outside its parent {parent}")
            else:
                self_time[parent] -= duration
        total_self = math.fsum(self_time)
        if abs(total_self - root_time) > 1e-6 * max(1.0, root_time):
            raise TracerError(f"self times sum to {total_self} s, root spans to {root_time} s")
        out: dict[str, float] = {}
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(count):
            name = self.names[self._name[i]]
            calls[name] += 1
            self_s[name] += self_time[i]
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, steps in self.steps.items():
            out[f"{name}.steps"] = steps
        bound_calls = calls["browkin.browkin_bound"]
        out["browkin.browkin_bound.distinct_ratio"] = _ratio(len(self.bound_args), bound_calls)
        out["browkin.browkin_bound.seed_miss_ratio"] = _ratio(self.bound_seed_misses, bound_calls)
        cache_info = getattr(self._bound_original, "cache_info", None)
        out["browkin.browkin_bound.cache_hits"] = cache_info().hits if cache_info else 0
        out["schneider.head_analysis.exact_ratio"] = _ratio(
            self.heads_exact, calls["schneider.head_analysis"]
        )
        return out

    def write_spans(self, path) -> int:
        """Write every span as a gzip'd TSV row; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\trequest\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self._start)):
                out.write(
                    f"{i}\t{self._request[i]}\t{self._parent[i]}\t{self.names[self._name[i]]}"
                    f"\t{self._start[i]:.9f}\t{self._end[i]:.9f}\n"
                )
        return len(self._start)


def _ratio(part: int, whole: int) -> float:
    # a ratio over no calls is reported as 0; its base is the .calls metric
    return part / whole if whole else 0.0


class _TracedCsv:
    """Stands in for the csv module inside padic_cf.cli: writers it creates
    record a cli.csv_writerow span per row."""

    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._module, attr)

    def writer(self, *args, **kwargs):
        inner = self._module.writer(*args, **kwargs)
        return types.SimpleNamespace(writerow=self._tracer.wrap(CSV_WRITEROW, inner.writerow))


def _package_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "padic_cf" or name.startswith("padic_cf.")
    ]


def _namespaces(modules):
    """Every padic_cf module and every class defined in one."""
    for module in modules:
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("padic_cf"):
                yield value


def _references(value, wrappers):
    """value itself and what it holds: container items, function defaults
    and closure cells, one level deep."""
    yield value
    if isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, types.FunctionType) and id(value) not in wrappers:
        yield from value.__defaults__ or ()
        yield from (value.__kwdefaults__ or {}).values()
        for cell in value.__closure__ or ():
            try:
                yield cell.cell_contents
            except ValueError:  # empty cell
                pass
