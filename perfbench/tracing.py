"""Spans around the package's layer entry points, recorded from outside it.

``Tracer.install`` replaces each entry point with a wrapper everywhere the
package binds it: as a class attribute, in its own module, and in every
module that imported it by name.  While ``active`` is set, each call records
a span (name, start, end, parent) in flat arrays; when it is clear the
wrappers call straight through.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter


def _coeff_products(a, b):
    return len(a.coeffs) * len(b.coeffs) if type(b) is type(a) else 0


def _rref_cells(rows):
    return len(rows) * len(rows[0]) if rows else 0


# span name -> (module, attribute path, extra count name, count function)
ENTRY_POINTS = {
    "laurent.mul": ("laurent", "LaurentSeries.__mul__", "laurent.mul.coeff_products", _coeff_products),
    "laurent.series_substitute": ("laurent", "series_substitute", None, None),
    "laurent.inverse": ("laurent", "LaurentSeries.inverse", None, None),
    "multipoly.mul": ("multipoly", "MultiPoly.__mul__", None, None),
    "multipoly.poly_reduce": ("multipoly", "poly_reduce", None, None),
    "linalg.rref": ("linalg", "rref", "linalg.rref.cells", _rref_cells),
    "curves.h0": ("curves", "h0", None, None),
    "curves.jet_rows": ("curves", "_jet_rows", None, None),
    "sections.f_sections": ("sections", "f_sections", None, None),
    "sections.canonical_parameter": ("sections", "canonical_parameter", None, None),
    "sections.alpha_beta": ("sections", "alpha_beta", None, None),
    "normalform.run_recursion": ("normalform", "run_recursion", None, None),
    "genus2.fit_parameters": ("genus2", "fit_parameters", None, None),
    "genus2.buchberger_verify": ("genus2", "buchberger_verify", None, None),
    "genus2.normalize_presentation": ("genus2", "normalize_presentation", None, None),
    "cli.main": ("cli", "main", None, None),
    "curveio.load_curve": ("curveio", "load_curve", None, None),
}
COUNTS = tuple(spec[2] for spec in ENTRY_POINTS.values() if spec[2])

# rounding slack when span durations are subtracted from each other
TOLERANCE_S = 1e-9

# the module-global caches in curves.py, read through cache_info()
CACHES = {
    "curves.elt_expansion": "_elt_expansion",
    "curves.span_info": "_span_info",
    "curves.validate": "_validate_cached",
}


class Tracer:
    def __init__(self):
        self.names = list(ENTRY_POINTS)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.active = False
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def _wrap(self, span_id, fn, count_name, count):
        stack, name_ids, parents, starts, ends = self._stack, self.name_ids, self.parents, self.starts, self.ends

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count is not None:
                self.counts[count_name] += count(*args)
            index = len(name_ids)
            name_ids.append(span_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                starts[index] = start
                stack.pop()

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lib) -> None:
        """Wrap every entry point of the package loaded as ``lib``."""
        package = [m for name, m in sys.modules.items() if name == "nsc" or name.startswith("nsc.")]
        for span_id, (module, path, count_name, count) in enumerate(ENTRY_POINTS.values()):
            owner = getattr(lib, module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_id, original, count_name, count)
            if classes:  # methods, with their aliases such as __rmul__
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, alias, wrapper)
            else:
                for mod in package:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self time; plus the duration of root
        spans and the number of single spans whose self time is negative."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        durations = array("d", (end - start for start, end in zip(self.starts, self.ends)))
        span_self = array("d", durations)
        root_s = 0.0
        name_ids, parents = self.name_ids, self.parents
        for i, duration in enumerate(durations):
            calls[name_ids[i]] += 1
            self_s[name_ids[i]] += duration
            parent = parents[i]
            if parent < 0:
                root_s += duration
            else:
                self_s[name_ids[parent]] -= duration
                span_self[parent] -= duration
        return {"calls": dict(zip(self.names, calls)), "self_s": dict(zip(self.names, self_s)),
                "root_s": root_s, "spans": len(name_ids),
                "negative_spans": sum(1 for s in span_self if s < -TOLERANCE_S)}

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines, times in seconds
        from the first span."""
        origin = self.starts[0] if len(self.starts) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            fh.writelines(
                f"{i}\t{parent}\t{names[n]}\t{start - origin:.7f}\t{end - origin:.7f}\n"
                for i, (n, parent, start, end) in enumerate(zip(self.name_ids, self.parents, self.starts, self.ends))
            )


def span_problems(summary, unspanned_s) -> list:
    """What is wrong with the spans of a summary, given the traced job time
    outside every root span: a span's children must lie inside it and the
    root spans inside the traced jobs."""
    problems = []
    if summary["negative_spans"]:
        problems.append(f"{summary['negative_spans']} spans have a negative self time")
    if unspanned_s < -TOLERANCE_S:
        problems.append(f"root spans outlast the traced jobs by {-unspanned_s:.3g} s")
    return problems


def cache_metrics(lib) -> dict:
    out = {}
    for name, attr in CACHES.items():
        info = getattr(lib.curves, attr).cache_info()
        lookups = info.hits + info.misses
        out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{name}.size"] = info.currsize
    return out
