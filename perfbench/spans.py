"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions at the names their callers
look up (module globals and class attributes) with wrappers that record
one span per call: name, start, end, parent span and run id.  Spans stay
in memory and are written when the run ends.  Uninstalling restores every
original object, so untraced passes run the program as shipped.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
from collections import defaultdict

# Layer boundaries, named module.attribute by where the code lives.  A
# function defined in the package is wrapped under that name in every
# package module that imported it (mcscatter calls medium.susceptibility
# through its own global); a foreign function such as scipy's lu_factor
# is wrapped only in the named module, so each caller is its own layer.
TRACED = (
    "scenarios.run_scenario",
    "config.parse_text",
    "cli.emit_results",
    "mcscatter.simulate_ladder",
    "mcscatter.scatter_event",
    "mcscatter.sample_free_path",
    "mcscatter.sample_entry",
    "mcscatter.chord_depth",
    "medium.scattering_tensors",
    "medium.susceptibility",
    "medium.transverse_decompose",
    "medium.raman_shift",
    "angular.LevelScheme.ground_sublevels",
    "angular.dipole_matrix_element",
    "microdipole.build_effective_hamiltonian",
    "microdipole.field_green_tensor",
    "microdipole.random_ball_configuration",
    "microdipole.lu_factor",
    "microdipole.lu_solve",
    "microdipole.self_consistent_epsilon",
    "transport.solve_gain_diffusion_sphere",
    "transport.lu_factor",
    "transport.lu_solve",
)


def _lu_gflop(args, result) -> float:
    """Computed LU flops: (2/3) n^3 multiply-adds, 4x that for complex."""
    a = args[0]
    n = a.shape[0]
    per = 8.0 / 3.0 if a.dtype.kind == "c" else 2.0 / 3.0
    return per * n ** 3 / 1e9


def _emitted_bytes(args, result) -> float:
    return float(sum(os.path.getsize(p) for p in result))


# extra quantities accumulated per call: span name -> (suffix, fn)
QUANTITIES = {
    "microdipole.lu_factor": ("gflop_computed", _lu_gflop),
    "cli.emit_results": ("bytes", _emitted_bytes),
}


PACKAGE = "coldscatter"


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, run]
        self.totals = defaultdict(float)   # (run, name.suffix) -> sum
        self.run_id = 0
        self._stack = []
        self._saved = []           # (owner, attribute, original)

    def wrap(self, name: str, fn):
        tracer = self
        quantity = QUANTITIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if quantity is not None:
                suffix, measure = quantity
                tracer.totals[(tracer.run_id, f"{name}.{suffix}")] += \
                    measure(args, result)
            return result

        return traced

    def _owners(self, name: str):
        """(object, attribute, original) for every place to patch."""
        module_name, *path = name.split(".")
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        owner = module
        for part in path[:-1]:
            owner = getattr(owner, part)
        attr = path[-1]
        original = owner.__dict__[attr]
        if owner is not module or getattr(original, "__module__", None) \
                != module.__name__:
            return [(owner, attr, original)]
        pkg = importlib.import_module(PACKAGE)
        owners = []
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{PACKAGE}.{info.name}")
            if mod.__dict__.get(attr) is original:
                owners.append((mod, attr, original))
        return owners

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name in TRACED:
            for owner, attr, original in self._owners(name):
                setattr(owner, attr, self.wrap(name, original))
                self._saved.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path):
        """Span file: ``# name <k> <name>`` lines, then one span per line:
        id, name k, start and end in seconds from the first span, parent
        id (-1 for none) and run id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        index = {name: k for k, name in enumerate(dict.fromkeys(
            span[0] for span in self.spans))}
        with open(path, "w", encoding="utf-8") as fh:
            for name, k in index.items():
                fh.write(f"# name {k} {name}\n")
            fh.write("id\tname\tstart_s\tend_s\tparent\trun\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i}\t{index[name]}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{parent}\t{run}\n")


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of the intervals its
    direct children cover, clipped to the span."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2])
                             for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_table(spans, totals) -> dict:
    """run -> {name.calls, name.s, name.self_s, extra quantities}."""
    table = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, _, run = span
        row = table[run]
        row[f"{name}.calls"] += 1
        row[f"{name}.s"] += end - start
        row[f"{name}.self_s"] += self_s
    for (run, key), value in totals.items():
        table[run][key] += value
    return table
