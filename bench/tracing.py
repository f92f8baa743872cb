"""Timing spans around qlin's layers, installed from outside the package.

A :class:`Tracer` replaces the public functions of the eight layer modules
with timing wrappers at every module-level name through which another
module (the package namespace and the benchmark included) reaches them.
Calls a module makes to its own functions stay unwrapped, except the few
listed in ``OWN_MODULE_CALLS``, whose inner calls are counted by a
per-layer metric.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
restores every original binding, so untraced operations run the plain code.

Each span records (name, start, end, parent span index, operation id) and
is kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("core", "xfer", "structural", "goals", "interconnect", "nogo",
          "serialize", "cli")

#: Modules whose namespaces hold bindings of layer functions.
NAMESPACES = ("qlin",) + tuple(f"qlin.{m}" for m in LAYERS + ("scenarios",))

#: Own-module calls that are wrapped as well: the drift/noise accessors call
#: sigma, check_bae calls transfer_zero_equivalence, verify_nogo draws its
#: splits and controllers, and the benchmark enters the CLI at cli.main.
OWN_MODULE_CALLS = {
    ("core", "sigma"),
    ("goals", "transfer_zero_equivalence"),
    ("nogo", "random_split"),
    ("nogo", "sample_classical_controller"),
    ("cli", "main"),
}

#: Methods wrapped on their class (every caller goes through the class).
METHODS = (("core", "QuantumLinearSystem", "to_state_space"),)

#: Per-layer metric stem -> span names it sums.
ALIASES = {
    "core.build": ("core.build_system",),
    "nogo.sample": ("nogo.random_split", "nogo.sample_classical_controller"),
}

#: Per-layer metrics, in the order of BENCHMARK.json.  ``calls`` are counted
#: per operation (per trial on nogo); ``ms`` is self time per operation.
PER_LAYER = (
    "core.build.calls", "core.build.ms",
    "core.to_state_space.calls", "core.to_state_space.ms",
    "core.sigma.calls", "core.sigma.ms",
    "xfer.noise_power.calls", "xfer.noise_power.ms",
    "xfer.evaluate.calls", "xfer.evaluate.ms",
    "xfer.normalized_gw_signal.ms",
    "xfer.spectrum_csv.ms",
    "structural.controllability_matrix.calls", "structural.controllability_matrix.ms",
    "structural.observability_matrix.calls", "structural.observability_matrix.ms",
    "structural.range_space.ms", "structural.kernel.ms", "structural.intersect.ms",
    "goals.check_bae.ms", "goals.find_qnd.ms", "goals.find_dfs.ms",
    "goals.transfer_zero_equivalence.calls", "goals.transfer_zero_equivalence.ms",
    "interconnect.mf_type1.calls", "interconnect.mf_type1.ms",
    "interconnect.mf_type2.calls", "interconnect.mf_type2.ms",
    "nogo.sample.ms",
    "nogo.verify_nogo.ms",
    "serialize.system_from_dict.ms",
    "serialize.verdict_to_dict.ms",
    "cli.main.ms",
)


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and isinstance(v, types.FunctionType)
                 and v.__module__ == mod.__name__]
    for name in names:
        fn = getattr(mod, name)
        if isinstance(fn, types.FunctionType):
            yield name, fn


class Tracer:
    """Records nested timing spans while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [importlib.import_module(n) for n in NAMESPACES]
        for layer in LAYERS:
            mod = importlib.import_module(f"qlin.{layer}")
            for fname, fn in _public_functions(mod):
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    if ns is mod and (layer, fname) not in OWN_MODULE_CALLS:
                        continue
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"qlin.{layer}"), cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{meth}", cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (call count, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += end - start - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end (s), parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(totals: dict[str, tuple[int, float]], ops: int,
                  trials: int) -> dict[str, float]:
    """Per-layer metrics: calls per trial, self milliseconds per operation."""
    out = {}
    for metric in PER_LAYER:
        stem, kind = metric.rsplit(".", 1)
        names = ALIASES.get(stem, (stem,))
        calls = sum(totals.get(n, (0, 0.0))[0] for n in names)
        secs = sum(totals.get(n, (0, 0.0))[1] for n in names)
        out[metric] = calls / trials if kind == "calls" else 1e3 * secs / ops
    return out
