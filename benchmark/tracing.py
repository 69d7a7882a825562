"""Span tracing of mirrorsim's layers, installed from outside the program.

Each traced function is replaced, wherever a mirrorsim module binds it, by
a wrapper that records a span (name, start, end, parent). Callers look
names up in their own module namespace (``observables``, ``scenario`` and
``conservation`` each import ``joint_pdf`` for themselves), so every such
binding is patched, not just the defining module's. Methods are patched on
their class. Spans stay in memory until :meth:`Tracer.dump`.

Untraced runs never import this module, so they carry no wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(result) -> int:
    if isinstance(result, tuple):
        result = result[0]
    return int(np.size(result))


def _curve_points(curve) -> int:
    return len(curve.y)


def _file_bytes(path) -> int:
    return path.stat().st_size


def _scenario_and_event(args, kwargs):
    return args[0].name, args[1]


def _analysis_name(args, kwargs):
    return args[1]


# (module, attribute or Class.method, per-call quantity, distinct-call key,
#  span-name suffix)
TARGETS = (
    ("wavegroup", "joint_pdf", ("points", _size), None, None),
    ("wavegroup", "currents", ("points", _size), None, None),
    ("observables", "marginal_over_mirror", ("points", _curve_points), None, None),
    ("observables", "marginal_over_particle", ("points", _curve_points), None, None),
    ("observables", "extract_fringes", None, None, None),
    ("observables", "doppler_beat", None, None, None),
    ("observables", "pattern_drift_beat", None, None, None),
    ("observables", "coherence_transfer_metrics", None, None, None),
    ("measurement", "collapse", None, None, None),
    ("measurement", "ConditionalMirrorState.pdf", ("points", _size), None, None),
    ("measurement", "ConditionalMirrorState.support", None, None, None),
    ("measurement", "ConditionalMirrorState.branch_profiles", None, None, None),
    ("measurement", "classify_regime", None, None, None),
    ("measurement", "split_centroid_velocities", None, None, None),
    ("scenario", "resolve_event", None, _scenario_and_event, None),
    ("scenario", "run_analysis", None, None, _analysis_name),
    ("scenario", "joint_pdf_grid", None, None, None),
    ("conservation", "continuity_residual", None, None, None),
    ("gridio", "write_field_grid", ("bytes", _file_bytes), None, None),
    ("gridio", "write_curve", ("bytes", _file_bytes), None, None),
    ("gridio", "write_json", ("bytes", _file_bytes), None, None),
    ("cli", "cmd_simulate", None, None, None),
    ("cli", "cmd_check", None, None, None),
    ("cli", "cmd_observables", None, None, None),
    ("cli", "cmd_marginal", None, None, None),
)

ANALYSES = ("regime", "split-velocities", "beat", "coherence-transfer",
            "marginal-visibility", "marginal-t2-independence", "node-depth")


def _metric_names():
    names = []
    for module, attr, quantity, key, _ in TARGETS:
        if module == "cli":
            names.append(f"cli.{attr.removeprefix('cmd_')}.s")
            continue
        base = f"{module}.{attr}"
        if attr == "run_analysis":
            names += [f"{base}.{a}.s" for a in ANALYSES]
            continue
        names += [f"{base}.calls", f"{base}.self_s"]
        if quantity:
            names.append(f"{base}.{quantity[0]}")
        if key:
            names += [f"{base}.distinct", f"{base}.useful_ratio"]
    return names


METRICS = tuple(_metric_names())


class Tracer:
    """In-memory span recorder; ``active`` is cleared around untimed checks."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.active = True
        self._stack: list[int] = []

    def wrap(self, name, fn, quantity=None, key=None, suffix=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            parent = self._stack[-1] if self._stack else -1
            record = [span, perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if quantity:
                self.counts[f"{name}.{quantity[0]}"] += quantity[1](result)
            if key:
                self.keys[name].add(key(args, kwargs))
            return result
        return traced

    def install(self):
        """Patch every target in every loaded mirrorsim module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mirrorsim" or n.startswith("mirrorsim.")]
        for module, attr, quantity, key, suffix in TARGETS:
            owner = importlib.import_module(f"mirrorsim.{module}")
            cls_name, _, method = attr.rpartition(".")
            name = f"{module}.{attr}"
            if cls_name:
                owner = getattr(owner, cls_name)
                setattr(owner, method, self.wrap(name, getattr(owner, method),
                                                 quantity, key, suffix))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, quantity, key, suffix)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapped)

    def _totals(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, total, self_s

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric in METRICS; 0 for layers never called."""
        calls, total, self_s = self._totals()
        out = {}
        for metric in METRICS:
            base, _, quantity = metric.rpartition(".")
            if metric.startswith("cli."):
                out[metric] = total[f"cli.cmd_{base.removeprefix('cli.')}"]
            elif quantity == "s":
                out[metric] = total[base]
            elif quantity == "calls":
                out[metric] = calls[base]
            elif quantity == "self_s":
                out[metric] = self_s[base]
            elif quantity == "distinct":
                out[metric] = len(self.keys[base])
            elif quantity == "useful_ratio":
                # no call means no wasted call
                out[metric] = (len(self.keys[base]) / calls[base]
                               if calls[base] else 1.0)
            else:
                out[metric] = self.counts[metric]
        return out

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
