"""In-memory spans around gsesim's public functions, installed from outside.

A probe replaces one module attribute with a timing wrapper, at the place
callers look it up: `gsesim.cli.s_matrix` for the CLI, which imported the
name, and `gsesim.multipoint.pair_sums` for `s_matrix`, which calls it
through its module globals. gsesim itself is never edited. Spans are kept
in memory (name, start, end, parent span, task) and written out when a
run ends; per-layer metrics are the inclusive span totals plus counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _file_bytes(key):
    def count(args, kwargs, result):
        return {key: os.path.getsize(args[0])}
    return count


def _s_matrix_name(args, kwargs):
    return "multipoint.s_matrix_" + _arg(args, kwargs, 3, "convention", "resonance")


def _s_matrix_points(args, kwargs, result):
    topology, grid = args[0], args[2]
    return {"multipoint.emitter_points": grid.n_points * len(topology.emitters)}


def _map_points(args, kwargs, result):
    q, f_o_values, grid = args[:3]
    return {"nested.map_points": len(f_o_values) * grid.n_points}


def _eigen_points(args, kwargs, result):
    return {"nested.eigen_points": len(args[1])}


def _nfev(args, kwargs, result):
    return {"fitting.nfev": int(result.n_iter)}


_IO_WRITERS = (
    "write_spectrum_csv", "write_map_csv", "write_eigen_csv",
    "write_anisotropy_csv", "write_pv_csv", "write_fit_report",
)

# (attribute, span name or name function, counter function); each entry is
# installed on every listed module that binds the attribute
_LIBRARY = [
    ("gsesim.io", [(w, "io.write", _file_bytes("io.write_bytes")) for w in _IO_WRITERS] + [
        ("write_manifest", "io.manifest", None),
        ("sha256_file", "io.hash", _file_bytes("io.hashed_bytes")),
        ("load_config", "io.config", None),
        ("read_spectrum_csv", "io.read", _file_bytes("io.read_bytes")),
        ("read_map_csv", "io.read", _file_bytes("io.read_bytes")),
    ]),
    ("gsesim.core", [
        ("Emitter", "core.topology", None),
        ("Topology", "core.topology", None),
    ]),
    ("gsesim.single", [("s21_single", "single.s21", None)]),
    ("gsesim.nested", [
        ("map_nested_vs_detuning", "nested.map", _map_points),
        ("eigen_traces", "nested.eigen", _eigen_points),
        ("s21_nested_matrix", "nested.s21_matrix", None),
    ]),
    ("gsesim.multipoint", [
        ("s_matrix", _s_matrix_name, _s_matrix_points),
        ("build_effective", "multipoint.build_effective", None),
        ("pair_sums", "multipoint.pair_sums", None),
    ]),
    ("gsesim.lambpv", [
        ("pv_quadrature", "lambpv.quadrature", None),
        ("pv_closed", "lambpv.closed", None),
    ]),
    ("gsesim.anisotropy", [("angle_sweep", "anisotropy.sweep", None)]),
    ("gsesim.fitting", [
        ("fit", "fitting.fit", _nfev),
        ("fit_global_geometry", "fitting.geometry", _nfev),
        ("extract_decay_curve", "fitting.decay_curve", None),
        ("avoided_crossing_splitting", "fitting.crossing", None),
        ("merged_linewidth", "fitting.crossing", None),
    ]),
]


def _probes():
    """(module, attribute, name, counter) for every probe whose module is loaded.

    `gsesim.cli` imported most library functions by name, so each library
    probe is also installed on the CLI's binding when the CLI is loaded.
    """
    out = []
    cli = sys.modules.get("gsesim.cli")
    for module_name, entries in _LIBRARY:
        module = sys.modules.get(module_name)
        for attr, name, counter in entries:
            for target in (module, cli):
                if target is not None and hasattr(target, attr):
                    out.append((target, attr, name, counter))
    return out


class Tracer:
    """Collects spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (id, name, parent, task, start, end)
        self.counts = Counter()
        self.task = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []
        self._next_id = 0

    def _open(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name, span_id, parent, start):
        end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self.spans.append((span_id, name, parent, self.task, start, end))
            self.counts[name + "_calls"] += 1

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the block."""
        state = self._open(name)
        try:
            yield
        finally:
            self._close(name, *state)

    def add(self, counts):
        with self._lock:
            self.counts.update(counts)

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn, updated=())
        def timed(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            state = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(label, *state)
            if counter is not None:
                self.add(counter(args, kwargs, result))
            return result

        return timed

    def install(self):
        for module, attr, name, counter in _probes():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def export(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def totals(exports):
    """Inclusive seconds per span name and summed counters over exports."""
    seconds = defaultdict(float)
    counts = Counter()
    for exp in exports:
        for _, name, _, _, start, end in exp["spans"]:
            seconds[name] += end - start
        counts.update(exp["counts"])
    return dict(seconds), dict(counts)


def self_times(exports):
    """Seconds per span name minus the time its direct child spans cover."""
    out = defaultdict(float)
    for exp in exports:
        child = defaultdict(float)
        for _, _, parent, _, start, end in exp["spans"]:
            if parent is not None:
                child[parent] += end - start
        for span_id, name, _, _, start, end in exp["spans"]:
            out[name] += (end - start) - child[span_id]
    return dict(out)


def dump(exports, path):
    with open(path, "w") as fh:
        json.dump(exports, fh)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def import_gsesim(src):
    """Import gsesim from `src` and refuse any other copy on the path."""
    sys.path.insert(0, str(src))
    gsesim = importlib.import_module("gsesim")
    if not os.path.abspath(gsesim.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"gsesim imported from {gsesim.__file__}, not from {src}")
    return gsesim
