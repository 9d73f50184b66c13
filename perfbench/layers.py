"""Per-layer timing of kcod, installed from outside the package.

A ``Tracer`` replaces selected kcod functions with timing wrappers. Every
module imports names with ``from .x import y``, so a function is wrapped at
every module attribute that holds it (``kcod.cluster.silhouette`` as well as
``kcod.metrics.silhouette``); wrapping only the defining module would miss
the calls made through the other names.

Each process keeps its counts in memory and appends them as one JSON line to
``<spans_dir>/<pid>.jsonl`` when flushed. Forked sweep workers leave through
``os._exit`` and run no ``atexit`` hook, so the wrapper of a flushing function
(the sweep cell) writes the worker's counts after every call. A forked child
starts with empty counts, so nothing the parent recorded is counted twice.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import sys
import time

# End-to-end stage boundaries, timed in every run.
STAGES = (
    "cli.pretrain_stage",
    "cli.cluster_stage",
    "cli.evaluate_stage",
    "cli._run_sweep_cell",
)

# Layer functions timed only in a traced run, as <module>.<function>.
LAYERS = (
    "pretrain.kcl_loss",
    "pretrain.refresh_queue",
    "contrast.contrastive_terms",
    "contrast.cosine_rows",
    "cluster.kcc_loss",
    "cluster.cluster_level_loss",
    "cluster.kmeans",
    "cluster.estimate_k",
    "metrics.silhouette",
    "metrics.pairwise_distances",
    "metrics.evaluate",
    "encoder.forward_batch",
    "encoder.backward",
    "encoder.adam_step",
    "encoder.save_checkpoint",
    "encoder.load_checkpoint",
    "data.load_jsonl",
    "data.save_jsonl",
)

# Functions after whose every call the process writes out its counts.
FLUSH_AFTER = ("cli._run_sweep_cell",)

PACKAGE = "kcod"
PROBE_CALLS = 200_000  # calls of a trivial function timed to price the wrapper


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# Traced-run notes: one value recorded per call, merged across processes.
NOTES = {
    # Identical pretrain inputs give byte-identical checkpoints, so distinct
    # digests count the pretrains whose result was new.
    "cli.pretrain_stage": lambda args, kwargs, result, seconds: _file_digest(result),
    "cli._run_sweep_cell": lambda args, kwargs, result, seconds: seconds,
    # Rows of the feature matrix; the distance matrix is rows^2 float64 values.
    "metrics.silhouette": lambda args, kwargs, result, seconds: len(
        args[0] if args else kwargs["features"]
    ),
}


class Tracer:
    """Calls, total and self seconds per label for one process.

    Self time is a call's duration minus the time spent in traced calls it
    made. The counts live in memory until ``flush``.
    """

    def __init__(self, spans_dir: str, notes: bool = False):
        self.spans_dir = spans_dir
        self.notes_on = notes
        self.wrapped: dict[int, object] = {}
        self.sites: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.stats: dict[str, list] = {}
        self.notes: dict[str, list] = {}
        self.child_time: list[float] = []  # one accumulator per open span

    def wrap(self, fn, label: str):
        """The timing wrapper of ``fn``; one wrapper per function object."""
        existing = self.wrapped.get(id(fn))
        if existing is not None:
            return existing
        note = NOTES.get(label) if self.notes_on else None
        flush = label in FLUSH_AFTER
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                inner = self.child_time.pop()
                if self.child_time:
                    self.child_time[-1] += seconds
                entry = self.stats.get(label)
                if entry is None:
                    entry = self.stats[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += seconds - inner
            if note is not None:
                self.notes.setdefault(label, []).append(note(args, kwargs, result, seconds))
            if flush:
                self.flush()
            return result

        self.wrapped[id(fn)] = traced
        return traced

    def install(self, labels) -> None:
        """Wrap each ``<module>.<function>`` under every name that holds it.

        A label whose module or function no longer exists is recorded as
        absent rather than raised.
        """
        for label in labels:
            module_name, _, name = label.rpartition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(module, name, None) if module is not None else None
            if not callable(fn):
                self.absent.append(label)
                continue
            traced = self.wrap(fn, label)
            sites = []
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        sites.append(f"{mod_name}.{attr}")
            self.sites[label] = sites

    def flush(self) -> None:
        """Append this process's counts to its spans file and start afresh."""
        record = {
            "pid": os.getpid(),
            "stats": self.stats,
            "notes": self.notes,
            "absent": self.absent,
            "sites": self.sites,
        }
        path = os.path.join(self.spans_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self._reset()


def merge(spans_dir: str) -> dict:
    """Sum the flushed counts of every process that wrote into ``spans_dir``."""
    stats: dict[str, list] = {}
    notes: dict[str, list] = {}
    absent: set[str] = set()
    sites: dict[str, list[str]] = {}
    pids: set[int] = set()
    for path in sorted(glob.glob(os.path.join(spans_dir, "*.jsonl"))):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                pids.add(record["pid"])
                for label, (calls, total, own) in record["stats"].items():
                    entry = stats.setdefault(label, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += own
                for label, values in record["notes"].items():
                    notes.setdefault(label, []).extend(values)
                absent.update(record["absent"])
                sites.update(record["sites"])
    return {"stats": stats, "notes": notes, "absent": sorted(absent), "sites": sites, "pids": len(pids)}


def wrapper_seconds_per_call() -> float:
    """Measured cost the timing wrapper adds to one call of a trivial function."""

    def noop():
        return None

    tracer = Tracer(spans_dir="")
    traced = tracer.wrap(noop, "noop")
    clock = time.perf_counter
    best_raw = best_traced = float("inf")
    for _ in range(3):
        start = clock()
        for _ in range(PROBE_CALLS):
            noop()
        best_raw = min(best_raw, clock() - start)
        start = clock()
        for _ in range(PROBE_CALLS):
            traced()
        best_traced = min(best_traced, clock() - start)
    return max(best_traced - best_raw, 0.0) / PROBE_CALLS
