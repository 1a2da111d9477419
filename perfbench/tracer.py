"""Spans around the public functions of each vosmem layer, patched from outside.

Each wrapper is installed where the caller looks the name up: patching
``vosmem.harness.similarity`` sees only the readout, while
``vosmem.memory.similarity`` sees only prune scoring. Spans are kept in
memory as ``[name, start, end, parent, run]`` (parent is an index into the
span list, run is the operation number) and written out when the run ends.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import vosmem.cli
import vosmem.core
import vosmem.harness
import vosmem.io
import vosmem.memory
import vosmem.metrics


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # bytes, pixels, fired... summed per name
        self.run = 0
        self.enabled = False
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        """Return fn recording one span per call; name may be a callable of (args, kwargs).

        ``note(tracer, index, args, kwargs, result)`` runs after the span closes
        and adds the layer's counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            index = len(tracer.spans)
            record = [span_name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.run]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if note is not None:
                note(tracer, index, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, note=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, note))

    def layer_totals(self):
        """(calls per name, self seconds per name, seconds covered by root spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        covered = 0.0
        for (name, start, end, parent, run), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - inner
            if parent is None:
                covered += end - start
        return calls, self_s, covered

    def write(self, path) -> None:
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def _note_prune(tracer, index, args, kwargs, outcome):
    tracer.counts["memory.prune_step.fired"] += outcome.fired
    tracer.counts["memory.prune_step.retained"] += len(outcome.retained)


def _note_pixels(tracer, index, args, kwargs, result):
    tracer.counts["metrics.dilate_disk.pixels"] += int(result.size)


def _note_no_dilate(tracer, index, args, kwargs, result):
    # spans opened after this one were opened inside it: none means no dilation
    tracer.counts["metrics.boundary_f.no_dilate"] += len(tracer.spans) == index + 1


def _note_file_bytes(key):
    def note(tracer, index, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return note


def _note_written_bytes(tracer, index, args, kwargs, result):
    tracer.counts["io.atomic_write_bytes.bytes"] += len(_arg(args, kwargs, 1, "data"))


def install() -> Tracer:
    """Patch every traced layer entry point and return the (disabled) tracer."""
    t = Tracer()
    core, harness, memory = vosmem.core, vosmem.harness, vosmem.memory
    metrics, io, cli = vosmem.metrics, vosmem.io, vosmem.cli
    t.patch(core.FeatureMap, "__init__", "core.FeatureMap")
    t.patch(harness, "encode_frame", "harness.encode_frame")
    for owner in (harness, cli):
        t.patch(owner, "generate_scene", "harness.generate_scene")
        t.patch(owner, "track_sequence", "harness.track_sequence")
    for owner in (metrics, cli):
        t.patch(owner, "evaluate", "metrics.evaluate")
    t.patch(harness, "similarity", "harness.readout")
    t.patch(memory.MemoryBank, "prune_step", "memory.prune_step", _note_prune)
    t.patch(memory.MemoryBank, "append", "memory.append")
    t.patch(memory, "similarity",
            lambda args, kwargs: f"memory.similarity.{_arg(args, kwargs, 0, 'metric')}")
    t.patch(metrics, "dilate_disk", "metrics.dilate_disk", _note_pixels)
    t.patch(metrics, "boundary_f", "metrics.boundary_f", _note_no_dilate)
    t.patch(metrics, "jaccard", "metrics.jaccard")
    t.patch(metrics, "dice", "metrics.dice")
    t.patch(io, "read_mask", "io.read_mask", _note_file_bytes("io.read_mask.bytes"))
    t.patch(io, "read_tensor", "io.read_tensor", _note_file_bytes("io.read_tensor.bytes"))
    t.patch(io, "atomic_write_bytes", "io.atomic_write_bytes", _note_written_bytes)
    t.patch(io, "track_records", "io.track_records")
    t.patch(cli, "run_command", "cli.run_command")
    return t
