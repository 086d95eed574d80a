"""Spans and counts at the public boundaries of the mergeguard layers.

The tracer wraps functions where the engine looks them up at call time
(module globals of ``mergeguard.sim`` and ``mergeguard.perception``)
and methods on their classes, so no file of the package changes.  Each
call records a span (name, start, end, parent, job) in flat arrays kept
in memory; self time is derived from them afterwards as the span's
duration minus the durations of its direct children.

``CalibrationModel.raw`` runs about sixty times per detection, so it is
counted only: a timing wrapper there would swamp what it measures.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from mergeguard import calibration, channel, decision, moderator, perception, sim


def _copy(values: array) -> np.ndarray:
    # a copy, so that no buffer export keeps the array from growing
    return np.frombuffer(values, dtype=values.typecode).copy()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("H")
        self.parent = array("q")
        self.job = array("I")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.job_id = 0
        self.counts: Counter = Counter()
        self.raw_calls = 0
        self._originals: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark around one stage of a job.

        Counted ``CalibrationModel.raw`` calls made inside it are added to
        the count ``<name>.raw_calls``.
        """
        nid = self._name_id(name)
        raw_before = self.raw_calls
        idx = len(self.start)
        parent = self.current
        self.current = idx
        self.name_ix.append(nid)
        self.parent.append(parent)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.current = parent
            self.counts[f"{name}.raw_calls"] += self.raw_calls - raw_before

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        fn = owner.__dict__[attr]
        nid = self._name_id(name)
        clock = time.perf_counter
        name_ix, parents, jobs = self.name_ix, self.parent, self.job
        starts, ends = self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = tracer.current
            tracer.current = idx
            name_ix.append(nid)
            parents.append(parent)
            jobs.append(tracer.job_id)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if after is not None:
                after(result, args)
            return result

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def _count_raw(self) -> None:
        fn = calibration.CalibrationModel.__dict__["raw"]
        tracer = self

        def counted(model, s):
            tracer.raw_calls += 1
            return fn(model, s)

        self._originals.append((calibration.CalibrationModel, "raw", fn))
        calibration.CalibrationModel.raw = counted

    def install(self) -> None:
        counts = self.counts

        def on_encode(data, args):
            counts["messages.encode.bytes"] += len(data)

        def on_broadcast(deliveries, args):
            counts["channel.receivers_offered"] += len(args[3])
            counts["channel.delivered"] += len(deliveries)

        def on_observe(detections, args):
            counts["sim.detections"] += len(detections)

        def on_cpm(msg, args):
            counts["perception.cpm_objects"] += len(msg.payload.objects)

        def on_fuse(kept, args):
            counts["fusion.camera_in"] += len(args[1])
            counts["fusion.camera_kept"] += len(kept) - len(args[0])

        def on_step(result, args):
            counts["decision.stops"] += result.action is decision.Action.STOP

        def on_relay(relayed, args):
            counts["moderator.relayed"] += relayed is not None

        self._wrap(sim, "encode_message", "messages.encode", on_encode)
        self._wrap(sim, "decode_message", "messages.decode")
        self._wrap(sim, "fuse", "fusion.fuse", on_fuse)
        self._wrap(sim, "step", "decision.step", on_step)
        self._wrap(sim, "eval_trajectory", "sim.eval_trajectory")
        self._wrap(perception, "estimate_distance", "calibration.estimate_distance")
        self._wrap(channel.Channel, "broadcast", "channel.broadcast", on_broadcast)
        self._wrap(sim.SensorModel, "observe", "sim.observe", on_observe)
        self._wrap(perception.PerceptionPipeline, "ingest", "perception.ingest")
        self._wrap(perception.PerceptionPipeline, "assemble_cpm",
                   "perception.assemble_cpm", on_cpm)
        self._wrap(moderator.Moderator, "cam_tick", "moderator.cam_tick")
        self._wrap(moderator.Moderator, "relay_denm", "moderator.relay_denm", on_relay)
        self._wrap(moderator.Moderator, "actuate", "moderator.actuate")
        self._wrap(moderator.Moderator, "due_actuations", "moderator.due_actuations")
        self._wrap(sim.EventLog, "append", "sim.append")
        self._count_raw()

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over every recorded span."""
        names = _copy(self.name_ix)
        parents = _copy(self.parent)
        dur = _copy(self.end) - _copy(self.start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=own, minlength=n)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def dump(self, path: Path, job_names: list[str]) -> None:
        """Write every span and count; load with ``numpy.load``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), job_names=np.array(job_names),
            name=_copy(self.name_ix), parent=_copy(self.parent),
            job=_copy(self.job), start=_copy(self.start), end=_copy(self.end),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)]))
