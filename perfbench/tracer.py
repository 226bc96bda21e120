"""In-memory span tracer for the traced benchmark run.

The tracer replaces named flattrack functions with timing wrappers in the
namespace of each module that looks them up (``flattrack.cli.parallel_map``,
``flattrack.regressor.gaze_to_screen``, ...), records one span per call and
restores the originals when tracing stops. A span holds its name, start, end,
parent span, operation id and thread. Self time is a span's duration minus
the part of it that its child spans cover.

A target that no longer exists (a refactor deleted or renamed it) is skipped,
and every metric that depends only on missing targets is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import threading
import time

import numpy as np

# span name -> "module:attribute" lookups to wrap. Each lookup is the name as
# seen by the code that calls it, so the wrapper sees every call made through
# that name.
TARGETS = {
    "eyesim.render_eye": ["flattrack.eyesim:render_eye"],
    "optics.simulate_measurement": ["flattrack.optics:simulate_measurement",
                                    "flattrack.cli:simulate_measurement"],
    "optics.save_image": ["flattrack.optics:save_image",
                          "flattrack.manifest:save_image"],
    "optics.load_image": ["flattrack.optics:load_image",
                          "flattrack.manifest:load_image"],
    # The reconstruct command dispatches through reconstruct() and a registry
    # of reconstructors, so the registry entry is wrapped too.
    "reconstruct.wiener_deconvolve": ["flattrack.reconstruct:wiener_deconvolve",
                                      "flattrack.reconstruct:_RECONSTRUCTORS[wiener]",
                                      "flattrack.cli:wiener_deconvolve"],
    "reconstruct.reconstruct": ["flattrack.cli:reconstruct"],
    "regressor.downsample_image": ["flattrack.regressor:downsample_image"],
    "regressor.forward": ["flattrack.regressor:forward"],
    "regressor.augment_affine": ["flattrack.regressor:augment_affine"],
    "regressor.forward_batch": ["flattrack.regressor:forward_batch"],
    "regressor.backward_batch": ["flattrack.regressor:backward_batch"],
    "regressor.batch_loss_and_grads": ["flattrack.regressor:batch_loss_and_grads"],
    "regressor.AdamState.step": ["flattrack.regressor:AdamState.step"],
    "regressor.evaluate": ["flattrack.regressor:evaluate",
                           "flattrack.pipeline:evaluate"],
    "geometry.gaze_to_screen": ["flattrack.regressor:gaze_to_screen"],
    "geometry.gaze_to_screen_jacobian": ["flattrack.regressor:gaze_to_screen_jacobian"],
    "geometry.screen_to_gaze": ["flattrack.manifest:screen_to_gaze"],
    "pipeline.train": ["flattrack.pipeline:train"],
    "pipeline.fine_tune": ["flattrack.pipeline:fine_tune"],
    "pipeline.parallel_map": ["flattrack.cli:parallel_map"],
    "manifest.read_manifest": ["flattrack.cli:read_manifest"],
    "manifest.save_sample": ["flattrack.cli:save_sample"],
    "manifest.write_rows": ["flattrack.cli:write_rows"],
}

# Spans that perform a Wiener reconstruction; numpy FFT calls made inside the
# outermost of them are charged to that reconstruction.
RECON_SPANS = ("reconstruct.wiener_deconvolve", "reconstruct.reconstruct")
# Derived metrics and the spans they are computed from; any other metric
# depends on the span named by dropping its last component.
DEPENDS = {
    "optics.io_bytes_written": ("optics.save_image",),
    "optics.io_bytes_read": ("optics.load_image",),
    "reconstruct.rfft2_per_call": RECON_SPANS,
    "reconstruct.computed_fft_bytes_per_call": RECON_SPANS,
    "regressor.skip_ratio": ("pipeline.train", "pipeline.fine_tune"),
}
CLI_COMMANDS = ("gen-psf", "render-dataset", "simulate", "reconstruct",
                "train", "eval", "grid-report")


def _resolve(lookup: str):
    """(owner, key) for "module:attr.path" or "module:attr.path[key]", or
    None. A bracketed key names an entry of a dict attribute."""
    mod_name, _, path = lookup.partition(":")
    path, _, item = path.partition("[")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if item:
        owner, attr = getattr(owner, attr, None), item.rstrip("]")
        if not isinstance(owner, dict):
            return None
    if not callable(_get(owner, attr)):
        return None
    return owner, attr


def _get(owner, key):
    return owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Records spans while active; wrappers are removed when it stops."""

    def __init__(self):
        # [name, start, end, parent index, op id, thread id]
        self.spans: list[list] = []
        self.fft: dict[int, list[int]] = {}  # recon span -> [rfft2 calls, bytes]
        self.io_bytes = {"written": 0, "read": 0}
        self.train_counts = {"skipped": 0, "attempted": 0}
        self.op = None
        self.absent = sorted(n for n, ls in TARGETS.items()
                             if not any(_resolve(x) for x in ls))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ---- span recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str, parent: int | None = None) -> int:
        st = self._stack()
        if parent is None and st:
            parent = st[-1]
        rec = [name, time.perf_counter(), None, parent, self.op,
               threading.get_ident()]
        with self._lock:
            self.spans.append(rec)
            idx = len(self.spans) - 1
        st.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def call(self, name, fn, args, kwargs, parent=None):
        idx = self.begin(name, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # ---- installing wrappers -----------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, wrapper)

    def start(self) -> None:
        for name, lookups in TARGETS.items():
            for lookup in lookups:
                where = _resolve(lookup)
                if where is not None:
                    owner, attr = where
                    self._patch(owner, attr, self._wrapper(name, _get(owner, attr)))
        for attr in ("rfft2", "irfft2"):
            self._patch(np.fft, attr, self._fft_wrapper(attr, getattr(np.fft, attr)))

    def stop(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            _set(owner, attr, orig)

    def _wrapper(self, name, orig):
        tracer = self
        if name == "pipeline.parallel_map":
            def parallel_map(fn, items, *args, **kwargs):
                idx = tracer.begin(name)
                try:
                    def item(x):
                        return tracer.call(name + ".item", fn, (x,), {}, parent=idx)
                    return orig(item, items, *args, **kwargs)
                finally:
                    tracer.end(idx)
            return parallel_map

        before = after = None
        if name == "optics.load_image":
            def before(args, kwargs):
                tracer._add_io("read", args, kwargs, 0)
        elif name == "optics.save_image":
            def after(args, kwargs, out):
                tracer._add_io("written", args, kwargs, 1)
        elif name in ("pipeline.train", "pipeline.fine_tune"):
            def after(args, kwargs, out):
                tracer._add_skips(args, out)

        def wrapper(*args, **kwargs):
            st = tracer._stack()
            if st and tracer.spans[st[-1]][0] == name:  # reached through two wrapped names
                return orig(*args, **kwargs)
            if before:
                before(args, kwargs)
            out = tracer.call(name, orig, args, kwargs)
            if after:
                after(args, kwargs, out)
            return out
        return wrapper

    def _fft_wrapper(self, attr, orig):
        tracer = self

        def wrapper(a, *args, **kwargs):
            out = orig(a, *args, **kwargs)
            st = tracer._stack()
            recon = next((i for i in st if tracer.spans[i][0] in RECON_SPANS), None)
            if recon is not None:
                acc = tracer.fft.setdefault(recon, [0, 0])
                acc[0] += attr == "rfft2"
                acc[1] += np.asarray(a).nbytes + out.nbytes
            return out
        return wrapper

    def _add_io(self, key, args, kwargs, pos) -> None:
        path = kwargs.get("path", args[pos] if len(args) > pos else None)
        try:
            size = os.path.getsize(path)
        except (OSError, TypeError):
            return
        with self._lock:
            self.io_bytes[key] += size

    def _add_skips(self, args, result) -> None:
        """Unprojectable samples skipped, from TrainResult.history."""
        history = getattr(result, "history", None)
        if history is None or len(args) < 3:
            return
        n_train, n_val = len(args[1]), len(args[2])
        for row in history:
            self.train_counts["skipped"] += (getattr(row, "skipped_train", 0)
                                             + getattr(row, "skipped_val", 0))
            self.train_counts["attempted"] += n_train + n_val

    # ---- metrics -----------------------------------------------------------

    def _durations_and_self(self):
        children: dict[int, list[tuple[float, float]]] = {}
        for rec in self.spans:
            if rec[3] is not None and rec[2] is not None:
                children.setdefault(rec[3], []).append((rec[1], rec[2]))
        dur: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        for idx, (name, t0, t1, *_rest) in enumerate(self.spans):
            if t1 is None:
                continue
            covered = 0.0
            hi = t0
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, hi), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    hi = c1
            dur.setdefault(name, []).append(t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - covered
        return dur, self_s

    def metrics(self, op_wall_s: float,
                overhead: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics and the names reported as absent.

        op_wall_s is the wall time of the traced operations and overhead the
        traced/untraced ratio. An absent metric reads 0 and is listed in the
        second return value.
        """
        dur, self_s = self._durations_and_self()

        def calls(n):
            return len(dur.get(n, ()))

        def p50_ms(n):
            return float(np.median(dur[n]) * 1e3) if n in dur else 0.0

        def total(n):
            return float(sum(dur.get(n, ())))

        roots = [i for i, rec in enumerate(self.spans) if rec[0] in RECON_SPANS
                 and not self._has_recon_ancestor(rec[3])]
        fft = [self.fft.get(i, [0, 0]) for i in roots]
        # Per parallel_map call: busy time of its items, and wall time times
        # the number of threads that ran them.
        pm_busy = pm_capacity = 0.0
        pm_items: dict[int, list[list]] = {}
        for rec in self.spans:
            if rec[0] == "pipeline.parallel_map.item" and rec[2] is not None:
                pm_items.setdefault(rec[3], []).append(rec)
        for parent, recs in pm_items.items():
            pm_busy += sum(r[2] - r[1] for r in recs)
            p = self.spans[parent]
            pm_capacity += (p[2] - p[1]) * len({r[5] for r in recs})
        skipped, attempted = self.train_counts["skipped"], self.train_counts["attempted"]

        m = {
            "eyesim.render_eye.calls": calls("eyesim.render_eye"),
            "eyesim.render_eye.ms_p50": p50_ms("eyesim.render_eye"),
            "optics.simulate_measurement.calls": calls("optics.simulate_measurement"),
            "optics.simulate_measurement.ms_p50": p50_ms("optics.simulate_measurement"),
            "optics.save_image.ms_p50": p50_ms("optics.save_image"),
            "optics.load_image.ms_p50": p50_ms("optics.load_image"),
            "optics.io_bytes_written": self.io_bytes["written"],
            "optics.io_bytes_read": self.io_bytes["read"],
            "reconstruct.wiener_deconvolve.calls": calls("reconstruct.wiener_deconvolve"),
            "reconstruct.wiener_deconvolve.ms_p50": p50_ms("reconstruct.wiener_deconvolve"),
            "reconstruct.wiener_deconvolve.self_s": self_s.get("reconstruct.wiener_deconvolve", 0.0),
            "reconstruct.rfft2_per_call": sum(f[0] for f in fft) / len(roots) if roots else 0.0,
            "reconstruct.computed_fft_bytes_per_call": sum(f[1] for f in fft) / len(roots) if roots else 0.0,
            "regressor.downsample_image.calls": calls("regressor.downsample_image"),
            "regressor.forward.calls": calls("regressor.forward"),
            "regressor.forward.ms_p50": p50_ms("regressor.forward"),
            "regressor.augment_affine.calls": calls("regressor.augment_affine"),
            "regressor.augment_affine.self_s": self_s.get("regressor.augment_affine", 0.0),
            "regressor.augment_affine.share": self_s.get("regressor.augment_affine", 0.0) / op_wall_s,
            "regressor.forward_batch.self_s": self_s.get("regressor.forward_batch", 0.0),
            "regressor.backward_batch.self_s": self_s.get("regressor.backward_batch", 0.0),
            "regressor.batch_loss_and_grads.self_s": self_s.get("regressor.batch_loss_and_grads", 0.0),
            "regressor.AdamState.step.self_s": self_s.get("regressor.AdamState.step", 0.0),
            "regressor.evaluate.self_s": self_s.get("regressor.evaluate", 0.0),
            "regressor.evaluate.s": total("regressor.evaluate"),
            "regressor.skip_ratio": skipped / attempted if attempted else 0.0,
            "geometry.gaze_to_screen.calls": calls("geometry.gaze_to_screen"),
            "geometry.gaze_to_screen_jacobian.calls": calls("geometry.gaze_to_screen_jacobian"),
            "geometry.screen_to_gaze.calls": calls("geometry.screen_to_gaze"),
            "pipeline.train.s": total("pipeline.train"),
            "pipeline.fine_tune.s": total("pipeline.fine_tune"),
            "pipeline.parallel_map.s": total("pipeline.parallel_map"),
            "pipeline.parallel_map.efficiency": pm_busy / pm_capacity if pm_capacity else 0.0,
            "manifest.read_manifest.ms": total("manifest.read_manifest") * 1e3,
            "manifest.save_sample.ms_p50": p50_ms("manifest.save_sample"),
            "manifest.write_rows.ms": total("manifest.write_rows") * 1e3,
            **{f"cli.{c}.s": total(f"cli.{c}") for c in CLI_COMMANDS},
            "trace_overhead": overhead,
        }
        gone = set(self.absent)
        absent = [k for k in m
                  if all(d in gone for d in DEPENDS.get(k, (k.rsplit(".", 1)[0],)))]
        for k in absent:
            m[k] = 0.0
        return {k: float(v) for k, v in m.items()}, absent

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, median ms."""
        dur, self_s = self._durations_and_self()
        return {n: {"calls": len(d), "total_s": float(sum(d)), "self_s": self_s[n],
                    "ms_p50": float(np.median(d) * 1e3)}
                for n, d in sorted(dur.items())}

    def _has_recon_ancestor(self, parent: int | None) -> bool:
        while parent is not None:
            if self.spans[parent][0] in RECON_SPANS:
                return True
            parent = self.spans[parent][3]
        return False
