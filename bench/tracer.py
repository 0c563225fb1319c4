"""Outside-in tracer for one `sparse_rnnt.cli decode` process.

The tracer replaces public module attributes at their call sites with
wrappers that record spans (name, start, end, parent). The two hot leaf
calls of the decoder, `predict_step` and `joint`, are not spans: each
call adds to a count and a summed time on the innermost open span.
Everything stays in memory until the process ends, then one JSON file
is written. Nothing in `src/` is edited; untraced runs never import
this file.

Run as a script it traces one CLI invocation:

    PYTHONPATH=src python3 bench/tracer.py trace.json decode --model m.model a.wav
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time

import numpy as np

# (module, attribute, kind, note): every call site the traced run wraps.
# A note pulls counts out of the call's arguments and result after the
# span has closed, so it adds nothing to the span's own time.
TARGETS = [
    ("sparse_rnnt.cli", "load_model", "span", None),
    ("sparse_rnnt.cli", "decode_file", "span", None),
    ("sparse_rnnt.pipeline", "read_wav", "span", None),
    # _segments_for runs on every workload (doi_split inside it only on
    # doi ones), so the segmentation time is measured, never a fixed 0.
    ("sparse_rnnt.pipeline", "_segments_for", "span",
     lambda args, out: {"segments": len(out)}),
    ("sparse_rnnt.pipeline", "doi_merge", "span", None),
    ("sparse_rnnt.pipeline", "log_mel_spectrogram", "span",
     lambda args, out: {"frames": out.num_frames}),
    ("sparse_rnnt.pipeline", "encode", "span",
     lambda args, out: {"frames": out[0].length,
                        "diag_bytes": ndarray_bytes(out[1])}),
    ("sparse_rnnt.pipeline", "decode_with_srs", "span",
     lambda args, out: {"frames": args[0].length,
                        "tokens": len(out.token_ids)}),
    ("sparse_rnnt.encoder", "conv_subsample", "span", None),
    ("sparse_rnnt.encoder", "conformer_block_forward", "span", None),
    ("sparse_rnnt.encoder", "sparse_attend", "span",
     lambda args, out: {"rows": args[0].shape[0] * args[1].num_heads}),
    ("sparse_rnnt.transducer", "beam_search_step", "span", None),
    ("sparse_rnnt.transducer", "reset_prediction_states", "span", None),
    ("sparse_rnnt.transducer", "predict_step", "leaf", None),
    ("sparse_rnnt.transducer", "joint", "leaf", None),
]


def ndarray_bytes(obj, seen=None) -> int:
    """Bytes of the distinct ndarrays reachable through dataclasses and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(ndarray_bytes(getattr(obj, f.name), seen)
                   for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return sum(ndarray_bytes(x, seen) for x in obj)
    return 0


class Tracer:
    """Spans and leaf aggregates for one process; install, run, uninstall."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._root_leaf: dict = {}
        self._saved: list[tuple] = []

    def _span(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "leaf": {}, "start": time.perf_counter()}
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if note is not None:
                span.update(note(args, out))
            return out
        return wrapper

    def _leaf(self, name, fn):
        stack, root = self._stack, self._root_leaf
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg = (stack[-1]["leaf"] if stack else root).setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, kind, note in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise AttributeError(
                    f"{module_name} has no attribute {attr!r}; the benchmark's "
                    f"trace targets no longer match the program")
            original = getattr(module, attr)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            wrapped = (self._leaf(name, original) if kind == "leaf"
                       else self._span(name, original, note))
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)

    def uninstall(self) -> bool:
        """Put every original back; True when all attributes are restored."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._saved)
        self._saved = []
        return restored

    def to_json(self) -> dict:
        return {"spans": self.spans, "root_leaf": self._root_leaf}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced decode process (times in seconds)."""
    spans = trace["spans"]
    by_name: dict[str, list[dict]] = {}
    child_time: dict[int, float] = {}
    leaf: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    for agg in [trace["root_leaf"]] + [s["leaf"] for s in spans]:
        for name, (n, t) in agg.items():
            total = leaf.setdefault(name, [0, 0.0])
            total[0] += n
            total[1] += t

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def self_time(name):
        return sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                   - sum(t for _, t in s["leaf"].values())
                   for s in by_name.get(name, []))

    def count(name):
        return len(by_name.get(name, []))

    def field(name, key):
        return sum(s[key] for s in by_name.get(name, []))

    frames = field("pipeline.decode_with_srs", "frames")
    lstm_steps, lstm_s = leaf.get("transducer.predict_step", (0, 0.0))
    joint_calls, joint_s = leaf.get("transducer.joint", (0, 0.0))
    tokens = field("pipeline.decode_with_srs", "tokens")
    per_frame = (lambda n: n / frames) if frames else (lambda n: 0.0)
    return {
        "frontend.read_s": total("pipeline.read_wav"),
        "frontend.logmel_s": total("pipeline.log_mel_spectrogram"),
        "frontend.frames": field("pipeline.log_mel_spectrogram", "frames"),
        "segmentation.time_s": total("pipeline._segments_for") + total("pipeline.doi_merge"),
        "segmentation.segments": field("pipeline._segments_for", "segments"),
        "encoder.time_s": total("pipeline.encode"),
        "encoder.subsample_s": total("encoder.conv_subsample"),
        "encoder.block_self_s": self_time("encoder.conformer_block_forward"),
        "encoder.frames": field("pipeline.encode", "frames"),
        "encoder.diag_mb": field("pipeline.encode", "diag_bytes") / 1e6,
        "attention.time_s": total("encoder.sparse_attend"),
        "attention.calls": count("encoder.sparse_attend"),
        "attention.rows": field("encoder.sparse_attend", "rows"),
        "transducer.time_s": total("pipeline.decode_with_srs"),
        "transducer.search_self_s": self_time("transducer.beam_search_step"),
        "transducer.lstm_steps": lstm_steps,
        "transducer.lstm_s": lstm_s,
        "transducer.joint_calls": joint_calls,
        "transducer.joint_s": joint_s,
        "transducer.beam_steps": count("transducer.beam_search_step"),
        "transducer.srs_resets": count("transducer.reset_prediction_states"),
        "transducer.tokens": tokens,
        "transducer.lstm_steps_per_frame": per_frame(lstm_steps),
        "transducer.joint_calls_per_frame": per_frame(joint_calls),
        "transducer.tokens_per_frame": per_frame(tokens),
        "pipeline.utt_s": total("cli.decode_file"),
        "pipeline.self_s": self_time("cli.decode_file"),
        "model_io.load_s": total("cli.load_model"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_OUT <sparse_rnnt.cli arguments>", file=sys.stderr)
        return 2
    from sparse_rnnt import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv[1:])
    finally:
        restored = tracer.uninstall()
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.to_json(), restored=restored), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
