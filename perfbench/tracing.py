"""Span tracing of the `lort` layers from outside the package.

`tracing(recorder)` replaces the public functions of the layer modules
(`signal`, `arrays`, `attention`, `local_refine`, `model`, `objectives`,
`weights`) with timing wrappers and restores them on exit. Modules bind
kernels with `from .arrays import conv2d`, so a wrapper is rebound under
every name, in every `lort` module, that holds the original function.

Spans are kept in memory as `[name, start, end, parent, op, macs]` lists.
`macs` is derived from the argument and result shapes of the kernels that
count work (`conv2d`, `taylor_attention`, `softmax_attention`), with the
same formulas `arrays.add_macs` is fed with, so their per-op sum must equal
the `FlopMeter` total of the op. A call that slips past a wrapper breaks
that equality.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

import lort

# (span name, module, attribute path)
TARGETS = [
    ("signal.read_wav", "signal", "read_wav"),
    ("signal.write_wav", "signal", "write_wav"),
    ("signal.stft", "signal", "stft"),
    ("signal.istft", "signal", "istft"),
    ("arrays.conv2d", "arrays", "conv2d"),
    ("arrays.normalize", "arrays", "normalize"),
    ("attention.taylor_attention", "attention", "taylor_attention"),
    ("attention.softmax_attention", "attention", "softmax_attention"),
    ("attention.msar_correct", "attention", "msar_correct"),
    ("attention.scea", "attention", "scea"),
    ("local_refine.lrc_block", "local_refine", "lrc_block"),
    ("local_refine.cfn", "local_refine", "cfn"),
    ("local_refine.tf_dlc", "local_refine", "tf_dlc"),
    ("model.forward", "model", "forward"),
    ("model.encoder", "model", "Encoder.__call__"),
    ("model.embed", "model", "Dsdcn.__call__"),
    ("model.blocks", "model", "Lrtt.__call__"),
    ("model.mag_decoder", "model", "MagDecoder.mask"),
    ("model.phase_decoder", "model", "PhaseDecoder.phase"),
    ("objectives.evaluate_losses", "objectives", "evaluate_losses"),
    ("objectives.discriminate", "objectives", "discriminate"),
    ("objectives.loss_consistency", "objectives", "loss_consistency"),
    ("weights.load", "weights", "WeightStore.load"),
]

NAME, START, END, PARENT, OP, MACS = range(6)
CONV_CLASSES = ("pointwise", "spatial", "axial", "depthwise", "strided", "transposed")

# Every span name a run can report; conv2d spans are named by kernel class.
LAYER_NAMES = [f"arrays.conv2d.{c}" for c in CONV_CLASSES] + [
    name for name, _, _ in TARGETS if name != "arrays.conv2d"]


class TracingError(RuntimeError):
    """A traced function is not where the target table says it is."""


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str, name_of=None, macs_of=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_of(args, kwargs) if name_of else name, 0.0, 0.0,
                    stack[-1] if stack else None, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if macs_of is not None:
                span[MACS] = macs_of(args, kwargs, out)
            return out

        return traced


def _arg(args, kwargs, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def conv_class(w, spec) -> str:
    """Kernel class of one conv2d call, from its ConvSpec and weight shape."""
    if spec.transposed:
        return "transposed"
    if tuple(spec.stride) != (1, 1):
        return "strided"
    if spec.groups > 1:
        return "depthwise" if w.shape[1] == 1 else "grouped"
    kh, kw = spec.kernel
    if kh == kw == 1:
        return "pointwise"
    if kh == 1 or kw == 1:
        return "axial"
    return "spatial"


def _conv_name(args, kwargs) -> str:
    return "arrays.conv2d." + conv_class(_arg(args, kwargs, 1, "w"), _arg(args, kwargs, 3, "spec"))


def _conv_macs(args, kwargs, out) -> int:
    x, w, spec = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w"), _arg(args, kwargs, 3, "spec")
    positions = x.size if spec.transposed else out.size
    return positions * w.shape[1] * spec.kernel[0] * spec.kernel[1]


def _taylor_macs(args, kwargs, out) -> int:
    h, n, dh = _arg(args, kwargs, 0, "ain").q.shape
    return 2 * h * n * dh * dh + 2 * h * n * dh


def _softmax_macs(args, kwargs, out) -> int:
    h, n, dh = _arg(args, kwargs, 0, "ain").q.shape
    return 2 * h * n * n * dh


_NAMERS = {"arrays.conv2d": _conv_name}
_MAC_COUNTERS = {
    "arrays.conv2d": _conv_macs,
    "attention.taylor_attention": _taylor_macs,
    "attention.softmax_attention": _softmax_macs,
}


def _lort_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "lort" or k.startswith("lort."))]


@contextlib.contextmanager
def tracing(recorder: Recorder, op: int | None = None):
    """Install wrappers that record spans into `recorder`, tagged with `op`."""
    recorder.op = op
    undo: list[tuple[object, str, object]] = []
    try:
        for name, mod_name, path in TARGETS:
            module = getattr(lort, mod_name)
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            traced = recorder.wrap(fn, name, _NAMERS.get(name), _MAC_COUNTERS.get(name))
            if owner_path:
                # methods are looked up on the class, so one binding suffices
                undo.append((owner, attr, raw))
                setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
                continue
            bound = [(mod, key) for mod in _lort_modules()
                     for key, val in vars(mod).items() if val is fn]
            if (module, attr) not in bound:
                raise TracingError(f"{name} is not bound in {module.__name__}")
            for mod, key in bound:
                undo.append((mod, key, fn))
                setattr(mod, key, traced)
        yield recorder
    finally:
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)
        recorder.op = None


def op_layers(spans: list[list], first: int) -> dict[str, dict[str, float]]:
    """Per-layer totals of the op whose spans are `spans[first:]`:
    calls, inclusive `s`, `self_s` and MACs."""
    child = defaultdict(float)
    for s in spans[first:]:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict[str, float]] = {}
    for i in range(first, len(spans)):
        s = spans[i]
        row = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "macs": 0})
        dur = s[END] - s[START]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child[i]
        row["macs"] += s[MACS]
    return out
