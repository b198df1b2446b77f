"""Span tracing from outside the program, and the per-layer metrics it yields.

``install()`` wraps the public entry points of each ``prilora`` module (and
each differentiable op of the tape, forward and backward) in place, so a
traced run executes the same code as an untraced one with a span around every
call. A span is ``[name, tag, parent, start, end, n]``: ``parent`` indexes
the enclosing span of the same process (-1 at the root), ``tag`` names the
adapted matrix an op ran for, and ``n`` is a count the span carries (1 for an
op that put a node on the tape, the byte count of a checkpoint). Spans stay
in memory and are written out when the run ends.

Pool workers forked by ``prilora ablate`` inherit the wrappers. Each worker
starts every variant run with an empty span list and hands the variant's
spans back through a file, so every span list here belongs to one process.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from collections import defaultdict
from pathlib import Path

from prilora import checkpoint, cli, config, model, numerics, prune_engine, tasks, train_harness

from clocks import mark_first_step
from metrics import MATRIX_KINDS, MAX_BLOCKS, OP_FUNCS, PRUNE_CALLS

_now = time.perf_counter

if model.MATRIX_KINDS != MATRIX_KINDS:
    raise RuntimeError(f"metrics.py names matrices {MATRIX_KINDS}, the model has {model.MATRIX_KINDS}")

STEP = "train_harness.step"
RUN = "cli.run"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.owner: list[str] = [""]  # adapted matrix whose forward is running

    def reset(self) -> None:
        del self.spans[:]
        self.stack[:] = [-1]
        self.owner[:] = [""]

    def open(self, name: str, t: float) -> list:
        rec = [name, "", self.stack[-1], t, 0.0, 0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec: list, t: float) -> None:
        self.stack.pop()
        rec[4] = t

    def wrap(self, fn, name: str, count=None):
        """Time every call of fn; count(result) fills the span's n."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, "", stack[-1], _now(), 0.0, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = _now()
            if count is not None:
                rec[5] = count(out)
            return out

        return traced

    def wrap_op(self, fn, kind: str):
        """Time an op's forward call and, if it joined the tape, its backward."""
        spans, stack, owner = self.spans, self.stack, self.owner
        fwd_name, bwd_name = f"numerics.{kind}", f"numerics.{kind}.bwd"

        def timed_backward(backward, tag):
            def run(g):
                rec = [bwd_name, tag, stack[-1], _now(), 0.0, 0]
                spans.append(rec)
                stack.append(len(spans) - 1)
                try:
                    backward(g)
                finally:
                    stack.pop()
                    rec[4] = _now()

            return run

        def traced(*args, **kwargs):
            rec = [fwd_name, owner[-1], stack[-1], _now(), 0.0, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = _now()
            if out._backward is not None:
                rec[5] = 1
                out._backward = timed_backward(out._backward, rec[1])
            return out

        return traced

    def wrap_adapter_forward(self, fn):
        spans, stack, owner = self.spans, self.stack, self.owner

        def traced(layer, pair, x):
            tag = pair.frozen_ref if pair is not None else ""
            rec = ["adapter.forward", tag, stack[-1], _now(), 0.0, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            owner.append(tag)
            try:
                return fn(layer, pair, x)
            finally:
                owner.pop()
                stack.pop()
                rec[4] = _now()

        return traced

    def wrap_model_forward(self, fn):
        train_fwd, eval_fwd = self.wrap(fn, "model.forward_train"), self.wrap(fn, "model.forward_eval")

        def traced(*args, **kwargs):
            if numerics._grad_enabled:
                return train_fwd(*args, **kwargs)
            return eval_fwd(*args, **kwargs)

        return traced


class StepClock:
    """train()'s clock: odd calls open a step span, even calls close it."""

    def __init__(self, tracer: Tracer, marker_dir: Path):
        self.tracer = tracer
        self.marker_dir = marker_dir
        self.step: list | None = None
        self.marked_pid: int | None = None

    def perf_counter(self) -> float:
        t = time.perf_counter()
        if self.step is None:
            if self.marked_pid != os.getpid():
                self.marked_pid = os.getpid()
                mark_first_step(self.marker_dir, t)
            self.step = self.tracer.open(STEP, t)
        else:
            self.tracer.close(self.step, t)
            self.step = None
        return t

    def __getattr__(self, name):
        return getattr(time, name)


def _patch(owner, attr: str, wrapper_of) -> None:
    setattr(owner, attr, wrapper_of(getattr(owner, attr)))


def install(tracer: Tracer, marker_dir: Path, spans_dir: Path) -> None:
    """Wrap every traced entry point; the program itself is not edited."""
    for kind, names in OP_FUNCS.items():
        for name in names:
            _patch(numerics, name, lambda fn, kind=kind: tracer.wrap_op(fn, kind))
    _patch(numerics.Tensor, "backward", lambda fn: tracer.wrap(fn, "numerics.backward"))
    _patch(model, "adapter_forward", tracer.wrap_adapter_forward)
    _patch(model.ToyModel, "forward", tracer.wrap_model_forward)

    build = tracer.wrap(train_harness.build_model, "model.build")
    train_harness.build_model = cli.build_model = build
    _patch(tasks.SyntheticTask, "build", lambda fn: tracer.wrap(fn, "tasks.build"))
    load = tracer.wrap(config.load_config, "config.load")
    config.load_config = cli.load_config = load

    _patch(prune_engine, "batch_input_norm",
           lambda fn: tracer.wrap(fn, "prune_engine.batch_input_norm"))
    for name in PRUNE_CALLS:
        # train() holds its own references to these; ablation_prune calls
        # the module's, so both are wrapped
        traced = tracer.wrap(getattr(prune_engine, name), f"prune_engine.{name}")
        setattr(prune_engine, name, traced)
        setattr(train_harness, name, traced)

    for opt in (train_harness.Adam, train_harness.Sgd):
        _patch(opt, "step", lambda fn: tracer.wrap(fn, "train_harness.optimizer"))
    _patch(train_harness, "evaluate", lambda fn: tracer.wrap(fn, "train_harness.evaluate"))
    _patch(checkpoint, "capture_state",
           lambda fn: tracer.wrap(fn, "checkpoint.capture", count=len))
    _patch(checkpoint, "restore_state", lambda fn: tracer.wrap(fn, "checkpoint.restore"))

    clock = StepClock(tracer, marker_dir)
    train_harness.time = clock
    traced_train = tracer.wrap(train_harness.train, "train_harness.train")

    def train(*args, **kwargs):
        clock.step = None
        return traced_train(*args, **kwargs)

    train_harness.train = cli.train = train
    _patch(cli, "main", lambda fn: tracer.wrap(fn, "cli.main"))
    cli._execute_run = _traced_execute_run(tracer, cli._execute_run, spans_dir)


def _traced_execute_run(tracer: Tracer, fn, spans_dir: Path):
    """One span per training run of the CLI; pool workers ship theirs back."""
    root_pid = os.getpid()
    traced = tracer.wrap(fn, RUN)
    seq = [0]

    def execute_run(*args):
        if os.getpid() == root_pid:
            return traced(*args)
        tracer.reset()
        try:
            return traced(*args)
        finally:
            seq[0] += 1
            path = spans_dir / f"worker.{os.getpid()}.{seq[0]}.pickle"
            path.write_bytes(pickle.dumps(tracer.spans, protocol=pickle.HIGHEST_PROTOCOL))
            tracer.reset()

    # the process pool pickles the function by name; make it resolve to this
    execute_run.__module__ = fn.__module__
    execute_run.__qualname__ = fn.__qualname__
    return execute_run


def collect(tracer: Tracer, spans_dir: Path) -> list[list[list]]:
    """Span lists of this process and of every worker run, in that order."""
    procs = [tracer.spans]
    for path in sorted(spans_dir.glob("worker.*.pickle")):
        procs.append(pickle.loads(path.read_bytes()))
        path.unlink()
    return procs


def write_spans(procs: list[list[list]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("proc\tid\tparent\tname\ttag\tstart_s\tend_s\tn\n")
        for p, spans in enumerate(procs):
            for i, (name, tag, parent, start, end, n) in enumerate(spans):
                fp.write(f"{p}\t{i}\t{parent}\t{name}\t{tag}\t{start!r}\t{end!r}\t{n}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


# spans a step spends outside its own code; the rest of the step is self time
_STEP_LAYERS = {"model.forward_train", "numerics.backward", "train_harness.optimizer"} | {
    f"prune_engine.{name}" for name in PRUNE_CALLS
}
_FWD_OPS = {f"numerics.{kind}" for kind in OP_FUNCS}
_BWD_OPS = {f"numerics.{kind}.bwd" for kind in OP_FUNCS}
_TOTALS = {"model.build", "tasks.build", "config.load", "train_harness.evaluate",
           "checkpoint.capture", "checkpoint.restore", "model.forward_eval", "cli.main"} | {
    f"prune_engine.{name}" for name in PRUNE_CALLS
}


def per_layer_metrics(procs: list[list[list]], zeros_written: int, adapter_params: int,
                      jobs: int) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (trace.overhead_ratio aside).

    Per-step figures count only spans inside training steps, divided by the
    number of steps; per-event figures divide by the number of prune events.
    """
    in_step: dict[str, float] = defaultdict(float)  # seconds inside steps
    calls: dict[str, int] = defaultdict(int)  # calls inside steps
    total: dict[str, float] = defaultdict(float)  # seconds anywhere
    count: dict[str, int] = defaultdict(int)  # calls anywhere
    step_durs: list[float] = []
    step_self = 0.0
    event_ms: list[float] = []
    tape_nodes = 0
    capture_bytes = 0
    run_durs: list[float] = []
    run_self = 0.0

    for spans in procs:
        step_of = [-1] * len(spans)
        child_time = [0.0] * len(spans)
        layer_time = [0.0] * len(spans)
        events: dict[int, list[float]] = {}
        for i, (name, tag, parent, start, end, n) in enumerate(spans):
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
                if name in _STEP_LAYERS and spans[parent][0] == STEP:
                    layer_time[parent] += dur
                    if name.startswith("prune_engine."):
                        bounds = events.setdefault(parent, [start, end])
                        bounds[0], bounds[1] = min(bounds[0], start), max(bounds[1], end)
            if name == STEP:
                step_of[i] = i
                step_durs.append(dur)
                continue
            step = step_of[parent] if parent >= 0 else -1
            step_of[i] = step
            if name in _TOTALS:
                total[name] += dur
                count[name] += 1
                if name == "checkpoint.capture":
                    capture_bytes += n
            if step < 0:
                continue
            in_step[name] += dur
            calls[name] += 1
            if name in _FWD_OPS:
                tape_nodes += n
            elif name in _BWD_OPS or name == "adapter.forward":
                if tag:
                    side = "fwd" if name == "adapter.forward" else "bwd"
                    in_step[f"adapter.{tag}.{side}"] += dur
        for i, (name, *_rest) in enumerate(spans):
            if name == STEP:
                step_self += spans[i][4] - spans[i][3] - layer_time[i]
            elif name == RUN:
                run_durs.append(spans[i][4] - spans[i][3])
                run_self += run_durs[-1] - child_time[i]
        event_ms.extend(1e3 * (hi - lo) for lo, hi in events.values())

    steps = len(step_durs)
    if steps < 2:
        raise RuntimeError(f"trace saw {steps} training steps; need at least 2")
    per_step = 1e3 / steps
    events_n = len(event_ms)
    per_event = 1e3 / events_n if events_n else 0.0
    out: dict[str, float] = {
        "numerics.tape_nodes_per_step": tape_nodes / steps,
        "numerics.backward_ms_per_step": in_step["numerics.backward"] * per_step,
    }
    for kind in OP_FUNCS:
        out[f"numerics.{kind}.calls_per_step"] = calls[f"numerics.{kind}"] / steps
        out[f"numerics.{kind}.fwd_ms_per_step"] = in_step[f"numerics.{kind}"] * per_step
        out[f"numerics.{kind}.bwd_ms_per_step"] = in_step[f"numerics.{kind}.bwd"] * per_step
    out["adapter.forward_ms_per_step"] = in_step["adapter.forward"] * per_step
    out["adapter.forward_calls_per_step"] = calls["adapter.forward"] / steps
    for i in range(MAX_BLOCKS):
        for kind in MATRIX_KINDS:
            for side in ("fwd", "bwd"):
                out[f"adapter.blocks.{i}.{kind}.{side}_ms_per_step"] = (
                    in_step[f"adapter.blocks.{i}.{kind}.{side}"] * per_step
                )
    evals = count["model.forward_eval"]
    out.update({
        "model.build_s": total["model.build"],
        "model.forward_train_ms_per_step": in_step["model.forward_train"] * per_step,
        "model.forward_eval_ms_per_batch": 1e3 * total["model.forward_eval"] / evals if evals else 0.0,
        "prune_engine.batch_input_norm.ms_per_step": in_step["prune_engine.batch_input_norm"] * per_step,
        "prune_engine.batch_input_norm.calls_per_step": calls["prune_engine.batch_input_norm"] / steps,
    })
    for name in PRUNE_CALLS:
        out[f"prune_engine.{name}_ms"] = total[f"prune_engine.{name}"] * per_event
    captures = count["checkpoint.capture"]
    restores = count["checkpoint.restore"]
    main_s = total["cli.main"]
    out.update({
        "prune_engine.event_ms": sum(event_ms) / events_n if events_n else 0.0,
        "prune_engine.events": events_n,
        "prune_engine.zeros_written": zeros_written,
        "train_harness.step_ms_p50": 1e3 * statistics.median(step_durs),
        "train_harness.step_ms_p98": 1e3 * statistics.quantiles(step_durs, n=50)[-1],
        "train_harness.optimizer_ms_per_step": in_step["train_harness.optimizer"] * per_step,
        "train_harness.self_ms_per_step": step_self * per_step,
        "train_harness.evaluate_s": total["train_harness.evaluate"],
        "checkpoint.capture_ms": 1e3 * total["checkpoint.capture"] / captures if captures else 0.0,
        "checkpoint.capture_calls": captures,
        "checkpoint.restore_ms": 1e3 * total["checkpoint.restore"] / restores if restores else 0.0,
        "checkpoint.bytes": capture_bytes,
        "tasks.build_s": total["tasks.build"],
        "config.load_s": total["config.load"],
        "rank_plan.adapter_params": adapter_params,
        "cli.artifacts_s": run_self,
        "cli.variant_s_max": max(run_durs, default=0.0),
        "cli.pool_busy_frac": sum(run_durs) / (jobs * main_s) if main_s else 0.0,
    })
    return out
