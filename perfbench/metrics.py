"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same names; the self-test checks the two agree.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "step_ms": "ms",
    "peak_rss_mb": "MB",
}

# op kind -> the numerics functions that implement it
OP_FUNCS = {
    "matmul": ("matmul",),
    "add": ("add",),
    "mul": ("mul",),
    "layernorm": ("layernorm",),
    "softmax": ("softmax",),
    "relu": ("relu",),
    "softmax_cross_entropy": ("softmax_cross_entropy",),
    "view": ("_reshape", "_swapaxes"),
    "reduce": ("_reduce",),
}
MATRIX_KINDS = ("wq", "wk", "wv", "wo", "w1", "w2")
MAX_BLOCKS = 4  # the deepest workload (wide) has four blocks
PRUNE_CALLS = ("importance", "build_mask", "apply_mask", "ablation_prune")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"numerics.tape_nodes_per_step": "count", "numerics.backward_ms_per_step": "ms"}
    for kind in OP_FUNCS:
        units[f"numerics.{kind}.calls_per_step"] = "count"
        units[f"numerics.{kind}.fwd_ms_per_step"] = "ms"
        units[f"numerics.{kind}.bwd_ms_per_step"] = "ms"
    units["adapter.forward_ms_per_step"] = "ms"
    units["adapter.forward_calls_per_step"] = "count"
    for i in range(MAX_BLOCKS):
        for kind in MATRIX_KINDS:
            units[f"adapter.blocks.{i}.{kind}.fwd_ms_per_step"] = "ms"
            units[f"adapter.blocks.{i}.{kind}.bwd_ms_per_step"] = "ms"
    units.update({
        "model.build_s": "s",
        "model.forward_train_ms_per_step": "ms",
        "model.forward_eval_ms_per_batch": "ms",
        "prune_engine.batch_input_norm.ms_per_step": "ms",
        "prune_engine.batch_input_norm.calls_per_step": "count",
    })
    for name in PRUNE_CALLS:
        units[f"prune_engine.{name}_ms"] = "ms"
    units.update({
        "prune_engine.event_ms": "ms",
        "prune_engine.events": "count",
        "prune_engine.zeros_written": "count",
        "train_harness.step_ms_p50": "ms",
        "train_harness.step_ms_p98": "ms",
        "train_harness.optimizer_ms_per_step": "ms",
        "train_harness.self_ms_per_step": "ms",
        "train_harness.evaluate_s": "s",
        "checkpoint.capture_ms": "ms",
        "checkpoint.capture_calls": "count",
        "checkpoint.restore_ms": "ms",
        "checkpoint.bytes": "bytes",
        "tasks.build_s": "s",
        "config.load_s": "s",
        "rank_plan.adapter_params": "count",
        "cli.artifacts_s": "s",
        "cli.variant_s_max": "s",
        "cli.pool_busy_frac": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units
