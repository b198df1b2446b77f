"""Experiment front-end: single runs, ratio sweeps, the ablation grid, and
plot-ready exports.

Each command is a list of (config, seed, run directory) runs. Every run is
built and checked before any directory is made, then all of them train in
one pool; validate-config makes the same checks and trains nothing.

Every run writes an isolated directory: the resolved config, line-delimited
metrics with each prune event's record, and final plus best checkpoints.
Group summaries (mean and standard deviation across seeds) and the ablation
tables are always recomputed from the per-run artifacts on disk, never from
in-memory state, so they can be regenerated from artifacts alone.

Exit codes: 0 success, 1 configuration error, 2 runtime failure; each
incomplete run is named on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import (
    build_dims,
    build_plan,
    build_task,
    build_train_config,
    load_config,
    resolved_text,
    split_list,
)
from .errors import (
    BudgetError,
    ConfigError,
    FormatError,
    PriloraError,
    RankError,
    TrainingDiverged,
)
from .model import MATRIX_KINDS, ModelDims, adapter_layout, matrix_shape
from .tasks import SyntheticTask
from .train_harness import EVAL_BATCH, EvalPoint, TrainConfig, build_model, train

__all__ = ["ABLATION_VARIANTS", "main"]

# {grid variant: (its plan kind, its prune strategy)}; the grid's base plan
# is linear, and "uniform" and "concentrated" spend its average rank
_ABLATIONS = {
    "full": ("linear", "prilora_A"),
    "fixed": ("uniform", "prilora_A"),
    "inverted": ("inverted", "prilora_A"),
    "concentrated": ("concentrated", "prilora_A"),
    "no_pruning": ("linear", "none"),
    "prune_B_rows": ("linear", "B_rows"),
    "prune_B_cols": ("linear", "B_cols"),
    "random_A_cols": ("linear", "random_A_cols"),
}
ABLATION_VARIANTS = tuple(_ABLATIONS)
# caps on a run's frozen base weights (2**27 float64s, 1 GiB), the attention
# scores of one forward batch (2**26 float64s, 512 MiB) and its task data's
# tokens (2**27 int64s, 1 GiB); every command checks them. The scores are one
# layer's: training re-forms each layer's in backward, so a step holds one
# layer's scores at a time, not layers × scores
MAX_BASE_FLOATS = 2**27
MAX_SCORE_FLOATS = 2**26
MAX_TASK_TOKENS = 2**27


# ---------------------------------------------------------------------------
# Config -> runs (top level so worker processes can import _execute_run)


def _specs(cfg: dict, seed: int) -> tuple[SyntheticTask, TrainConfig, ModelDims]:
    """The task spec, training config and model dims of one run of cfg.

    Checks all a run checks short of building data and weights, down to
    every planned rank fitting the matrices it adapts, and refuses a frozen
    base, one batch's attention scores or task data over the caps above
    before any plan or layout is built.
    """
    task_spec = build_task(cfg, seed)
    dims = build_dims(cfg, task_spec)
    base = (dims.vocab_size + dims.seq_len) * dims.d_model + dims.num_layers * sum(
        math.prod(matrix_shape(kind, dims)) for kind in MATRIX_KINDS)
    scores = max(int(cfg["train.batch_size"]), EVAL_BATCH) * dims.num_heads * dims.seq_len**2
    tokens = (task_spec.train_count + task_spec.eval_count) * dims.seq_len
    for what, count, unit, cap in (
        ("frozen base weights", base, "floats", MAX_BASE_FLOATS),
        ("attention scores of one batch", scores, "floats", MAX_SCORE_FLOATS),
        ("tokens of the task data", tokens, "int64s", MAX_TASK_TOKENS),
    ):
        if count > cap:
            raise ConfigError(f"the {what} would take {count:,} {unit}, over the cap of {cap:,}")
    tcfg = build_train_config(cfg, build_plan(cfg), seed)
    adapter_layout(dims, tcfg.plan, tcfg.adapt_kinds)
    return task_spec, tcfg, dims


def _execute_run(cfg: dict, seed: int, run_dir: str | Path) -> dict:
    """Train one seed and leave a full artifact set in run_dir."""
    task_spec, tcfg, dims = _specs(cfg, seed)
    run_path = Path(run_dir)
    run_path.mkdir(parents=True, exist_ok=True)
    task = task_spec.build()

    resolved = resolved_text({**cfg, "seed": seed})
    (run_path / "config.resolved").write_text(resolved, encoding="utf-8")

    model = build_model(tcfg, dims)
    hash_before = model.base_hash()
    summary: dict = {"name": cfg["name"], "seed": seed, "status": "complete"}
    try:
        record = train(model, task, tcfg, metrics_path=run_path / "metrics.jsonl")
    except TrainingDiverged as exc:
        (run_path / "last_good.ckpt").write_bytes(exc.last_good_checkpoint)
        summary.update(status="incomplete", error=str(exc), failed_step=exc.step)
        _write_json(run_path / "run.json", summary)
        return summary

    hash_after = model.base_hash()
    (run_path / "final.ckpt").write_bytes(record.final_checkpoint)
    (run_path / "best.ckpt").write_bytes(record.best_checkpoint)
    last = record.eval_points[-1]
    summary.update(
        init_loss=record.init_loss,
        final_loss=record.final_loss,
        final_accuracy=record.final_accuracy,
        best_step=record.best_step,
        train_seconds=record.train_seconds,
        seconds_per_step=record.seconds_per_step,
        adapter_params=last.adapter_params,
        nonzero_params_final=last.nonzero_params,
        base_hash_before=hash_before,
        base_hash_after=hash_after,
    )
    if hash_before != hash_after:
        summary["status"] = "incomplete"
        summary["error"] = "frozen base weights changed during training"
    _write_json(run_path / "run.json", summary)
    return summary


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_tsv(path: Path, header: tuple[str, ...], rows, echo: bool = False) -> None:
    """A header line, then one tab-separated line per row: a float cell as
    %.10g, any other cell as str(). echo copies the file to stdout."""
    lines = [header] + [[f"{c:.10g}" if isinstance(c, float) else str(c) for c in row]
                        for row in rows]
    text = "".join("\t".join(line) + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
    if echo:
        print(text, end="")


def _run_grid(work: list[tuple[dict, int, Path]], jobs: int) -> int:
    """Check every (cfg, seed, run_dir) before any directory is made, then
    train them all, in one pool when jobs > 1. Each incomplete run is named
    on stderr; returns how many there were."""
    for cfg, seed, _ in work:
        _specs(cfg, seed)
    if jobs > 1 and len(work) > 1:
        # imported here: concurrent.futures pulls in multiprocessing, sockets and
        # subprocess, about 2 MB that a one-run command never uses
        from concurrent.futures import ProcessPoolExecutor

        # sized by the runs: under fork the pool starts every worker at once
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            results = list(pool.map(_execute_run, *zip(*work)))
    else:
        results = [_execute_run(*item) for item in work]
    incomplete = 0
    for (_, _, run_dir), result in zip(work, results):
        if result["status"] != "complete":
            incomplete += 1
            print(f"{run_dir} incomplete: {result.get('error', 'unknown')}", file=sys.stderr)
    return incomplete


# ---------------------------------------------------------------------------
# Summaries, recomputed from the logs on disk


def _read_points(metrics_path: Path) -> list[EvalPoint]:
    """The eval points of a metrics log; a line that is not one names itself."""
    points = []
    for lineno, raw in enumerate(metrics_path.read_bytes().splitlines(), 1):
        try:  # a line that is not UTF-8 raises UnicodeDecodeError, a ValueError
            line = raw.decode("utf-8")
            if line.strip():
                points.append(EvalPoint.from_json(line))
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise FormatError(f"{metrics_path}:{lineno}: not an eval point: {exc}") from None
    return points


def _summarize_group(group_dir: Path, seeds: tuple[int, ...]) -> dict | None:
    """Mean and std of the final metrics across completed seeds, written to
    the group's summary.json and summary.tsv; None, and no file, when no seed
    has completed."""
    rows = []
    for seed in seeds:
        run_path = group_dir / f"seed_{seed}"
        run_json = run_path / "run.json"
        metrics = run_path / "metrics.jsonl"
        if not run_json.exists() or not metrics.exists():
            continue
        status = json.loads(run_json.read_text(encoding="utf-8")).get("status")
        if status != "complete":
            continue
        points = _read_points(metrics)
        if not points:
            continue
        rows.append(
            {
                "seed": seed,
                "final_loss": points[-1].loss,
                "final_accuracy": points[-1].accuracy,
                "best_accuracy": max(p.accuracy for p in points),
            }
        )
    if not rows:
        return None

    def stat(key: str) -> dict:
        values = [row[key] for row in rows]
        return {
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "values": values,
        }

    names = ("final_loss", "final_accuracy", "best_accuracy")
    summary = {"seeds": [row["seed"] for row in rows], **{name: stat(name) for name in names}}
    _write_json(group_dir / "summary.json", summary)
    _write_tsv(group_dir / "summary.tsv", ("metric", "mean", "std"),
               [(name, summary[name]["mean"], summary[name]["std"]) for name in names])
    return summary


# ---------------------------------------------------------------------------
# Commands


def _parse_seeds(text: str | None, cfg: dict) -> tuple[int, ...]:
    """The --seeds list, or the config's seed without one; no seed twice."""
    if text is None:
        seeds: tuple[int, ...] = (int(cfg["seed"]),)
    else:
        seeds = tuple(split_list(text, "--seeds", int))
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate seeds in {seeds}")
    return seeds


def _load(args) -> tuple[dict, tuple[int, ...], Path]:
    """The config, its seeds, and the directory its runs write under."""
    cfg = load_config(args.config)
    if not cfg["name"]:
        raise ConfigError("experiment name must be non-empty")
    group_dir = Path(getattr(args, "out", ".")) / str(cfg["name"])
    return cfg, _parse_seeds(args.seeds, cfg), group_dir


def cmd_run(args) -> int:
    cfg, seeds, group_dir = _load(args)
    failed = _run_grid([(cfg, seed, group_dir / f"seed_{seed}") for seed in seeds], args.jobs)
    (group_dir / "config.resolved").write_text(resolved_text(cfg), encoding="utf-8")
    summary = _summarize_group(group_dir, seeds)
    if summary is not None:
        acc = summary["final_accuracy"]
        print(
            f"{cfg['name']}: final accuracy {acc['mean']:.4f} +/- {acc['std']:.4f} "
            f"over {len(summary['seeds'])} seed(s) -> {group_dir}"
        )
    return 2 if failed else 0


def _parse_ratios(text: str | None) -> list[float]:
    if text is None:
        raise ConfigError("sweep-ratio requires --ratios")
    ratios = split_list(text, "--ratios", float)
    if not ratios:
        raise ConfigError("--ratios must name at least one ratio")
    if len({f"{ratio:g}" for ratio in ratios}) != len(ratios):
        raise ConfigError(f"--ratios {text} names one ratio directory twice")
    return ratios


def cmd_sweep_ratio(args) -> int:
    cfg, seeds, group_dir = _load(args)
    ratios = sorted(_parse_ratios(args.ratios))
    ratio_dirs = {ratio: group_dir / f"ratio_{ratio:g}" for ratio in ratios}
    work = [
        ({**cfg, "prune.ratio": ratio}, seed, ratio_dir / f"seed_{seed}")
        for ratio, ratio_dir in ratio_dirs.items()
        for seed in seeds
    ]
    failed = _run_grid(work, args.jobs)
    rows = []
    for ratio, ratio_dir in ratio_dirs.items():
        summary = _summarize_group(ratio_dir, seeds)
        if summary is None:
            rows.append((f"{ratio:g}", *["nan"] * 4))
            continue
        acc, loss = summary["final_accuracy"], summary["final_loss"]
        rows.append((f"{ratio:g}", acc["mean"], acc["std"], loss["mean"], loss["std"]))
    _write_tsv(group_dir / "sweep.tsv", ("ratio", "final_accuracy_mean", "final_accuracy_std",
                                         "final_loss_mean", "final_loss_std"), rows, echo=True)
    return 2 if failed else 0


def ablation_config(cfg: dict, variant: str) -> dict:
    """The config delta for one grid entry; the base mapping is left alone."""
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}")
    if cfg["plan.kind"] != "linear":
        raise ConfigError("the ablation grid needs plan.kind = linear as its base")
    kind, strategy = _ABLATIONS[variant]
    out = {**cfg, "plan.kind": kind, "prune.strategy": strategy}
    if kind in ("uniform", "concentrated"):
        avg = build_plan(cfg).budget_avg
        if avg is None:
            raise ConfigError(
                "this ablation needs a whole-number average rank; adjust the plan endpoints"
            )
        if kind == "uniform":
            out["plan.rank"] = avg
        else:
            cap = min(int(cfg["model.d_model"]), int(cfg["model.d_ff"]))
            out["plan.last_rank"] = min(3 * avg, cap)
    return out


def cmd_ablate(args) -> int:
    cfg, seeds, group_dir = _load(args)
    if len(seeds) > 1:
        raise ConfigError(f"ablate runs one seed per variant, got seeds {list(seeds)}")
    (base_seed,) = seeds
    grid_dir = group_dir / "ablate"
    work = [
        (ablation_config(cfg, variant), base_seed, grid_dir / variant)
        for variant in ABLATION_VARIANTS
    ]
    failed = _run_grid(work, args.jobs)
    grid = {
        variant: json.loads((grid_dir / variant / "run.json").read_text(encoding="utf-8"))
        for variant in ABLATION_VARIANTS
    }
    columns = ("final_loss", "final_accuracy", "adapter_params", "nonzero_params_final",
               "best_step")
    rows = [(variant, run["status"],
             *(run[c] if run["status"] == "complete" else "nan" for c in columns))
            for variant, run in grid.items()]
    _write_json(grid_dir / "grid.json", {"base_seed": base_seed, "variants": grid})
    _write_tsv(grid_dir / "ablate.tsv", ("variant", "status", "final_loss", "final_accuracy",
                                         "adapter_params", "nonzero_final", "steps_to_peak"),
               rows, echo=True)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Report: turn logs into delimited text for plotting


def _export_metrics(run_dir: Path) -> None:
    """metrics.tsv and nonzero.tsv, one row per eval point, and
    prune_events.tsv, one row per prune event record; a record that lacks a
    column (one logged before that count existed) leaves its cell empty. Event
    cells are written as their logged str()."""
    points = _read_points(run_dir / "metrics.jsonl")
    fractions = [p.nonzero_params / p.adapter_params if p.adapter_params else 0.0 for p in points]
    _write_tsv(run_dir / "metrics.tsv",
               ("step", "loss", "accuracy", "nonzero_params", "adapter_params", "nonzero_fraction"),
               [(p.step, p.loss, p.accuracy, p.nonzero_params, p.adapter_params, f)
                for p, f in zip(points, fractions)])
    _write_tsv(run_dir / "nonzero.tsv", ("step", "nonzero_fraction"),
               [(p.step, f) for p, f in zip(points, fractions)])
    columns = ("step", "layer", "strategy", "ratio", "zeros_written", "min_row_zeros", "nonzero")
    _write_tsv(run_dir / "prune_events.tsv", columns,
               [[str(e.get(c, "")) for c in columns] for p in points for e in p.prune_events])


def cmd_report(args) -> int:
    run_dirs = sorted({p.parent for p in Path(args.out).rglob("metrics.jsonl")}) if args.out else []
    run_dirs += [Path(name) for name in args.dirs]
    if not run_dirs:
        print("report: no run directories found", file=sys.stderr)
        return 0
    for run_dir in run_dirs:
        if (run_dir / "metrics.jsonl").exists():
            _export_metrics(run_dir)
        else:
            print(f"report: missing, skipped: {run_dir / 'metrics.jsonl'}", file=sys.stderr)
    return 0


def cmd_validate_config(args) -> int:
    cfg, seeds, _ = _load(args)
    for seed in seeds:
        _specs(cfg, seed)
    sys.stdout.write(resolved_text(cfg))
    print(f"ok: valid for seeds {list(seeds)}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors for exit-code purposes.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prilora", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seeds", default=None, help="comma-separated seed list")
        p.add_argument("--out", default="runs", help="output root directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_run = sub.add_parser("run", help="train one config across seeds")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-ratio", help="compare prune ratios")
    common(p_sweep)
    p_sweep.add_argument("--ratios", default=None, help="comma-separated prune ratios")
    p_sweep.set_defaults(func=cmd_sweep_ratio)

    p_ablate = sub.add_parser("ablate", help="run the eight-variant ablation grid")
    common(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_report = sub.add_parser("report", help="export plot-ready tables from run logs")
    p_report.add_argument("dirs", nargs="*", help="run directories to export")
    p_report.add_argument("--out", default=None, help="root directory to scan for runs")
    p_report.set_defaults(func=cmd_report)

    p_val = sub.add_parser("validate-config", help="check a config and print it resolved")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--seeds", default=None)
    p_val.set_defaults(func=cmd_validate_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except (ConfigError, BudgetError, RankError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PriloraError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
