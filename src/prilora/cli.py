"""Experiment front-end: single runs, ratio sweeps, the ablation grid, and
plot-ready exports.

Every run writes an isolated directory: the resolved config, line-delimited
metrics, optional weight trajectories, and final plus best checkpoints.
Group summaries (mean and standard deviation across seeds) are always
recomputed from the per-seed metric logs on disk, never from in-memory
state, so a summary can be regenerated from artifacts alone.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    build_dims,
    build_plan,
    build_task,
    build_train_config,
    load_config,
    resolved_text,
)
from .errors import (
    BudgetError,
    ConfigError,
    FormatError,
    PriloraError,
    RankError,
)
from .train_harness import EvalPoint, build_model, steps_to_peak, train
from .errors import TrainingDiverged

__all__ = ["ExperimentSpec", "ABLATION_VARIANTS", "main"]

ABLATION_VARIANTS = (
    "full",
    "fixed",
    "inverted",
    "concentrated",
    "no_pruning",
    "prune_B_rows",
    "prune_B_cols",
    "random_A_cols",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One named experiment: a resolved config, its seeds, and where it writes."""

    name: str
    config: dict
    seeds: tuple[int, ...]
    out_dir: Path

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("experiment name must be non-empty")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in {self.seeds}")

    @property
    def group_dir(self) -> Path:
        return self.out_dir / self.name


# ---------------------------------------------------------------------------
# Single-run execution (top level so worker processes can import it)


def _execute_run(cfg: dict, seed: int, run_dir: str) -> dict:
    """Train one seed and leave a full artifact set in run_dir."""
    run_path = Path(run_dir)
    run_path.mkdir(parents=True, exist_ok=True)

    task_spec = build_task(cfg, seed)
    task = task_spec.build()
    plan = build_plan(cfg)
    tcfg = build_train_config(cfg, plan, seed)
    dims = build_dims(cfg, task_spec)

    resolved = dict(cfg)
    resolved["seed"] = seed
    (run_path / "config.resolved").write_text(resolved_text(resolved), encoding="utf-8")

    model = build_model(tcfg, dims)
    hash_before = model.base_hash()
    summary: dict = {"name": cfg["name"], "seed": seed, "status": "complete"}
    trajectory_path = run_path / "trajectory.jsonl" if tcfg.trajectory_coords > 0 else None
    try:
        record = train(
            model,
            task,
            tcfg,
            metrics_path=run_path / "metrics.jsonl",
            trajectory_path=trajectory_path,
        )
    except TrainingDiverged as exc:
        if exc.last_good_checkpoint is not None:
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
        steps_to_peak=steps_to_peak(record),
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


def _map_runs(work: list[tuple[dict, int, str]], jobs: int) -> list[dict]:
    """_execute_run over every (cfg, seed, run_dir), in order; a pool when jobs > 1."""
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_execute_run, *zip(*work)))
    return [_execute_run(*item) for item in work]


def _run_group(cfg: dict, seeds: tuple[int, ...], group_dir: Path, jobs: int) -> list[dict]:
    group_dir.mkdir(parents=True, exist_ok=True)
    work = [(dict(cfg), seed, str(group_dir / f"seed_{seed}")) for seed in seeds]
    return _map_runs(work, jobs)


# ---------------------------------------------------------------------------
# Summaries, recomputed from the logs on disk


def _read_points(metrics_path: Path) -> list[EvalPoint]:
    lines = metrics_path.read_text(encoding="utf-8").splitlines()
    return [EvalPoint.from_json(line) for line in lines if line.strip()]


def _summarize_group(group_dir: Path, seeds: tuple[int, ...]) -> dict | None:
    """Mean and std of the final metrics across completed seeds."""
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

    return {
        "seeds": [row["seed"] for row in rows],
        "final_loss": stat("final_loss"),
        "final_accuracy": stat("final_accuracy"),
        "best_accuracy": stat("best_accuracy"),
    }


def _write_summary(group_dir: Path, summary: dict) -> None:
    _write_json(group_dir / "summary.json", summary)
    lines = ["metric\tmean\tstd"]
    for metric in ("final_loss", "final_accuracy", "best_accuracy"):
        entry = summary[metric]
        lines.append(f"{metric}\t{entry['mean']:.10g}\t{entry['std']:.10g}")
    (group_dir / "summary.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands


def _parse_seeds(text: str | None, cfg: dict) -> tuple[int, ...]:
    if text is None:
        return (int(cfg["seed"]),)
    try:
        seeds = tuple(int(piece) for piece in text.split(",") if piece.strip())
    except ValueError as exc:
        raise ConfigError(f"--seeds: {exc}") from None
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    return seeds


def _make_spec(args) -> ExperimentSpec:
    cfg = load_config(args.config)
    return ExperimentSpec(
        name=str(cfg["name"]),
        config=cfg,
        seeds=_parse_seeds(args.seeds, cfg),
        out_dir=Path(args.out),
    )


def cmd_run(args) -> int:
    spec = _make_spec(args)
    spec.group_dir.mkdir(parents=True, exist_ok=True)
    (spec.group_dir / "config.resolved").write_text(
        resolved_text(spec.config), encoding="utf-8"
    )
    results = _run_group(spec.config, spec.seeds, spec.group_dir, args.jobs)
    summary = _summarize_group(spec.group_dir, spec.seeds)
    if summary is not None:
        _write_summary(spec.group_dir, summary)
        acc = summary["final_accuracy"]
        print(
            f"{spec.name}: final accuracy {acc['mean']:.4f} +/- {acc['std']:.4f} "
            f"over {len(summary['seeds'])} seed(s) -> {spec.group_dir}"
        )
    failures = [r for r in results if r["status"] != "complete"]
    for failure in failures:
        print(
            f"seed {failure['seed']} incomplete: {failure.get('error', 'unknown')}",
            file=sys.stderr,
        )
    return 2 if failures else 0


def _parse_ratios(text: str | None) -> list[float]:
    if text is None:
        raise ConfigError("sweep-ratio requires --ratios")
    try:
        ratios = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise ConfigError(f"--ratios: {exc}") from None
    if not ratios:
        raise ConfigError("--ratios must name at least one ratio")
    for ratio in ratios:
        if not 0.0 <= ratio <= 1.0:
            raise ConfigError(f"prune ratio must lie in [0, 1], got {ratio}")
    return ratios


def cmd_sweep_ratio(args) -> int:
    spec = _make_spec(args)
    ratios = _parse_ratios(args.ratios)
    spec.group_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    table: list[tuple[float, dict | None]] = []
    for ratio in sorted(ratios):
        cfg = dict(spec.config)
        cfg["prune.ratio"] = ratio
        ratio_dir = spec.group_dir / f"ratio_{ratio:g}"
        results = _run_group(cfg, spec.seeds, ratio_dir, args.jobs)
        failures += sum(1 for r in results if r["status"] != "complete")
        summary = _summarize_group(ratio_dir, spec.seeds)
        if summary is not None:
            _write_summary(ratio_dir, summary)
        table.append((ratio, summary))
    lines = ["ratio\tfinal_accuracy_mean\tfinal_accuracy_std\tfinal_loss_mean\tfinal_loss_std"]
    for ratio, summary in table:
        if summary is None:
            lines.append(f"{ratio:g}\tnan\tnan\tnan\tnan")
            continue
        acc, loss = summary["final_accuracy"], summary["final_loss"]
        lines.append(
            f"{ratio:g}\t{acc['mean']:.10g}\t{acc['std']:.10g}"
            f"\t{loss['mean']:.10g}\t{loss['std']:.10g}"
        )
    (spec.group_dir / "sweep.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print((spec.group_dir / "sweep.tsv").read_text(encoding="utf-8"), end="")
    return 2 if failures else 0


def ablation_config(cfg: dict, variant: str) -> dict:
    """The config delta for one grid entry; the base mapping is left alone."""
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}")
    if cfg["plan.kind"] != "linear":
        raise ConfigError("the ablation grid needs plan.kind = linear as its base")
    out = dict(cfg)
    out["prune.strategy"] = "prilora_A"
    if variant in ("fixed", "concentrated"):
        base_plan = build_plan(cfg)
        if base_plan.budget_avg is None:
            raise ConfigError(
                "this ablation needs a whole-number average rank; adjust the plan endpoints"
            )
        if variant == "fixed":
            out["plan.kind"] = "uniform"
            out["plan.rank"] = base_plan.budget_avg
        else:
            cap = min(int(cfg["model.d_model"]), int(cfg["model.d_ff"]))
            out["plan.kind"] = "concentrated"
            out["plan.last_rank"] = min(3 * base_plan.budget_avg, cap)
    elif variant == "inverted":
        out["plan.kind"] = "inverted"
    elif variant == "no_pruning":
        out["prune.strategy"] = "none"
    elif variant == "prune_B_rows":
        out["prune.strategy"] = "B_rows"
    elif variant == "prune_B_cols":
        out["prune.strategy"] = "B_cols"
    elif variant == "random_A_cols":
        out["prune.strategy"] = "random_A_cols"
    return out


def cmd_ablate(args) -> int:
    spec = _make_spec(args)
    base_seed = spec.seeds[0]
    grid_dir = spec.group_dir / "ablate"
    grid_dir.mkdir(parents=True, exist_ok=True)
    work = [
        (ablation_config(spec.config, variant), base_seed, str(grid_dir / variant))
        for variant in ABLATION_VARIANTS
    ]
    results = _map_runs(work, args.jobs)

    rows = ["variant\tstatus\tfinal_loss\tfinal_accuracy\tadapter_params\tnonzero_final\tsteps_to_peak"]
    grid: dict[str, dict] = {}
    failures = 0
    for variant, result in zip(ABLATION_VARIANTS, results):
        grid[variant] = result
        if result["status"] != "complete":
            failures += 1
            rows.append(f"{variant}\t{result['status']}\tnan\tnan\tnan\tnan\tnan")
            continue
        rows.append(
            f"{variant}\t{result['status']}\t{result['final_loss']:.10g}"
            f"\t{result['final_accuracy']:.10g}\t{result['adapter_params']}"
            f"\t{result['nonzero_params_final']}\t{result['steps_to_peak']}"
        )
    (grid_dir / "ablate.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_json(grid_dir / "grid.json", {"base_seed": base_seed, "variants": grid})
    print((grid_dir / "ablate.tsv").read_text(encoding="utf-8"), end="")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# Report: turn logs into delimited text for plotting


def _export_metrics(run_dir: Path) -> None:
    points = _read_points(run_dir / "metrics.jsonl")
    lines = ["step\tloss\taccuracy\tnonzero_params\tadapter_params\tnonzero_fraction"]
    nz_lines = ["step\tnonzero_fraction"]
    for p in points:
        fraction = p.nonzero_params / p.adapter_params if p.adapter_params else 0.0
        lines.append(
            f"{p.step}\t{p.loss:.10g}\t{p.accuracy:.10g}"
            f"\t{p.nonzero_params}\t{p.adapter_params}\t{fraction:.10g}"
        )
        nz_lines.append(f"{p.step}\t{fraction:.10g}")
    (run_dir / "metrics.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (run_dir / "nonzero.tsv").write_text("\n".join(nz_lines) + "\n", encoding="utf-8")


def _export_trajectory(run_dir: Path) -> None:
    rows = [
        json.loads(line)
        for line in (run_dir / "trajectory.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not rows:
        (run_dir / "trajectory.tsv").write_text(
            "step\tloss\tprune_event\n", encoding="utf-8"
        )
        return
    labels = sorted(rows[0]["values"])
    header = "step\tloss\tprune_event\t" + "\t".join(labels)
    lines = [header]
    for row in rows:
        values = "\t".join(f"{row['values'][label]:.10g}" for label in labels)
        lines.append(
            f"{row['step']}\t{row['loss']:.10g}\t{int(row['prune_event'])}\t{values}"
        )
    (run_dir / "trajectory.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_report(args) -> int:
    run_dirs: list[Path] = []
    if args.out:
        root = Path(args.out)
        run_dirs.extend(sorted({p.parent for p in root.rglob("metrics.jsonl")}))
    for name in args.dirs:
        run_dirs.append(Path(name))
    if not run_dirs:
        print("report: no run directories found", file=sys.stderr)
        return 0
    missing: list[str] = []
    for run_dir in run_dirs:
        if (run_dir / "metrics.jsonl").exists():
            _export_metrics(run_dir)
        else:
            missing.append(str(run_dir / "metrics.jsonl"))
        if (run_dir / "trajectory.jsonl").exists():
            _export_trajectory(run_dir)
        else:
            missing.append(str(run_dir / "trajectory.jsonl"))
    for path in missing:
        print(f"report: missing, skipped: {path}", file=sys.stderr)
    return 0


def cmd_validate_config(args) -> int:
    cfg = load_config(args.config)
    seeds = _parse_seeds(args.seeds, cfg)
    for seed in seeds:
        task_spec = build_task(cfg, seed)
        plan = build_plan(cfg)
        build_train_config(cfg, plan, seed)
        build_dims(cfg, task_spec)
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

    def common(p: argparse.ArgumentParser, ratios: bool = False) -> None:
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seeds", default=None, help="comma-separated seed list")
        p.add_argument("--out", default="runs", help="output root directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        if ratios:
            p.add_argument("--ratios", default=None, help="comma-separated prune ratios")

    p_run = sub.add_parser("run", help="train one config across seeds")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-ratio", help="compare prune ratios")
    common(p_sweep, ratios=True)
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
        jobs = getattr(args, "jobs", 1)
        if jobs is not None and jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {jobs}")
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
