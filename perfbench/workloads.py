"""The three benchmark workloads and their correctness gates.

Each workload runs the program once, leaves its artifacts under ``out_dir``
and returns a summary: one entry per training run (steps, batch size, in-loop
seconds, losses, base hashes) plus the list of gate failures. A gate failure
is a message string; an empty list means every gate passed.

Workloads take the benchmark seed and a scale: ``full`` is what the benchmark
measures, ``tiny`` is the same code path at toy sizes for the self-test.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "golden" / "learning_sanity.json"

WIDE_CHECKPOINT_AT = {"full": 4, "tiny": 2}

# variant -> (plan.kind, prune.strategy), as acceptance criterion 12 fixes them
GRID_EXPECTED = {
    "full": ("linear", "prilora_A"),
    "fixed": ("uniform", "prilora_A"),
    "inverted": ("inverted", "prilora_A"),
    "concentrated": ("concentrated", "prilora_A"),
    "no_pruning": ("linear", "none"),
    "prune_B_rows": ("linear", "B_rows"),
    "prune_B_cols": ("linear", "B_cols"),
    "random_A_cols": ("linear", "random_A_cols"),
}
# per-layer ranks each variant resolves to on the golden plan (2 -> 6), at
# either scale
GRID_RANKS = {
    "full": (2, 6),
    "fixed": (4, 4),
    "inverted": (6, 2),
    "concentrated": (0, 12),
    "no_pruning": (2, 6),
    "prune_B_rows": (2, 6),
    "prune_B_cols": (2, 6),
    "random_A_cols": (2, 6),
}
ABLATE_JOBS = 2


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def golden_config(golden: dict, scale: str) -> dict:
    """The committed golden run as a config file; the task follows the run seed."""
    task, dims, train = golden["task"], golden["dims"], golden["train"]
    plan, prune = golden["plan"], golden["prune"]
    values = {
        "config_version": 1,
        "name": "golden",
        "seed": golden["seed"],
        "task.kind": task["kind"],
        "task.vocab_size": task["vocab_size"],
        "task.seq_len": task["seq_len"],
        "task.train_count": task["train_count"],
        "task.eval_count": task["eval_count"],
        "model.layers": dims["num_layers"],
        "model.d_model": dims["d_model"],
        "model.heads": dims["num_heads"],
        "model.d_ff": dims["d_ff"],
        "plan.kind": "linear",
        "plan.first_rank": plan["first_rank"],
        "plan.last_rank": plan["last_rank"],
        "prune.strategy": prune["strategy"],
        "prune.ratio": prune["ratio"],
        "prune.interval": prune["interval"],
        "train.steps": train["steps"],
        "train.lr": train["lr"],
        "train.batch_size": train["batch_size"],
        "train.optimizer": train["optimizer"],
        "train.eval_interval": train["eval_interval"],
        "train.schedule": train["schedule"],
        "train.warmup_steps": train["warmup_steps"],
    }
    if scale == "tiny":
        values.update({
            "task.train_count": 200,
            "task.eval_count": 64,
            "prune.interval": 10,
            "train.steps": 30,
            "train.eval_interval": 10,
            "train.warmup_steps": 5,
        })
    return values


def ablate_config(golden: dict, scale: str) -> dict:
    values = golden_config(golden, scale)
    values["name"] = "grid"
    if scale == "full":
        values["train.steps"] = 120
    return values


def wide_config(scale: str) -> dict:
    values = {
        "config_version": 1,
        "name": "wide",
        "task.kind": "token_majority",
        "task.vocab_size": 32,
        "task.seq_len": 32,
        "task.train_count": 512,
        "task.eval_count": 128,
        "model.layers": 4,
        "model.d_model": 128,
        "model.heads": 4,
        "model.d_ff": 256,
        "plan.kind": "linear",
        "plan.first_rank": 4,
        "plan.last_rank": 16,
        "prune.strategy": "none",
        "train.steps": 8,
        "train.batch_size": 32,
        "train.eval_interval": 4,
        "train.warmup_steps": 0,
    }
    if scale == "tiny":
        values.update({
            "task.vocab_size": 8,
            "task.seq_len": 8,
            "task.train_count": 64,
            "task.eval_count": 16,
            "model.d_model": 16,
            "model.d_ff": 32,
            "plan.first_rank": 1,
            "plan.last_rank": 4,
            "train.steps": 4,
            "train.batch_size": 8,
            "train.eval_interval": 2,
        })
    return values


# ---------------------------------------------------------------------------
# Gates: each returns a list of failure messages


def check_run(run: dict) -> list[str]:
    """Every training run: frozen base untouched and the loss went down."""
    label = run["label"]
    failures = []
    if run["base_hash_before"] != run["base_hash_after"]:
        failures.append(f"{label}: base hash changed during training")
    if not run["final_loss"] < run["init_loss"]:
        failures.append(
            f"{label}: final loss {run['final_loss']!r} is not below initial {run['init_loss']!r}"
        )
    return failures


def check_golden(run: dict, expected: dict) -> list[str]:
    """Bitwise match against the committed golden numbers."""
    failures = []
    if run["final_loss"] != expected["final_loss"]:
        failures.append(
            f"golden: final loss {run['final_loss']!r} != committed {expected['final_loss']!r}"
        )
    if run["base_hash_before"] != expected["base_hash"]:
        failures.append(
            f"golden: base hash {run['base_hash_before']} != committed {expected['base_hash']}"
        )
    return failures


def check_resume(uninterrupted: bytes, resumed: bytes) -> list[str]:
    if uninterrupted != resumed:
        return [
            f"wide: resumed final checkpoint ({len(resumed)} bytes) differs from the "
            f"uninterrupted one ({len(uninterrupted)} bytes)"
        ]
    return []


def check_grid(grid_dir: Path, expected: dict, ranks: dict) -> list[str]:
    """Every variant row complete and configured as criterion 12 says."""
    from prilora.config import build_plan, parse_config_text

    failures = []
    rows = (grid_dir / "ablate.tsv").read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != len(expected):
        failures.append(f"ablate_grid: {len(rows)} rows, expected {len(expected)}")
    for row in rows:
        variant, status = row.split("\t")[:2]
        if status != "complete":
            failures.append(f"ablate_grid: {variant} is {status}")
    for variant, (kind, strategy) in expected.items():
        resolved_path = grid_dir / variant / "config.resolved"
        if not resolved_path.exists():
            failures.append(f"ablate_grid: {variant} left no config.resolved")
            continue
        resolved = parse_config_text(resolved_path.read_text(encoding="utf-8"))
        got = (resolved["plan.kind"], resolved["prune.strategy"])
        if got != (kind, strategy):
            failures.append(f"ablate_grid: {variant} ran {got}, expected {(kind, strategy)}")
        if build_plan(resolved).ranks != ranks[variant]:
            failures.append(
                f"ablate_grid: {variant} ranks {build_plan(resolved).ranks} != {ranks[variant]}"
            )
    return failures


# ---------------------------------------------------------------------------
# Workloads


def _cli_run_summary(run_dir: Path, label: str, batch_size: int, steps: int) -> dict:
    raw = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    if raw["status"] != "complete":
        raise RuntimeError(f"{label}: run {raw['status']}: {raw.get('error')}")
    return {
        "label": label,
        "steps": steps,
        "batch_size": batch_size,
        "train_seconds": raw["train_seconds"],
        "init_loss": raw["init_loss"],
        "final_loss": raw["final_loss"],
        "base_hash_before": raw["base_hash_before"],
        "base_hash_after": raw["base_hash_after"],
        "adapter_params": raw["adapter_params"],
        "final_ckpt_sha256": _sha256(run_dir / "final.ckpt"),
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_golden(out_dir: Path, seed: int, scale: str) -> dict:
    from prilora.cli import main

    golden = load_golden()
    values = golden_config(golden, scale)
    cfg_path = out_dir / "golden.cfg"
    cfg_path.write_text(config_text(values), encoding="utf-8")
    code = main(["run", "--config", str(cfg_path), "--seeds", str(seed), "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"prilora run exited with {code}")
    run = _cli_run_summary(
        out_dir / "golden" / f"seed_{seed}", "golden",
        values["train.batch_size"], values["train.steps"],
    )
    failures = check_run(run)
    if scale == "full" and seed == golden["seed"]:
        failures += check_golden(run, golden["expected"])
    return {"runs": [run], "failures": failures}


def run_wide(out_dir: Path, seed: int, scale: str) -> dict:
    from prilora import config as config_mod
    from prilora import train_harness

    values = wide_config(scale)
    cfg_path = out_dir / "wide.cfg"
    cfg_path.write_text(config_text(values), encoding="utf-8")
    cfg = config_mod.load_config(cfg_path)
    task_spec = config_mod.build_task(cfg, seed)
    task = task_spec.build()
    plan = config_mod.build_plan(cfg)
    tcfg = config_mod.build_train_config(cfg, plan, seed)
    dims = config_mod.build_dims(cfg, task_spec)
    at = WIDE_CHECKPOINT_AT[scale]

    runs = []
    model = train_harness.build_model(tcfg, dims)
    hash_before = model.base_hash()
    full_dir = out_dir / "uninterrupted"
    full_dir.mkdir()
    record = train_harness.train(
        model, task, tcfg, metrics_path=full_dir / "metrics.jsonl", checkpoint_at=at
    )
    (full_dir / "mid.ckpt").write_bytes(record.mid_checkpoint)
    (full_dir / "final.ckpt").write_bytes(record.final_checkpoint)
    runs.append(_record_summary("wide", record, tcfg, hash_before, model.base_hash()))

    resumed_model = train_harness.build_model(tcfg, dims)
    hash_before = resumed_model.base_hash()
    resume_dir = out_dir / "resumed"
    resume_dir.mkdir()
    mid = (full_dir / "mid.ckpt").read_bytes()
    resumed = train_harness.train(
        resumed_model, task, tcfg, metrics_path=resume_dir / "metrics.jsonl", resume_from=mid
    )
    (resume_dir / "final.ckpt").write_bytes(resumed.final_checkpoint)
    summary = _record_summary("wide_resumed", resumed, tcfg, hash_before, resumed_model.base_hash())
    summary["steps"] = tcfg.steps - at
    # the resumed record starts at the checkpoint, so its losses come from the
    # uninterrupted run's first evaluation
    summary["init_loss"] = runs[0]["init_loss"]
    # the resumed run continues the same adapters; count them once
    summary["adapter_params"] = 0
    runs.append(summary)

    failures = check_run(runs[0]) + check_run(runs[1])
    failures += check_resume(
        (full_dir / "final.ckpt").read_bytes(), (resume_dir / "final.ckpt").read_bytes()
    )
    return {"runs": runs, "failures": failures}


def _record_summary(label, record, tcfg, hash_before: str, hash_after: str) -> dict:
    return {
        "label": label,
        "steps": record.steps,
        "batch_size": tcfg.batch_size,
        "train_seconds": record.train_seconds,
        "init_loss": record.init_loss,
        "final_loss": record.final_loss,
        "base_hash_before": hash_before,
        "base_hash_after": hash_after,
        "adapter_params": record.eval_points[-1].adapter_params,
        "final_ckpt_sha256": hashlib.sha256(record.final_checkpoint).hexdigest(),
    }


def run_ablate_grid(out_dir: Path, seed: int, scale: str) -> dict:
    from prilora.cli import main

    values = ablate_config(load_golden(), scale)
    cfg_path = out_dir / "grid.cfg"
    cfg_path.write_text(config_text(values), encoding="utf-8")
    code = main([
        "ablate", "--config", str(cfg_path), "--seeds", str(seed),
        "--out", str(out_dir), "--jobs", str(ABLATE_JOBS),
    ])
    grid_dir = out_dir / "grid" / "ablate"
    failures = check_grid(grid_dir, GRID_EXPECTED, GRID_RANKS)
    if code != 0:
        failures.append(f"prilora ablate exited with {code}")
    runs = []
    for variant in GRID_EXPECTED:
        run = _cli_run_summary(
            grid_dir / variant, variant, values["train.batch_size"], values["train.steps"]
        )
        failures += check_run(run)
        runs.append(run)
    return {"runs": runs, "failures": failures, "jobs": ABLATE_JOBS}


RUNNERS = {"golden": run_golden, "wide": run_wide, "ablate_grid": run_ablate_grid}
