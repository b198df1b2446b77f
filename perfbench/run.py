"""prilora benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload golden --seed 17 --seconds 30 --trace 0

Each execution of the workload runs in a fresh interpreter (iteration.py),
one at a time, with BLAS and OpenMP pinned to one thread and the garbage
collector left at the interpreter's defaults. Executions repeat until
``--seconds`` is used up (at least three untraced, or one untraced and one
traced with ``--trace 1``); every metric is the median over executions. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` untraced and traced executions alternate. The metrics are
the per-layer ones, medians over the traced executions, plus the tracing
overhead (median traced ``wall_s`` over median untraced ``wall_s``). The
spans of each traced execution are written to ``spans.tsv`` in its directory
and the per-layer metrics to ``per_layer.json`` beside them.

Every execution is checked (see workloads.py); one that fails a gate, or does
not finish, counts as failed and is not retried.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from metrics import END_TO_END, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_UNTRACED = 3
DEADLINE_S = 170.0  # the whole run ends within 180 s, hung executions included
LAST_START_S = 120.0  # start no execution after this
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def end_to_end(result: dict, t_spawn: float) -> dict[str, float]:
    """The five end-to-end metrics of one execution."""
    runs = result["summary"]["runs"]
    wall = result["t_done"] - result["t_first_step"]
    return {
        "setup_s": result["t_first_step"] - t_spawn,
        "wall_s": wall,
        "samples_per_s": sum(r["steps"] * r["batch_size"] for r in runs) / wall,
        "step_ms": 1e3 * sum(r["train_seconds"] for r in runs) / sum(r["steps"] for r in runs),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def fingerprint(result: dict) -> list:
    """What every execution of one workload and seed must reproduce exactly."""
    return [
        (r["label"], r["final_loss"], r["base_hash_after"], r["final_ckpt_sha256"])
        for r in result["summary"]["runs"]
    ]


def execute(args, iter_dir: Path, traced: bool, env: dict,
            timeout: float) -> tuple[dict | None, float]:
    """Run one execution; returns its result (None if it failed to finish) and spawn time."""
    cmd = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--trace", str(int(traced)), "--dir", str(iter_dir),
    ]
    iter_dir.mkdir(parents=True)
    t_spawn = time.perf_counter()
    # own process group, so a hung execution is stopped with its pool workers
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{iter_dir.name}: timed out after {timeout:.0f} s")
        return None, t_spawn
    if proc.returncode != 0:
        log(f"{iter_dir.name}: exited with {proc.returncode}\n{stderr[-4000:]}")
        return None, t_spawn
    return json.loads(stdout.strip().splitlines()[-1]), t_spawn


def output_dir(args) -> Path:
    scale = "" if args.scale == "full" else f"-{args.scale}"
    return HERE / "out" / f"{args.workload}{scale}-seed{args.seed}-trace{args.trace}"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny runs each workload's code path at toy sizes (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)

    if not (SRC / "prilora" / "__init__.py").is_file() or not workloads.GOLDEN_PATH.is_file():
        log(f"benchmark needs the prilora sources at {SRC} "
            f"and the golden record at {workloads.GOLDEN_PATH}")
        return 2
    out = output_dir(args)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    # compile bytecode and fill the page cache before anything is timed
    subprocess.run([sys.executable, "-c", "import prilora.cli"], env=env, cwd=ROOT, check=True)

    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    per_layer: list[dict[str, float]] = []
    durations: list[float] = []
    attempted = failed = 0
    reference = None
    kept: Path | None = None  # artifacts of the latest passing untraced execution
    t_start = time.perf_counter()
    while True:
        is_traced = bool(args.trace) and attempted % 2 == 1
        iter_dir = out / f"exec{attempted}{'-traced' if is_traced else ''}"
        t0 = time.perf_counter()
        result, t_spawn = execute(args, iter_dir, is_traced, env, DEADLINE_S - (t0 - t_start))
        durations.append(time.perf_counter() - t0)
        attempted += 1
        if result is None:
            failed += 1
        else:
            failures = list(result["summary"]["failures"])
            if reference is None:
                reference = fingerprint(result)
            elif fingerprint(result) != reference:
                failures.append(f"outputs differ from the first execution: {fingerprint(result)}")
            if failures:
                failed += 1
                log(f"{iter_dir.name}: FAILED\n  " + "\n  ".join(failures))
            elif not is_traced:
                # failed and traced executions keep their artifacts; of the
                # rest only the latest, so disk use does not grow with runs
                if kept is not None:
                    shutil.rmtree(kept)
                kept = iter_dir
            metrics = end_to_end(result, t_spawn)
            (traced if is_traced else untraced).append(metrics)
            if is_traced:
                per_layer.append(result["per_layer"])
            log(f"{iter_dir.name}: " + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()))

        elapsed = time.perf_counter() - t_start
        enough = len(untraced) >= (1 if args.trace or args.scale == "tiny" else MIN_UNTRACED)
        if args.trace:
            enough = enough and len(traced) >= 1
        if elapsed > LAST_START_S or (enough and elapsed + statistics.mean(durations) > args.seconds):
            break
        if attempted >= 4 and failed == attempted:
            break

    if not untraced or (args.trace and not traced):
        log("no execution completed")
        return 1
    if args.trace:
        values = medians(per_layer)
        values["trace.overhead_ratio"] = (
            statistics.median(m["wall_s"] for m in traced)
            / statistics.median(m["wall_s"] for m in untraced)
        )
        units = per_layer_units()
        (out / "per_layer.json").write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
        log(f"per-layer metrics in {out / 'per_layer.json'}, spans in {out}/exec*-traced/spans.tsv")
    else:
        values = medians(untraced)
        units = END_TO_END
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
