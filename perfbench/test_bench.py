"""Self-test of the benchmark, at toy sizes.

    python3 -m pytest perfbench/test_bench.py -q

Drives every workload through run.py at ``--scale tiny``, untraced and
traced, checks that every metric BENCHMARK.json names is emitted and finite,
and checks that each correctness gate fires when its expected value is
wrong. Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, per_layer_units  # noqa: E402


def bench(workload: str, trace: int) -> tuple[dict, Path]:
    """Run the benchmark at toy sizes; its report and output directory."""
    argv = ["--workload", workload, "--seed", "17", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, run.output_dir(run.parse_args(argv))


@pytest.fixture(scope="module")
def tiny():
    """One untraced tiny run per workload."""
    return {workload: bench(workload, 0) for workload in workloads.RUNNERS}


def check_report(report: dict, units: dict) -> None:
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert {name: m["unit"] for name, m in report["metrics"].items()} == units
    for name, m in report["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.RUNNERS)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(workloads.RUNNERS))
def test_untraced_run_emits_every_end_to_end_metric(tiny, workload):
    report, _ = tiny[workload]
    check_report(report, END_TO_END)
    assert report["metrics"]["setup_s"]["value"] > 0
    assert report["metrics"]["wall_s"]["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.RUNNERS))
def test_traced_run_emits_every_per_layer_metric(workload):
    report, out = bench(workload, 1)
    check_report(report, per_layer_units())
    assert report["metrics"]["numerics.tape_nodes_per_step"]["value"] > 0
    assert report["metrics"]["trace.overhead_ratio"]["value"] > 0
    spans = list(out.glob("exec*-traced/spans.tsv"))
    assert spans and spans[0].read_text(encoding="utf-8").startswith("proc\tid\tparent\tname")
    assert json.loads((out / "per_layer.json").read_text(encoding="utf-8"))


def test_missing_program_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "golden", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# Each gate fires on a wrong expected value


def golden_like_run() -> dict:
    expected = workloads.load_golden()["expected"]
    return {
        "label": "golden",
        "init_loss": expected["init_loss"],
        "final_loss": expected["final_loss"],
        "base_hash_before": expected["base_hash"],
        "base_hash_after": expected["base_hash"],
    }


def test_run_gate():
    good = golden_like_run()
    assert workloads.check_run(good) == []
    assert workloads.check_run(dict(good, final_loss=good["init_loss"]))
    assert workloads.check_run(dict(good, base_hash_after="0" * 64))


def test_golden_gate_is_bitwise():
    expected = workloads.load_golden()["expected"]
    run_ = golden_like_run()
    assert workloads.check_golden(run_, expected) == []
    one_ulp = math.nextafter(expected["final_loss"], 1.0)
    assert workloads.check_golden(run_, dict(expected, final_loss=one_ulp))
    assert workloads.check_golden(run_, dict(expected, base_hash="0" * 64))


def test_resume_gate_on_real_checkpoints(tiny):
    _, out = tiny["wide"]
    exec_dir = sorted(out.glob("exec*"))[0]
    full = (exec_dir / "uninterrupted" / "final.ckpt").read_bytes()
    resumed = (exec_dir / "resumed" / "final.ckpt").read_bytes()
    assert workloads.check_resume(full, resumed) == []
    flipped = resumed[:-1] + bytes([resumed[-1] ^ 1])
    assert workloads.check_resume(full, flipped)


def test_grid_gate_on_a_real_grid(tiny):
    _, out = tiny["ablate_grid"]
    grid_dir = sorted(out.glob("exec*"))[0] / "grid" / "ablate"
    expected, ranks = workloads.GRID_EXPECTED, workloads.GRID_RANKS
    assert workloads.check_grid(grid_dir, expected, ranks) == []
    assert workloads.check_grid(grid_dir, dict(expected, full=("linear", "B_rows")), ranks)
    assert workloads.check_grid(grid_dir, expected, dict(ranks, inverted=(2, 6)))
    assert workloads.check_grid(grid_dir, dict(expected, extra=("linear", "none")), ranks)


def test_failed_gate_counts_as_a_failed_execution(tmp_path, monkeypatch, capsys):
    """A gate failure, or outputs that differ between executions, is never hidden."""
    outcomes = iter([[], ["golden: final loss differs"], [], []])
    fingerprints = iter([1.0, 1.0, 2.0, 1.0])

    def fake_execute(args, iter_dir, traced, env, timeout):
        iter_dir.mkdir(parents=True)
        run_ = dict(golden_like_run(), steps=10, batch_size=4, train_seconds=0.1,
                    final_loss=next(fingerprints), final_ckpt_sha256="x")
        return {"t_first_step": 1.0, "t_done": 2.0, "peak_rss_mb": 1.0,
                "summary": {"runs": [run_], "failures": next(outcomes)}}, 0.5

    monkeypatch.setattr(run, "execute", fake_execute)
    monkeypatch.setattr(run, "output_dir", lambda args: tmp_path / "out")
    code = run.main(["--workload", "golden", "--seconds", "0"])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert report["attempted"] == 3 and report["failed"] == 2 and report["correct"] is False
