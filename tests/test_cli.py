"""End-to-end command tests over tiny configs.

Everything drives prilora.cli.main() in process; one test also runs the
`prilora` console script declared in pyproject.toml through a launcher it
writes from that entry, so no install is needed. Runs are kept to ~30 steps
on a small model so the whole module finishes in a few seconds.
"""

import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prilora
from prilora import cli
from prilora.cli import ABLATION_VARIANTS, ablation_config, main
from prilora.config import DEFAULTS, parse_config_text
from prilora.errors import ConfigError, FormatError
from prilora.model import MATRIX_KINDS
from prilora.numerics import read_tensor
from prilora.prune_engine import STRATEGIES
from prilora.train_harness import EvalPoint, build_model

TINY = """\
config_version = 1
name = tiny
task.vocab_size = 8
task.seq_len = 8
task.train_count = 160
task.eval_count = 48
model.layers = 2
model.d_model = 16
model.heads = 2
model.d_ff = 32
plan.first_rank = 2
plan.last_rank = 4
prune.interval = 10
train.steps = 30
train.eval_interval = 15
train.warmup_steps = 5
train.batch_size = 8
"""


def write_cfg(path: Path, text: str = TINY) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def read_metrics(run_dir: Path) -> list[EvalPoint]:
    lines = (run_dir / "metrics.jsonl").read_text().splitlines()
    return [EvalPoint.from_json(line) for line in lines if line.strip()]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One completed single-seed run, shared by the artifact inspections."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = write_cfg(root / "tiny.cfg")
    out = root / "runs"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out / "tiny"


# -- validate-config -----------------------------------------------------------


def test_validate_config_prints_resolved_and_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg")
    assert main(["validate-config", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "train.steps = 30" in out
    assert "ok: valid for seeds [0]" in out


def test_validate_config_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg", TINY + "plan.slope = 3\n")
    assert main(["validate-config", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_config_rejects_unbuildable_values(tmp_path, capsys):
    # parses fine, but the rank exceeds what the layer widths allow
    cfg = write_cfg(tmp_path / "t.cfg", TINY.replace("plan.last_rank = 4", "plan.last_rank = 99"))
    assert main(["validate-config", "--config", str(cfg)]) == 1
    assert "exceeds" in capsys.readouterr().err


# configs each command must refuse before making any directory: every one
# parses, and each fails a check that only building the run reaches;
# case -> (config text, what the error says)
UNBUILDABLE = {
    "rank_wider_than_d_model": (
        TINY.replace("plan.last_rank = 4", "plan.last_rank = 20"), "exceeds min(16, 16)"),
    "unknown_adapter_kind": (TINY + "adapter.kinds = wq,wz\n", "unknown matrix kind 'wz'"),
    "duplicate_adapter_kind": (
        TINY + "adapter.kinds = wq,wq\n", "adapter kinds must name at least one kind, each once"),
    "empty_adapter_kinds": (
        TINY + "adapter.kinds =\n", "adapter kinds must name at least one kind, each once"),
    "negative_adapter_std": (TINY + "adapter.std = -1\n", "adapter std must be positive"),
    # 4**4 = 256 distinct sequences cannot hold 300 + 10
    "task_space_too_small": (
        TINY.replace("task.vocab_size = 8", "task.vocab_size = 4")
        .replace("task.seq_len = 8", "task.seq_len = 4")
        .replace("task.train_count = 160", "task.train_count = 300")
        .replace("task.eval_count = 48", "task.eval_count = 10"),
        "300 + 10 distinct sequences do not fit in 4**4"),
    # 4**5 = 1024 sequences hold 310, but only 80 carry each majority label
    "label_space_too_small": (
        TINY.replace("task.vocab_size = 8", "task.vocab_size = 4")
        .replace("task.seq_len = 8", "task.seq_len = 5")
        .replace("task.train_count = 160", "task.train_count = 300")
        .replace("task.eval_count = 48", "task.eval_count = 10"),
        "token_majority yields only 80 distinct sequences with label 0"),
    # the task's own seed feeds the same 64-bit stream as the run seed
    "task_seed_beyond_64_bits": (
        TINY + f"task.seed = {2**64}\n", "task seed must be an unsigned 64-bit integer"),
    # 100000 blocks of 4·16² + 2·16·32 frozen floats, plus 8 + 8 token and position rows of 16
    "frozen_base_over_the_cap": (
        TINY.replace("model.layers = 2", "model.layers = 100000"),
        "frozen base weights would take 204,800,256 floats, over the cap of 134,217,728"),
    # an evaluation batch of 64 sequences, 2 heads, 100000² scores each
    "attention_scores_over_the_cap": (
        TINY.replace("task.seq_len = 8", "task.seq_len = 100000"),
        "attention scores of one batch would take 1,280,000,000,000 floats, over the cap of "
        "67,108,864"),
    # 10**8 and 10**20 position rows of 16 floats, plus 8 token rows and the
    # blocks' 4096: refused at once, since the task's space checks bound
    # vocab_size**seq_len without building it
    "seq_len_of_1e8": (
        TINY.replace("task.seq_len = 8", f"task.seq_len = {10**8}"),
        "frozen base weights would take 1,600,004,224 floats, over the cap"),
    "seq_len_of_1e20": (
        TINY.replace("task.seq_len = 8", f"task.seq_len = {10**20}"),
        "frozen base weights would take 1,600,000,000,000,000,004,224 floats, over the cap"),
    # 10**12 + 48 sequences of 64 tokens: the space holds them, memory does not
    "task_tokens_over_the_cap": (
        TINY.replace("task.vocab_size = 8", "task.vocab_size = 16")
        .replace("task.seq_len = 8", "task.seq_len = 64")
        .replace("task.train_count = 160", f"task.train_count = {10**12}"),
        "tokens of the task data would take 64,000,000,003,072 int64s, over the cap of "
        "134,217,728"),
}
GRID_COMMANDS = {
    "validate-config": ["validate-config"],
    "run": ["run"],
    "sweep-ratio": ["sweep-ratio", "--ratios", "0.5"],
    "ablate": ["ablate"],
}


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_unbuildable_config_is_refused_before_any_write(tmp_path, capsys, command, case):
    text, message = UNBUILDABLE[case]
    cfg = write_cfg(tmp_path / "t.cfg", text)
    out = tmp_path / "out"
    argv = GRID_COMMANDS[command] + ["--config", str(cfg)]
    if command != "validate-config":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def trained_entries(ckpt: Path) -> int:
    """Entries of the adapter factors (param/*.A and param/*.B) a checkpoint holds."""
    blob = ckpt.read_bytes()
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    names = json.loads(blob[16 : 16 + head_len])["tensors"]
    payload = io.BytesIO(blob[16 + head_len : -32])
    tensors = {name: read_tensor(payload) for name in names}
    return sum(t.data.size for name, t in tensors.items()
               if name.startswith("param/") and name.endswith((".A", ".B")))


# TINY cut to 2 steps, and one key at a time drawn from a bounded set: no
# size above 64 and no layer count above 4, so every run stays small
TWO_STEPS = TINY.replace("train.steps = 30", "train.steps = 2").replace(
    "train.warmup_steps = 5", "train.warmup_steps = 1")
SIZES = st.integers(-1, 64)
ONE_KEY = {
    "task.kind": st.sampled_from(["token_majority", "parity_markers", "linear_probe"]),
    "task.vocab_size": SIZES,
    "task.seq_len": SIZES,
    "task.train_count": SIZES,
    "task.eval_count": SIZES,
    "model.layers": st.integers(-1, 4),
    "model.d_model": SIZES,
    "model.heads": SIZES,
    "model.d_ff": SIZES,
    "plan.kind": st.sampled_from(
        ["linear", "uniform", "inverted", "concentrated", "preset", "explicit"]),
    "plan.first_rank": SIZES,
    "plan.last_rank": SIZES,
    "prune.strategy": st.sampled_from(STRATEGIES),
    "prune.ratio": st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5]),
    "prune.interval": SIZES,
    "train.lr": st.sampled_from([-1.0, 1e-3, 1.0, 1e20]),
    "train.batch_size": SIZES,
    "train.eval_interval": SIZES,
    "train.warmup_steps": st.integers(-1, 3),
    "adapter.kinds": st.lists(st.sampled_from(MATRIX_KINDS + ("wz",)), max_size=4).map(",".join),
}


@settings(max_examples=120, deadline=None)
@given(change=st.sampled_from(sorted(ONE_KEY)).flatmap(
    lambda key: st.tuples(st.just(key), ONE_KEY[key])))
def test_a_valid_config_runs_what_it_reports(change):
    """validate-config refuses the config, or a run of it completes and its
    adapter_params counts the factor entries it trained, or it diverges."""
    key, value = change
    lines = [line for line in TWO_STEPS.splitlines() if not line.startswith(f"{key} =")]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp) / "t.cfg", "\n".join(lines + [f"{key} = {value}"]) + "\n")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            checked = main(["validate-config", "--config", str(cfg)])
            ran = main(["run", "--config", str(cfg), "--out", str(out)]) if checked == 0 else None
        if checked != 0:
            assert checked == 1 and "config error:" in err.getvalue(), err.getvalue()
            assert "Traceback" not in err.getvalue()
            return
        run_dir = out / "tiny" / "seed_0"
        run = json.loads((run_dir / "run.json").read_text())
        if ran == 2:
            assert run["status"] == "incomplete", err.getvalue()
            return
        assert ran == 0 and run["status"] == "complete", err.getvalue()
        assert run["adapter_params"] == trained_entries(run_dir / "final.ckpt")


def test_empty_name_is_refused_before_any_write(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg", TINY.replace("name = tiny", "name ="))
    out = tmp_path / "out"
    assert main(["validate-config", "--config", str(cfg)]) == 1
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "name must be non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_is_a_config_error(capsys):
    assert main(["run", "--config", "/nonexistent.cfg"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TINY.replace("name = tiny", "name = caf\xe9").encode("latin-1"))
    assert main(["validate-config", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config ") and str(cfg) in err
    assert "Traceback" not in err


# golden dims, and the benchmark's wide dims: 4 layers, d_model 128, d_ff 256
BASE_DIMS = {
    "golden": {},
    "wide": {"task.vocab_size": 32, "task.seq_len": 32, "model.layers": 4,
             "model.d_model": 128, "model.heads": 4, "model.d_ff": 256,
             "plan.first_rank": 4, "plan.last_rank": 16},
}


@pytest.mark.parametrize("dims", sorted(BASE_DIMS))
def test_the_frozen_base_estimate_is_exact(monkeypatch, dims):
    # the cap check counts the floats the built model's base holds, no more
    cfg = {**DEFAULTS, **BASE_DIMS[dims]}
    _, tcfg, model_dims = cli._specs(cfg, 17)
    floats = sum(a.size for a in build_model(tcfg, model_dims).base_arrays())
    monkeypatch.setattr(cli, "MAX_BASE_FLOATS", floats)
    cli._specs(cfg, 17)
    monkeypatch.setattr(cli, "MAX_BASE_FLOATS", floats - 1)
    with pytest.raises(ConfigError, match=f"frozen base weights would take {floats:,} floats"):
        cli._specs(cfg, 17)


def test_usage_errors_map_to_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["run"]) == 1  # --config is required
    assert main(["run", "--config", "x", "--bogus"]) == 1


def test_bad_seed_and_job_flags(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg")
    assert main(["run", "--config", str(cfg), "--seeds", "1,two"]) == 1
    assert main(["run", "--config", str(cfg), "--seeds", ""]) == 1
    assert main(["run", "--config", str(cfg), "--seeds", "1,1"]) == 1
    assert main(["run", "--config", str(cfg), "--jobs", "0"]) == 1
    # a seed outside [0, 2**64), from the flag or the config, is a config
    # error raised before any directory is made
    out = tmp_path / "out"
    for seeds in ("-1", str(2**64)):
        assert main(["run", "--config", str(cfg), "--seeds", seeds, "--out", str(out)]) == 1
    bad_seed = write_cfg(tmp_path / "bad_seed.cfg", TINY + "seed = -1\n")
    assert main(["run", "--config", str(bad_seed), "--out", str(out)]) == 1
    assert not out.exists()


# -- run -----------------------------------------------------------------------


def test_run_leaves_a_complete_artifact_set(tiny_run):
    _, group = tiny_run
    seed_dir = group / "seed_0"
    for name in ("config.resolved", "metrics.jsonl", "final.ckpt", "best.ckpt", "run.json"):
        assert (seed_dir / name).exists(), name
    assert (group / "config.resolved").exists()
    assert (group / "summary.json").exists()
    assert (group / "summary.tsv").exists()

    run = json.loads((seed_dir / "run.json").read_text())
    assert run["status"] == "complete"
    assert run["seed"] == 0
    assert run["base_hash_before"] == run["base_hash_after"]
    assert run["adapter_params"] == 1344  # (2+4) ranks x 224 dims per rank
    assert run["init_loss"] == pytest.approx(np.log(2.0), abs=1e-12)

    resolved = parse_config_text((seed_dir / "config.resolved").read_text())
    assert resolved["seed"] == 0
    assert resolved["train.steps"] == 30


def test_single_seed_summary_has_zero_std(tiny_run):
    _, group = tiny_run
    summary = json.loads((group / "summary.json").read_text())
    assert summary["seeds"] == [0]
    for metric in ("final_loss", "final_accuracy", "best_accuracy"):
        assert summary[metric]["std"] == 0.0


def test_summary_matches_recomputation_from_logs(tiny_run):
    _, group = tiny_run
    points = read_metrics(group / "seed_0")
    summary = json.loads((group / "summary.json").read_text())
    assert summary["final_loss"]["mean"] == points[-1].loss
    assert summary["final_accuracy"]["mean"] == points[-1].accuracy
    assert summary["best_accuracy"]["mean"] == max(p.accuracy for p in points)


def test_rerun_reproduces_identical_artifacts(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out / "tiny")
    a, b = outs
    assert (a / "seed_0" / "metrics.jsonl").read_bytes() == \
           (b / "seed_0" / "metrics.jsonl").read_bytes()
    assert (a / "seed_0" / "final.ckpt").read_bytes() == \
           (b / "seed_0" / "final.ckpt").read_bytes()
    assert (a / "summary.json").read_text() == (b / "summary.json").read_text()


def test_parallel_jobs_match_serial(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg")
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", "--config", str(cfg), "--seeds", "0,1",
                 "--out", str(serial)]) == 0
    assert main(["run", "--config", str(cfg), "--seeds", "0,1",
                 "--out", str(parallel), "--jobs", "2"]) == 0
    for seed in (0, 1):
        assert (serial / "tiny" / f"seed_{seed}" / "metrics.jsonl").read_bytes() == \
               (parallel / "tiny" / f"seed_{seed}" / "metrics.jsonl").read_bytes()
    sa = json.loads((serial / "tiny" / "summary.json").read_text())
    pa = json.loads((parallel / "tiny" / "summary.json").read_text())
    assert sa == pa
    assert sa["seeds"] == [0, 1]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each pool a command makes. The pool class is
    imported when a command builds one, so a stand-in set on
    concurrent.futures is the one it gets; it runs the map serially and
    starts no process."""
    import concurrent.futures

    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return made


# each command at --jobs 2, and the pool sizes it makes: none for one run
@pytest.mark.parametrize("argv, pools", [
    (["run", "--seeds", "0,1"], [2]),
    (["run"], []),
    (["sweep-ratio", "--ratios", "0,0.5"], [2]),
    (["ablate"], [2]),
])
def test_a_pool_is_made_only_for_more_than_one_run(tmp_path, pool_sizes, argv, pools):
    cfg = write_cfg(tmp_path / "t.cfg", TWO_STEPS)
    argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "2"]
    assert main(argv) == 0
    assert pool_sizes == pools


# --jobs far over the run count: the pool holds one worker per run
@pytest.mark.parametrize("argv, pools", [
    (["run", "--seeds", "0,1,2"], [3]),
    (["ablate"], [len(ABLATION_VARIANTS)]),
])
def test_the_pool_is_no_larger_than_its_runs(tmp_path, pool_sizes, argv, pools):
    cfg = write_cfg(tmp_path / "t.cfg", TWO_STEPS)
    argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "500"]
    assert main(argv) == 0
    assert pool_sizes == pools


def test_importing_the_cli_loads_no_pool_and_no_fractions():
    # a command that trains one run never needs the process pool's modules
    # (multiprocessing, sockets, subprocess), and rank plans are integer
    # arithmetic
    env = dict(os.environ, PYTHONPATH=str(Path(prilora.__file__).resolve().parents[1]))
    code = ("import sys, prilora.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing', 'fractions') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_divergent_run_flags_incomplete_and_exits_two(tmp_path, capsys):
    text = TINY.replace("name = tiny", "name = blowup")
    text += "task.kind = linear_probe\ntrain.optimizer = sgd\ntrain.lr = 1e20\n"
    cfg = write_cfg(tmp_path / "t.cfg", text)
    out = tmp_path / "runs"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    seed_dir = out / "blowup" / "seed_0"
    run = json.loads((seed_dir / "run.json").read_text())
    assert run["status"] == "incomplete"
    assert run["failed_step"] >= 1
    assert (seed_dir / "last_good.ckpt").exists()
    assert not (seed_dir / "final.ckpt").exists()
    assert f"{seed_dir} incomplete: " in capsys.readouterr().err


# -- sweep-ratio -----------------------------------------------------------------


def test_sweep_orders_groups_by_ratio(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg")
    out = tmp_path / "runs"
    assert main(["sweep-ratio", "--config", str(cfg), "--out", str(out),
                 "--ratios", "0.5,0.25"]) == 0
    group = out / "tiny"
    assert (group / "ratio_0.25" / "seed_0" / "metrics.jsonl").exists()
    assert (group / "ratio_0.5" / "seed_0" / "metrics.jsonl").exists()
    rows = (group / "sweep.tsv").read_text().splitlines()
    assert rows[0].startswith("ratio\t")
    assert [row.split("\t")[0] for row in rows[1:]] == ["0.25", "0.5"]
    assert capsys.readouterr().out.startswith("ratio\t")


def test_sweep_requires_valid_ratios(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg")
    assert main(["sweep-ratio", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert main(["sweep-ratio", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--ratios", "1.5"]) == 1
    assert main(["sweep-ratio", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--ratios", ""]) == 1


def test_sweep_parallel_jobs_match_serial(tmp_path):
    # one seed and three ratios: the ratios themselves run side by side
    cfg = write_cfg(tmp_path / "t.cfg")
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    for out, jobs in ((serial, "1"), (parallel, "2")):
        assert main(["sweep-ratio", "--config", str(cfg), "--out", str(out),
                     "--ratios", "0.5,0,0.25", "--jobs", jobs]) == 0
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file())
    assert len([f for f in files if f.name == "metrics.jsonl"]) == 3
    timings = ("train_seconds", "seconds_per_step")
    for name in files:
        a, b = (serial / name).read_bytes(), (parallel / name).read_bytes()
        if name.name == "run.json":  # every field but the timings
            a, b = ({k: v for k, v in json.loads(x).items() if k not in timings} for x in (a, b))
        assert a == b, name


def test_diverging_sweep_names_the_incomplete_run(tmp_path, capsys):
    text = TINY + "task.kind = linear_probe\ntrain.optimizer = sgd\ntrain.lr = 1e20\n"
    cfg = write_cfg(tmp_path / "t.cfg", text)
    out = tmp_path / "runs"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["sweep-ratio", "--config", str(cfg), "--out", str(out),
                     "--ratios", "0.5"]) == 2
    run_dir = out / "tiny" / "ratio_0.5" / "seed_0"
    assert json.loads((run_dir / "run.json").read_text())["status"] == "incomplete"
    assert f"{run_dir} incomplete: " in capsys.readouterr().err
    rows = (out / "tiny" / "sweep.tsv").read_text().splitlines()
    assert rows[1] == "0.5\tnan\tnan\tnan\tnan"


def test_sweep_refuses_a_ratio_directory_named_twice(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg")
    out = tmp_path / "r"
    for ratios in ("0.5,0.5", "0.25,0.250"):
        assert main(["sweep-ratio", "--config", str(cfg), "--out", str(out),
                     "--ratios", ratios]) == 1
    assert not out.exists()


def test_ratio_zero_sweep_equals_disabled_pruning(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "t.cfg")
    sweep_out = tmp_path / "sweep"
    assert main(["sweep-ratio", "--config", str(cfg), "--out", str(sweep_out),
                 "--ratios", "0"]) == 0

    monkeypatch.setenv("PRILORA_PRUNE__STRATEGY", "none")
    run_out = tmp_path / "off"
    assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0

    swept = (sweep_out / "tiny" / "ratio_0" / "seed_0" / "metrics.jsonl").read_bytes()
    off = (run_out / "tiny" / "seed_0" / "metrics.jsonl").read_bytes()
    assert swept == off


# -- ablate ----------------------------------------------------------------------


def test_ablation_config_variants():
    cfg = parse_config_text(TINY)
    assert len(ABLATION_VARIANTS) == 8
    fixed = ablation_config(cfg, "fixed")
    assert fixed["plan.kind"] == "uniform" and fixed["plan.rank"] == 3
    conc = ablation_config(cfg, "concentrated")
    assert conc["plan.kind"] == "concentrated" and conc["plan.last_rank"] == 9
    assert ablation_config(cfg, "no_pruning")["prune.strategy"] == "none"
    assert ablation_config(cfg, "random_A_cols")["prune.strategy"] == "random_A_cols"
    assert ablation_config(cfg, "full") == {**cfg, "prune.strategy": "prilora_A"}
    assert cfg["plan.kind"] == "linear"  # base mapping untouched
    with pytest.raises(ConfigError):
        ablation_config(cfg, "slimmer")
    with pytest.raises(ConfigError):
        ablation_config({**cfg, "plan.kind": "uniform"}, "fixed")


def test_ablate_runs_the_full_grid(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "t.cfg")
    before = cfg_path.read_bytes()
    out = tmp_path / "runs"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out),
                 "--seeds", "3"]) == 0
    assert cfg_path.read_bytes() == before

    grid_dir = out / "tiny" / "ablate"
    grid = json.loads((grid_dir / "grid.json").read_text())
    assert grid["base_seed"] == 3
    assert set(grid["variants"]) == set(ABLATION_VARIANTS)

    params = {}
    for variant in ABLATION_VARIANTS:
        run = json.loads((grid_dir / variant / "run.json").read_text())
        assert run["status"] == "complete", variant
        assert run["seed"] == 3
        params[variant] = run["adapter_params"]
    same = {v: p for v, p in params.items() if v != "concentrated"}
    assert len(set(same.values())) == 1
    assert params["concentrated"] != params["full"]

    resolved = parse_config_text((grid_dir / "no_pruning" / "config.resolved").read_text())
    assert resolved["prune.strategy"] == "none"
    assert resolved["plan.kind"] == "linear"

    rows = (grid_dir / "ablate.tsv").read_text().splitlines()
    assert len(rows) == 9
    assert capsys.readouterr().out.startswith("variant\t")


def test_ablate_refuses_more_than_one_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg")
    out = tmp_path / "runs"
    assert main(["ablate", "--config", str(cfg), "--out", str(out), "--seeds", "3,4"]) == 1
    assert "one seed" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_rejects_non_linear_base(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg", TINY + "plan.kind = uniform\n")
    assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1


# -- report ----------------------------------------------------------------------


def test_report_exports_plot_tables(tiny_run, capsys):
    _, group = tiny_run
    assert main(["report", "--out", str(group)]) == 0
    seed_dir = group / "seed_0"

    metrics_rows = (seed_dir / "metrics.tsv").read_text().splitlines()
    points = read_metrics(seed_dir)
    assert len(metrics_rows) == len(points) + 1
    assert metrics_rows[0] == "step\tloss\taccuracy\tnonzero_params\tadapter_params\tnonzero_fraction"

    nz_rows = (seed_dir / "nonzero.tsv").read_text().splitlines()
    assert len(nz_rows) == len(points) + 1

    event_rows = (seed_dir / "prune_events.tsv").read_text().splitlines()
    assert event_rows[0] == "step\tlayer\tstrategy\tratio\tzeros_written\tmin_row_zeros\tnonzero"
    events = [e for p in points for e in p.prune_events]
    assert len(events) == 3 * 12  # three events over 12 adapted matrices
    assert len(event_rows) == len(events) + 1
    assert event_rows[1:] == [
        f"{e['step']}\t{e['layer']}\t{e['strategy']}\t{e['ratio']}\t{e['zeros_written']}"
        f"\t{e['min_row_zeros']}\t{e['nonzero']}"
        for e in events
    ]
    assert sorted({row.split("\t")[0] for row in event_rows[1:]}) == ["10", "20", "30"]


def test_report_lists_missing_logs(tmp_path, capsys):
    present = tmp_path / "present"
    present.mkdir()
    (present / "metrics.jsonl").write_text(
        EvalPoint(0, 0.7, 0.5, 10, 20, []).to_json() + "\n"
    )
    absent = tmp_path / "absent"
    assert main(["report", str(present), str(absent)]) == 0
    err = capsys.readouterr().err
    assert str(absent / "metrics.jsonl") in err
    assert (present / "metrics.tsv").exists()
    assert not (absent / "metrics.tsv").exists()
    # a directory holding only metrics.jsonl is not missing anything
    assert main(["report", str(present)]) == 0
    assert "missing" not in capsys.readouterr().err
    assert (present / "prune_events.tsv").read_text().count("\n") == 1  # header only


def test_report_leaves_counts_an_older_event_record_lacks_empty(tmp_path):
    older = {"step": 40, "layer": "blocks.0.wq", "strategy": "prilora_A", "ratio": 0.5,
             "zeros_written": 32}  # logged before min_row_zeros and nonzero existed
    (tmp_path / "metrics.jsonl").write_text(EvalPoint(40, 0.7, 0.5, 10, 20, [older]).to_json())
    assert main(["report", str(tmp_path)]) == 0
    rows = (tmp_path / "prune_events.tsv").read_text().splitlines()
    assert rows[1:] == ["40\tblocks.0.wq\tprilora_A\t0.5\t32\t\t"]


def test_table_cells_are_floats_at_ten_digits_and_str_otherwise(tmp_path, capsys):
    # 0.1 + 0.2 reads 0.30000000000000004 under repr, 0.3 under %.10g
    path = tmp_path / "t.tsv"
    cli._write_tsv(path, ("a", "b", "c", "d"), [(0.1 + 0.2, 7, "x", 1 / 3)])
    assert path.read_text() == "a\tb\tc\td\n0.3\t7\tx\t0.3333333333\n"
    assert capsys.readouterr().out == ""
    cli._write_tsv(path, ("a", "b"), [], echo=True)
    assert capsys.readouterr().out == path.read_text() == "a\tb\n"


def test_report_writes_event_cells_as_logged(tmp_path):
    # an event's ratio is its logged str(), not a float cell at ten digits;
    # an int loss is a float cell all the same
    event = {"step": 3, "layer": "blocks.0.wq", "strategy": "prilora_A", "ratio": 1 / 3,
             "zeros_written": 5, "min_row_zeros": 1, "nonzero": 9}
    (tmp_path / "metrics.jsonl").write_text(EvalPoint(5, 12345678901, 1, 9, 20, [event]).to_json())
    assert main(["report", str(tmp_path)]) == 0
    events = (tmp_path / "prune_events.tsv").read_text().splitlines()
    assert events[1] == "3\tblocks.0.wq\tprilora_A\t0.3333333333333333\t5\t1\t9"
    metrics = (tmp_path / "metrics.tsv").read_text().splitlines()
    assert metrics[1] == "5\t1.23456789e+10\t1\t9\t20\t0.45"


GOOD_POINT = json.loads(EvalPoint(0, 0.7, 0.5, 10, 20, []).to_json())


@pytest.mark.parametrize("line", [
    '{"step": 0, "loss": 0.7}',
    "not json",
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested_too_deep"),
    pytest.param(json.dumps(dict(GOOD_POINT, loss=10**400)), id="huge_int_loss"),
])
def test_report_refuses_a_malformed_metrics_line(tmp_path, capsys, line):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    good = EvalPoint(0, 0.7, 0.5, 10, 20, []).to_json()
    (run_dir / "metrics.jsonl").write_text(f"{good}\n\n{line}\n")
    assert main(["report", str(run_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"{run_dir / 'metrics.jsonl'}:3: not an eval point" in err[0]
    assert not (run_dir / "metrics.tsv").exists()


@pytest.mark.parametrize("line", [
    json.dumps(dict(GOOD_POINT, loss="x")).encode(),
    json.dumps(dict(GOOD_POINT, prune_events=5)).encode(),
    b"\xff\xfe not UTF-8",
], ids=["loss_a_string", "prune_events_a_number", "not_utf8"])
def test_metrics_line_of_the_wrong_types_is_a_format_error(tmp_path, capsys, line):
    # both readers of a run's log, its group summary and report, name the line
    run_dir = tmp_path / "group" / "seed_0"
    run_dir.mkdir(parents=True)
    (run_dir / "run.json").write_text('{"status": "complete"}')
    good = EvalPoint(0, 0.7, 0.5, 10, 20, []).to_json().encode()
    (run_dir / "metrics.jsonl").write_bytes(good + b"\n" + line + b"\n")
    where = f"{run_dir / 'metrics.jsonl'}:2: not an eval point"
    with pytest.raises(FormatError, match=re.escape(where)):
        cli._summarize_group(run_dir.parent, (0,))
    assert main(["report", str(run_dir)]) == 1
    assert where in capsys.readouterr().err
    assert not (run_dir / "metrics.tsv").exists()


def test_report_with_nothing_to_do(capsys):
    assert main(["report"]) == 0
    assert "no run directories" in capsys.readouterr().err


# -- entry point -------------------------------------------------------------------


def test_console_script_is_installed(tmp_path):
    # Write the launcher an installer would generate for the declared entry
    # point, so the check needs no install and runs the code under test.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["prilora"]
    assert entry == "prilora.cli:main"
    module, func = entry.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "prilora"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = str(Path(prilora.__file__).resolve().parents[1])
    cfg = write_cfg(tmp_path / "t.cfg")
    proc = subprocess.run(
        ["prilora", "validate-config", "--config", str(cfg)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok: valid" in proc.stdout


# -- the kept heap ---------------------------------------------------------------


def test_run_artifacts_are_the_same_bytes_with_and_without_the_kept_heap(tmp_path):
    # each run in a fresh interpreter, as the setting lasts for the process
    cfg = write_cfg(tmp_path / "t.cfg")
    env = dict(os.environ, PYTHONPATH=str(Path(prilora.__file__).resolve().parents[1]))
    launch = ("import sys; from prilora import cli, train_harness; {}; "
              "sys.exit(cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]))")
    runs = {}
    for kept, patch in ((True, "pass"), (False, "train_harness._keep_heap = lambda: False")):
        out = tmp_path / f"kept_{kept}"
        proc = subprocess.run([sys.executable, "-c", launch.format(patch), str(cfg), str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs[kept] = out / "tiny"
    files = sorted(p.relative_to(runs[True]) for p in runs[True].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(runs[False]) for p in runs[False].rglob("*") if p.is_file())
    for rel in files:
        kept, plain = (runs[flag] / rel for flag in (True, False))
        if rel.name == "run.json":  # all but the wall clock
            clock = ("train_seconds", "seconds_per_step")
            kept, plain = ({k: v for k, v in json.loads(f.read_text()).items() if k not in clock}
                           for f in (kept, plain))
            assert kept == plain, rel
        else:
            assert kept.read_bytes() == plain.read_bytes(), rel
