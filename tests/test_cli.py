"""CLI surface: exit codes, output shape, error routing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import teon
from teon.cli import main

GOOD_INI = """
[run]
task = quadratic
steps = 6
seed = 4
out_path = {out}
log_every = 2
align_every = 3

[task]
m = 4
n = 3
K = 4

[optimizer]
optimizer = teon
eta = 0.2
mode = 1

[grouping]
stack_set = W
"""


def test_check_command_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "check.summary=pass (10/10 ok)" in out
    assert out.count("=pass") >= 10


def test_check_result_failure_formatting():
    from teon.checks import CheckResult, format_check_lines

    bad = CheckResult("k1_collapse", False, "trajectories diverged")
    good = CheckResult("ntr_oracle", True, "max obj defect 1e-15")
    lines = format_check_lines([bad, good])
    assert lines[0] == "check.k1_collapse=FAIL (trajectories diverged)"
    assert lines[-1] == "check.summary=FAIL (1/2 ok)"


def test_construct_maxgain_prints_ratio(capsys):
    assert main(
        ["construct-maxgain", "--m", "8", "--n", "8", "--K", "4", "--mode", "1"]
    ) == 0
    lines = dict(
        ln.split("=", 1) for ln in capsys.readouterr().out.splitlines()
    )
    assert float(lines["maxgain.ratio"]) == pytest.approx(2.0, abs=1e-9)
    assert lines["maxgain.sqrt_K"] == "2"
    assert float(lines["maxgain.muon_norm"]) == pytest.approx(1.0, abs=1e-12)


def test_run_command_writes_csvs(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(GOOD_INI.format(out=tmp_path / "out"), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert f"run.metrics_path={tmp_path / 'out' / 'metrics.csv'}" in out
    assert "summary.best_loss=" in out
    assert (tmp_path / "out" / "alignment.csv").exists()


def test_run_command_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        GOOD_INI.format(out=tmp_path / "out").replace("seed = 4", "seed = 4\nbogus = 1"),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown key 'bogus'" in err


def test_run_command_missing_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    cdir = tmp_path / "cfgs"
    cdir.mkdir()
    (cdir / "a.ini").write_text(GOOD_INI.format(out=tmp_path / "ignored"), "utf-8")
    (cdir / "b.ini").write_text(
        GOOD_INI.format(out=tmp_path / "ignored").replace("eta = 0.2", "eta = 0.1"),
        "utf-8",
    )
    assert main(["sweep", "--config-dir", str(cdir), "--out", str(tmp_path / "sw")]) == 0
    out = capsys.readouterr().out
    assert "sweep.runs=2" in out
    assert "sweep.failed=0" in out
    assert (tmp_path / "sw" / "summary.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_sweep_command_exits_1_when_a_run_fails(tmp_path, capsys):
    cdir = tmp_path / "cfgs"
    cdir.mkdir()
    (cdir / "a.ini").write_text(GOOD_INI.format(out=tmp_path / "ignored"), "utf-8")
    (cdir / "b.ini").write_text(
        f"""
[run]
task = deep_linear
steps = 5
seed = 0
out_path = {tmp_path / 'x'}

[task]
depth = 2
width = 6
batch = 4

[optimizer]
optimizer = muon
eta = 1e200
""",
        "utf-8",
    )
    assert main(["sweep", "--config-dir", str(cdir), "--out", str(tmp_path / "sw")]) == 1
    out = capsys.readouterr().out
    assert "sweep.runs=2" in out
    assert "sweep.failed=1" in out.splitlines()
    summary = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert [row.split(",")[6] for row in summary[2:]] == ["ok", "failed"]


def test_sweep_default_out_dir(tmp_path, capsys):
    cdir = tmp_path / "cfgs"
    cdir.mkdir()
    (cdir / "only.ini").write_text(GOOD_INI.format(out=tmp_path / "ignored"), "utf-8")
    assert main(["sweep", "--config-dir", str(cdir)]) == 0
    assert (cdir / "sweep" / "summary.csv").exists()


def test_sweep_empty_dir_errors(tmp_path, capsys):
    cdir = tmp_path / "empty"
    cdir.mkdir()
    assert main(["sweep", "--config-dir", str(cdir)]) == 1
    assert "no *.ini configs" in capsys.readouterr().err


def test_align_demo_prints_records(capsys):
    code = main(
        [
            "align-demo",
            "--task",
            "micro_attention",
            "--dim",
            "4",
            "--seq",
            "3",
            "--batch",
            "2",
            "--steps",
            "4",
            "--align-every",
            "2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# teon-alignment v1"
    assert lines[1] == "step,pair_id,left_align,right_align,sigma_gap"
    n = int([ln for ln in lines if ln.startswith("alignment.records=")][0].split("=")[1])
    assert n > 0
    assert len([ln for ln in lines if "," in ln and not ln.startswith("step,")]) == n


def test_align_demo_can_write_csv(tmp_path, capsys):
    code = main(
        [
            "align-demo",
            "--task",
            "micro_attention",
            "--dim",
            "4",
            "--seq",
            "3",
            "--batch",
            "2",
            "--steps",
            "4",
            "--optimizer",
            "muon",
            "--out",
            str(tmp_path / "demo"),
        ]
    )
    assert code == 0
    assert "alignment.csv_path=" in capsys.readouterr().out
    assert (tmp_path / "demo" / "alignment.csv").exists()


def test_align_demo_rejects_other_tasks():
    with pytest.raises(SystemExit):
        main(["align-demo", "--task", "quadratic"])


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "teon", "construct-maxgain",
         "--m", "4", "--n", "4", "--K", "4", "--mode", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "maxgain.ratio=" in proc.stdout


def _sweep_csvs(out, threads):
    src = str(Path(teon.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    configs = Path(__file__).resolve().parents[1] / "configs"
    proc = subprocess.run(
        [sys.executable, "-m", "teon", "sweep", "--config-dir", str(configs), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sweep.failed=0" in proc.stdout.splitlines()
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}


def test_sweep_csvs_identical_across_blas_thread_counts(tmp_path):
    one = _sweep_csvs(tmp_path / "t1", 1)
    two = _sweep_csvs(tmp_path / "t2", 2)
    assert len(one) > 4 and list(one) == list(two)
    for name, data in one.items():
        assert data == two[name], name
