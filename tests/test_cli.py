"""CLI surface: exit codes, output shape, error routing."""

import math
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

# Muon at eta = 1e200: the first update is finite, the step-1 forward overflows.
DIVERGING_INI = """
[run]
task = deep_linear
steps = 5
seed = 0
out_path = {out}

[task]
depth = 2
width = 6
batch = 4

[optimizer]
optimizer = muon
eta = 1e200
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


def test_run_command_rejects_a_huge_ns_steps_in_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "huge.ini"
    huge = "mode = 1\nscheme = newton_schulz\nns_steps = 99999999999999999999"
    text = GOOD_INI.format(out=tmp_path / "out").replace("mode = 1", huge)
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "[optimizer] ns_steps must lie in [1, " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "exc,line",
    [
        (MemoryError("Unable to allocate 14.6 TiB"), "error: Unable to allocate 14.6 TiB\n"),
        (MemoryError(), "error: MemoryError\n"),
    ],
)
def test_run_command_reports_an_allocation_failure_in_one_error_line(
    monkeypatch, tmp_path, capsys, exc, line
):
    # a task too large for the host: its constructor raises, and no array is allocated
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(teon.runner, "make_task", out_of_memory)
    cfg = tmp_path / "run.ini"
    cfg.write_text(GOOD_INI.format(out=tmp_path / "out"), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == line
    assert not (tmp_path / "out").exists()


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


def _assert_config_error_before_any_run(tmp_path, capsys, command, ini, message):
    cdir = tmp_path / "cfgs"
    cdir.mkdir()
    (cdir / "bad.ini").write_text(ini, encoding="utf-8")
    if command == "run":
        argv = ["run", "--config", str(cdir / "bad.ini")]
    else:
        argv = ["sweep", "--config-dir", str(cdir), "--out", str(tmp_path / "sw")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "bad.ini" in lines[0] and message in lines[0]
    assert "run.metrics_path" not in captured.out
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unknown_ns_preset_fails_before_any_run(tmp_path, capsys, command):
    ini = GOOD_INI.format(out=tmp_path / "out").replace(
        "mode = 1", "mode = 1\nscheme = newton_schulz\nns_preset = jordn"
    )
    message = "[optimizer] unknown Newton-Schulz preset 'jordn'"
    _assert_config_error_before_any_run(tmp_path, capsys, command, ini, message)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_repeated_stack_set_token_fails_before_any_run(tmp_path, capsys, command):
    ini = GOOD_INI.format(out=tmp_path / "out").replace("stack_set = W", "stack_set = W,W")
    message = "stack_set repeats token 'W'"
    _assert_config_error_before_any_run(tmp_path, capsys, command, ini, message)


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


def test_sweep_command_exits_1_when_a_run_fails(tmp_path, capsys):
    cdir = tmp_path / "cfgs"
    cdir.mkdir()
    (cdir / "a.ini").write_text(GOOD_INI.format(out=tmp_path / "ignored"), "utf-8")
    (cdir / "b.ini").write_text(DIVERGING_INI.format(out=tmp_path / "x"), "utf-8")
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


ATTENTION_INI = """
[run]
task = micro_attention
steps = 4
seed = 0
out_path = {out}
align_every = 2

[task]
dim = 4
seq = 3
batch = 2
blocks = 2

[optimizer]
optimizer = teon
eta = 0.05
mode = 1
"""


def _align_demo(tmp_path, capsys, ini):
    """Run `align-demo` on `ini` (its `{out}` filled in) and return the printed
    lines and the bytes of the alignment.csv the run wrote."""
    cfg = tmp_path / "demo.ini"
    cfg.write_text(ini.format(out=tmp_path / "demo"), encoding="utf-8")
    assert main(["align-demo", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    csv_path = tmp_path / "demo" / "alignment.csv"
    assert lines[-1] == f"alignment.csv_path={csv_path}"
    return lines, csv_path.read_bytes()


def _printed_records(lines, written):
    """The printed record rows, once checked against the trailer and, with
    the header, byte for byte against the written alignment.csv."""
    assert lines[:2] == ["# teon-alignment v1", "step,pair_id,left_align,right_align,sigma_gap"]
    assert lines[-2].startswith("alignment.final_loss=")
    rows = lines[2:-3]
    assert lines[-3] == f"alignment.records={len(rows)}"
    assert "".join(ln + "\n" for ln in lines[:-3]).encode() == written
    return rows


def test_align_demo_prints_records(tmp_path, capsys):
    assert _printed_records(*_align_demo(tmp_path, capsys, ATTENTION_INI))


def test_align_demo_prints_records_on_a_non_attention_task(tmp_path, capsys):
    rows = _printed_records(*_align_demo(tmp_path, capsys, GOOD_INI))
    assert {row.split(",")[0] for row in rows} == {"3", "6"}


def test_align_demo_prints_no_records_under_adamw(tmp_path, capsys):
    # adamw keeps no momentum buffer, so there is nothing to align
    ini = ATTENTION_INI.replace("optimizer = teon", "optimizer = adamw").replace("mode = 1\n", "")
    assert _printed_records(*_align_demo(tmp_path, capsys, ini)) == []


def test_align_demo_writes_the_csvs_that_run_writes(tmp_path, capsys):
    _align_demo(tmp_path, capsys, GOOD_INI)
    cfg = tmp_path / "run.ini"
    cfg.write_text(GOOD_INI.format(out=tmp_path / "run"), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 0
    for name in ("metrics.csv", "alignment.csv"):
        assert (tmp_path / "demo" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_align_demo_rejects_a_missing_or_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        GOOD_INI.format(out=tmp_path / "out").replace("seed = 4", "seed = 4\nbogus = 1"),
        encoding="utf-8",
    )
    for path, message in ((tmp_path / "nope.ini", "nope.ini"), (bad, "unknown key 'bogus'")):
        assert main(["align-demo", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and message in line
        assert captured.out == ""
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_teon_stack_set_token_without_a_role_fails_the_run(tmp_path, capsys, command):
    # deep_linear's matrices all have role W, which the default QKV does not cover
    ini = DIVERGING_INI.format(out=tmp_path / "out").replace(
        "optimizer = muon\neta = 1e200", "optimizer = teon\neta = 0.05\nmode = 1"
    )
    cdir = tmp_path / "cfgs"
    cdir.mkdir()
    (cdir / "deep.ini").write_text(ini, encoding="utf-8")
    message = "stack_set token 'QKV' covers no blocked matrix of the layout, whose roles are ('W',)"
    if command == "run":
        assert main(["run", "--config", str(cdir / "deep.ini")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {message}"
    else:
        assert main(["sweep", "--config-dir", str(cdir), "--out", str(tmp_path / "sw")]) == 1
        assert "sweep.failed=1" in capsys.readouterr().out.splitlines()
        (row,) = (tmp_path / "sw" / "summary.csv").read_text().splitlines()[2:]
        assert row.split(",")[6] == "failed" and message.replace(",", ";") in row
    assert not (tmp_path / "out").exists()


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


def _teon(*args, flags=(), **env):
    """Run `python [flags] -m teon args` on this checkout's sources."""
    src = str(Path(teon.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        **env,
    )
    return subprocess.run(
        [sys.executable, *flags, "-m", "teon", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_diverging_run_reads_the_same_under_warnings_as_errors(tmp_path):
    cdir = tmp_path / "cfgs"
    cdir.mkdir()
    (cdir / "blow.ini").write_text(DIVERGING_INI.format(out=tmp_path / "run"), "utf-8")
    runs, sweeps = [], []
    for flags in ((), ("-W", "error")):
        proc = _teon("run", "--config", str(cdir / "blow.ini"), flags=flags)
        assert proc.returncode == 1
        runs.append(proc.stderr.splitlines())
        out = tmp_path / f"sweep{len(sweeps)}"
        proc = _teon("sweep", "--config-dir", str(cdir), "--out", str(out), flags=flags)
        assert proc.returncode == 1
        (row,) = (out / "summary.csv").read_text().splitlines()[2:]
        sweeps.append(row.split(",")[6:])
    assert runs[0] == runs[1] and sweeps[0] == sweeps[1]
    (line,) = runs[0]
    assert line.startswith("error: non-finite loss at step 1: overflow")
    assert sweeps[0][0] == "failed" and sweeps[0][-1] == line[len("error: "):]


def _sweep_csvs(out, threads):
    configs = Path(__file__).resolve().parents[1] / "configs"
    proc = _teon(
        "sweep", "--config-dir", str(configs), "--out", str(out),
        OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
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


# Above desk scale BLAS splits the products differently at 2 threads, so the
# bytes may differ; the values may not, beyond the README's stated tolerance.
ATTN128_INI = """
[run]
task = micro_attention
steps = 4
seed = 0
out_path = {out}
log_every = 1

[task]
dim = 128
seq = 16
batch = 8
blocks = 4

[optimizer]
optimizer = teon
eta = 0.02
mode = 1
scheme = newton_schulz
ns_steps = 5
ns_preset = jordan

[grouping]
K = 2
stack_set = QKV,O,MLP1,MLP2
"""


def test_dim128_teon_metrics_agree_across_blas_thread_counts(tmp_path):
    rows = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        cfg = tmp_path / f"t{threads}.ini"
        cfg.write_text(ATTN128_INI.format(out=out), "utf-8")
        proc = _teon(
            "run", "--config", str(cfg),
            OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
        )
        assert proc.returncode == 0, proc.stderr
        lines = (out / "metrics.csv").read_text().splitlines()
        rows.append([r.split(",") for r in lines if not r.startswith("#")])
    one, two = rows
    assert one[0] == two[0] and len(one) == len(two) == 5  # the header and steps 0-3
    for a, b in zip(one[1:], two[1:]):
        assert all(math.isclose(float(x), float(y), rel_tol=1e-12) for x, y in zip(a, b)), (a, b)
