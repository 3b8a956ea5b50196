"""Smoke test of the benchmark's own code: one shortened pass per workload.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math

import pytest

import checkout

checkout.use_checkout_sources()

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# 8 steps reach the first alignment sample of every shipped config that has one.
SHORT_STEPS = 8


def _quiet(line):
    pass


def _assert_emits(result, spec_key):
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert math.isfinite(result["metrics"][name]["value"]), name


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_shortened_pass_emits_every_metric_with_its_unit(name):
    plain = bench.measure(name, 0, 0, False, steps=SHORT_STEPS, setup_repeats=1, log=_quiet)
    _assert_emits(plain, "end_to_end")
    traced = bench.measure(name, 0, 0, True, steps=SHORT_STEPS, log=_quiet)
    _assert_emits(traced, "per_layer")
    assert traced["metrics"]["tasks.fd_gate_rejects"]["value"] == 1


def test_missing_hook_stops_the_traced_run_naming_it(monkeypatch):
    import teon.runner

    original_run = teon.runner.run
    monkeypatch.delattr(teon.runner, "top_singular_alignment")
    with pytest.raises(spans.HookError, match=r"teon\.runner\.top_singular_alignment"):
        spans.Tracer().install()
    assert teon.runner.run is original_run  # hooks installed before the error are undone


def test_hooks_are_removed_when_the_tracer_exits():
    import teon.linalg
    import teon.optim
    import teon.runner

    before = (teon.runner.run, teon.optim.apply_ortho, teon.optim.as_matrix)
    with spans.Tracer():
        assert teon.runner.run is not before[0]
    assert (teon.runner.run, teon.optim.apply_ortho, teon.optim.as_matrix) == before
    assert teon.optim.as_matrix is teon.linalg.as_matrix


def test_step_clock_is_removed_when_it_exits():
    import teon.runner
    import teon.tasks

    with bench.StepClock():
        assert teon.runner.make_task is not teon.tasks.make_task
    assert teon.runner.make_task is teon.tasks.make_task
