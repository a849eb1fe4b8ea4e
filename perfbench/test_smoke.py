"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = run.Sizes(corpus=4, batch=2, sample_corpus=4, nfe=2, count=2,
                 n_atoms=5, toy_steps=2, setup_repeats=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def mjae_attributes():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "mjae" or name.startswith("mjae.")
            for attr, value in vars(module).items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line, result = run.run(workload, seed=0, seconds=1, trace=trace, sizes=TINY)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    json.dumps(line, default=float)


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_traced_run_restores_every_patched_attribute():
    before = mjae_attributes()
    run.run("pretrain_toy", seed=0, seconds=1, trace=1, sizes=TINY)
    after = mjae_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_reach_every_namespace_and_are_removed_after_an_error():
    from mjae import evalsuite, network, sampling, training
    originals = {(m, "forward"): m.forward for m in (network, training, sampling, evalsuite)}
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert all(getattr(m, a) is not f for (m, a), f in originals.items())
            assert evalsuite.fourier_embed is network.fourier_embed
            1 / 0
    assert all(getattr(m, a) is f for (m, a), f in originals.items())


def test_self_time_excludes_children():
    tracer = Tracer(spans=(), counts=())
    outer = tracer._open("outer")
    inner = tracer._open("inner")
    tracer._close(inner)
    tracer._close(outer)
    tracer.starts[:] = [0.0, 1.0]
    tracer.ends[:] = [10.0, 4.0]
    assert tracer.self_times() == {"outer": (1, 7.0), "inner": (1, 3.0)}


def test_fails_without_the_package():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in Path(run.__file__).parent.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "score_toy", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("error, wrong", [(FloatingPointError, 0), (TypeError, 1)])
def test_sampler_errors_fail_the_call_and_unexpected_ones_are_wrong(monkeypatch, error, wrong):
    workload = run.SampleOde(0, TINY)
    workload.setup()

    def raise_error(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(run.sampling, "generate", raise_error)
    result = workload.call(0, run.failure_counter())
    assert (result.attempted, result.failed, result.wrong) == (1, 1, wrong)


def test_setup_timing_puts_the_loaded_modules_back():
    before = dict(run._mjae_modules())
    run.timed_setup(run.ScoreToy(0, TINY), repeats=2)
    after = run._mjae_modules()
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)
