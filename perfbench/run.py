"""Benchmark of the mjae package: pretraining, ODE sampling and the score toy.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pretrain_toy --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``pretrain_toy``: ``training.train`` on a seeded toy corpus;
* ``sample_ode``: ``sampling.generate`` at lam = 0 from a checkpoint that
  set-up trains, writes and reloads;
* ``score_toy``: ``evalsuite.gaussian_score_toy`` on the VP schedule.

Each run sets up several times, then calls the workload's public function
closed-loop (the next call starts when the previous one returns) for
``--seconds`` seconds, checks every output, and prints a report line followed
by the result line: one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` runs the same calls untraced and then traced (``tracer.py``)
and gives the per-layer metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy loads its BLAS: one thread per process, so runs do not
# depend on how many cores the machine lends the BLAS pool at that moment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
if not (SRC / "mjae" / "__init__.py").is_file():
    sys.exit(f"perfbench: no mjae package under {SRC}; run from the root of a checkout")
sys.path[:0] = [str(SRC), str(ROOT / "scripts")]

import numpy as np  # noqa: E402

import mjae  # noqa: E402
from mjae import evalsuite, network, sampling, training  # noqa: E402
from mjae.schedule import NoiseSchedule  # noqa: E402
from make_toy_corpus import random_molecule  # noqa: E402

if Path(mjae.__file__).resolve().parent != SRC / "mjae":
    sys.exit(f"perfbench: imported mjae from {mjae.__file__}, not from {SRC}")

from tracer import SPAN_TARGETS, Tracer  # noqa: E402

WORKLOADS = ("pretrain_toy", "sample_ode", "score_toy")

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
    "work_per_probe": "1/probe",
}
PER_LAYER = {
    **{f"{name}.ms": "ms" for name in SPAN_TARGETS},
    "network.forward.calls": "count",
    "network.encode.calls": "count",
    "network.fourier_embed.calls": "count",
    "frames.molecule_frames.calls": "count",
    "schedule.alpha_beta.calls": "count",
    "autodiff.tape_nodes": "count",
    "training.rejected_steps": "count",
    "sampling.nonfinite_events": "count",
    "trace.overhead_frac": "frac",
}
PER_LAYER_CALLS = ("network.forward", "network.encode", "network.fourier_embed",
                   "frames.molecule_frames")


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the same for every seed."""
    corpus: int = 80          # pretrain_toy molecules; one epoch per train() call
    batch: int = 8
    sample_corpus: int = 24   # molecules of sample_ode's set-up training run
    nfe: int = 25             # network evaluations per generated molecule
    count: int = 4            # molecules per generate() call
    n_atoms: int = 12
    toy_steps: int = 16       # train steps per gaussian_score_toy() call
    setup_repeats: int = 9


@dataclass
class Call:
    """Outcome of one timed call of a workload's public function."""
    seconds: float
    units: int          # per-layer normaliser: optimizer steps, NFE or toy steps
    done: float         # throughput numerator: steps, molecules or toy steps
    attempted: int      # operations: steps, generate calls or toy steps
    failed: int = 0
    wrong: int = 0      # operations whose returned output failed a check
    latencies: list = field(default_factory=list)


def toy_corpus(rng, count):
    """Toy molecules drawn as ``scripts/make_toy_corpus.py`` draws them: 2-4
    heavy atoms, so 4-14 atoms in the generator's own mix."""
    return [random_molecule(rng, int(rng.integers(2, 5))) for _ in range(count)]


def _call_raised(what, signals):
    """Report the exception being handled. Returns True when it is not one of
    ``signals``, the exceptions by which the program reports a failure it
    detected itself; any other exception makes the output count as wrong."""
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return not isinstance(sys.exc_info()[1], signals)


# -- workloads -----------------------------------------------------------

class PretrainToy:
    """``training.train`` with the default network, batch 8, constant lr."""

    op, unit = "epoch", "optimizer step"

    def __init__(self, seed, sizes):
        self.seed, self.sizes = seed, sizes
        self.net_cfg = network.NetworkConfig()
        self.cfg = training.TrainConfig(epochs=1, batch_size=sizes.batch, seed=seed,
                                        lr_schedule="constant")
        self.reference = None   # loss entry of the first call
        self.last_loss = None

    def setup(self):
        self.corpus = toy_corpus(np.random.default_rng(self.seed), self.sizes.corpus)
        warm = training.TrainConfig(epochs=1, batch_size=self.sizes.batch, seed=self.seed)
        training.train(self.corpus[:self.sizes.batch], warm, self.net_cfg)

    def steps_per_epoch(self):
        n, b = len(self.corpus), self.sizes.batch
        return sum(1 for s in range(0, n, b) if min(b, n - s) >= 2)

    def call(self, i, tracer):
        steps = self.steps_per_epoch()
        result = Call(0.0, steps, 0, steps)
        ended = []   # (time of on_epoch, history entry)
        start = time.perf_counter()
        try:
            training.train(self.corpus, self.cfg, self.net_cfg,
                           on_epoch=lambda _, entry: ended.append((time.perf_counter(), entry)))
        except Exception:
            result.wrong = steps * _call_raised(f"train() call {i}", RuntimeError)
        result.seconds = time.perf_counter() - start
        if not ended:
            result.failed = steps
            return result
        done_at, entry = ended[0]
        result.latencies = [done_at - start]
        if not all(math.isfinite(entry[k]) for k in ("total", "l_sc", "l_co")):
            print(f"perfbench: train() call {i} has a non-finite loss {entry}", file=sys.stderr)
            result.failed = result.wrong = steps
        elif self.reference is not None and entry != self.reference:
            print(f"perfbench: train() call {i} is not bitwise deterministic", file=sys.stderr)
            result.failed = result.wrong = steps
        else:
            self.reference = entry
            self.last_loss = entry["total"]
            result.failed = tracer.count("training.adam_step.errors", [tracer.run_id])
        result.done = steps - result.failed
        return result

    def report(self, rate, p50, p90):
        return {"train_steps_per_s": (rate, "1/s"), "train_epoch_s_p50": (p50, "s"),
                "train_epoch_s_p90": (p90, "s"), "train_loss_final": (self.last_loss, "loss")}

    def info(self):
        return {"corpus_atom_counts": dict(sorted(Counter(g.n for g in self.corpus).items())),
                "steps_per_call": self.steps_per_epoch()}


class SampleOde:
    """``sampling.generate`` at lam = 0 from a freshly reloaded checkpoint."""

    op, unit = "generate call", "NFE"

    def __init__(self, seed, sizes):
        self.seed, self.sizes = seed, sizes
        self.net_cfg = network.NetworkConfig()
        self.samples = []

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.corpus = toy_corpus(rng, self.sizes.sample_corpus)
        cfg = training.TrainConfig(epochs=1, batch_size=self.sizes.batch, seed=self.seed)
        params, _ = training.train(self.corpus, cfg, self.net_cfg)
        OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            path = os.path.join(tmp, "model.ck")
            training.save_checkpoint(params, training.init_adam_state(params), path,
                                     meta={"net": asdict(self.net_cfg), "epochs": 1})
            self.params, _, _ = training.load_checkpoint(path)
        training.check_shapes(self.params, self.net_cfg)
        self.schedules = training.build_schedules(cfg)

    def call(self, i, tracer):
        s = self.sizes
        cfg = sampling.SamplerConfig(steps=s.nfe, lam=0.0, n_atoms=s.n_atoms,
                                     seed=self.seed * 100_000 + i)
        result = Call(0.0, s.nfe * s.count, 0, 1)
        start = time.perf_counter()
        try:
            graphs = sampling.generate(self.params, self.net_cfg, self.schedules, cfg, s.count)
        except Exception:
            result.wrong = int(_call_raised(f"generate() call {i}", FloatingPointError))
            graphs = None
        result.seconds = time.perf_counter() - start
        result.latencies = [result.seconds]
        if graphs is None:
            result.failed = 1
        elif (len(graphs) != s.count
              or any(g.n != s.n_atoms or not np.all(np.isfinite(g.positions)) for g in graphs)):
            print(f"perfbench: generate() call {i} returned a wrong sample set", file=sys.stderr)
            result.failed = result.wrong = 1
        else:
            result.done = s.count
            self.samples.extend(graphs)
        return result

    def report(self, rate, p50, p90):
        return {"sample_mol_per_s": (rate, "1/s"), "sample_call_s_p50": (p50, "s"),
                "sample_call_s_p90": (p90, "s")}

    def info(self):
        metrics = (evalsuite.generation_metrics(self.samples, self.corpus)
                   if self.samples else None)
        return {"generation_metrics_vs_training_corpus": metrics,
                "nfe": self.sizes.nfe, "count": self.sizes.count}


class ScoreToy:
    """``evalsuite.gaussian_score_toy`` at acceptance criterion 5's settings,
    with fewer train steps per call."""

    op, unit = "gaussian_score_toy call", "toy step"

    def __init__(self, seed, sizes):
        self.seed, self.sizes = seed, sizes
        self.errors = []

    def setup(self):
        evalsuite.gaussian_score_toy(NoiseSchedule(), train_steps=1, seed=self.seed)

    def call(self, i, tracer):
        steps = self.sizes.toy_steps
        result = Call(0.0, steps, 0, steps)
        start = time.perf_counter()
        try:
            err, _ = evalsuite.gaussian_score_toy(NoiseSchedule(), train_steps=steps,
                                                  seed=self.seed * 100_000 + i)
        except Exception:
            result.wrong = steps * _call_raised(f"gaussian_score_toy() call {i}",
                                                FloatingPointError)
            err = None
        result.seconds = time.perf_counter() - start
        result.latencies = [result.seconds]
        if err is None:
            result.failed = steps
        elif not math.isfinite(err):
            print(f"perfbench: gaussian_score_toy() call {i} error {err}", file=sys.stderr)
            result.failed = result.wrong = steps
        else:
            result.done = steps
            self.errors.append(err)
        return result

    def report(self, rate, p50, p90):
        return {"score_toy_steps_per_s": (rate, "1/s"),
                "score_toy_error": (max(self.errors) if self.errors else None, "ratio")}

    def info(self):
        return {"train_steps_per_call": self.sizes.toy_steps}


CLASSES = {"pretrain_toy": PretrainToy, "sample_ode": SampleOde, "score_toy": ScoreToy}


# -- measurement ---------------------------------------------------------

def _mjae_modules():
    return {k: m for k, m in sys.modules.items() if k == "mjae" or k.startswith("mjae.")}


def reimport_mjae():
    """Import ``mjae.cli`` afresh in this process, with numpy already loaded:
    the package's own import cost. The modules it creates are dropped and the
    loaded ones put back, so the workloads and the tracer keep seeing the same
    module objects."""
    saved = _mjae_modules()
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("mjae.cli")
    finally:
        for name in _mjae_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def timed_setup(workload, repeats):
    """Set-up time: the median over ``repeats`` of import + the workload's own
    set-up, each scaled to the reference machine speed by a speed probe run
    right before it. Returns (scaled median, raw wall-clock median)."""
    scaled, raw = [], []
    for _ in range(repeats):
        gc.collect()
        probe = speed_probe()
        start = time.perf_counter()
        reimport_mjae()
        workload.setup()
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * PROBE_REFERENCE_S / probe)
    return statistics.median(scaled), statistics.median(raw)


def run_calls(workload, seconds):
    """Closed loop of ``workload.call`` until ``seconds`` have passed (at least
    one call), with a speed probe right before each call. Returns (calls,
    probe seconds per call)."""
    counter = failure_counter()
    calls, probes = [], []
    start = time.perf_counter()
    with counter:
        while not calls or time.perf_counter() - start < seconds:
            probes.append(speed_probe())
            counter.run_id = len(calls)
            calls.append(workload.call(len(calls), counter))
    return calls, probes


def failure_counter():
    """Tracer of ``adam_step`` alone, to count rejected steps in untraced runs
    (one span per optimizer step)."""
    return Tracer(spans=("training.adam_step",), counts=())


# Speed-probe time of the machine the benchmark was tuned on (2-CPU x86-64
# VM, numpy 2.4 on scipy-openblas, one thread); setup_s is scaled to it.
PROBE_REFERENCE_S = 0.030


def speed_probe():
    """Seconds for a fixed loop of small numpy operations that does not touch
    mjae: how fast the machine runs at this moment."""
    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    start = time.perf_counter()
    for _ in range(1000):
        a = np.tanh(a @ a.T * 1e-2)
    return time.perf_counter() - start


def environment(seed):
    try:
        load = os.getloadavg()
    except OSError:
        load = None
    try:
        config = np.show_config(mode="dicts") or {}
    except TypeError:   # numpy < 1.26 has no dict mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": load,
        "git_commit": commit,
        "seed": seed,
    }


def _totals(calls):
    return (sum(c.attempted for c in calls), sum(c.failed for c in calls),
            sum(c.wrong for c in calls))


def end_to_end(workload, seconds, sizes):
    setup_s, setup_wall_s = timed_setup(workload, sizes.setup_repeats)
    calls, probes = run_calls(workload, seconds)
    attempted, failed, wrong = _totals(calls)
    latencies = [x for c in calls for x in c.latencies]
    wall = sum(c.seconds for c in calls)
    rate = sum(c.done for c in calls) / wall
    p50, p90 = (float(np.percentile(latencies, q)) for q in (50, 90))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - failed / attempted,
        "work_per_probe": sum(c.done for c in calls)
                          / sum(c.seconds / p for c, p in zip(calls, probes)),
    }
    report = {k: (metrics[k], END_TO_END[k]) for k in ("setup_s", "peak_rss_mb")}
    report["setup_wall_s"] = (setup_wall_s, "s")
    report["failed_frac"] = (failed / attempted, "frac")
    report.update(workload.report(rate, p50, p90))
    extra = {"calls": len(calls), "op": workload.op, "latency_samples": len(latencies),
             "wall_s": wall, "speed_probe_s_median": statistics.median(probes)}
    return metrics, (attempted, failed, wrong), report, extra


def per_layer(workload, seconds, spans_path):
    tracer = Tracer()
    with tracer:
        workload.setup()   # run id 0: the set-up, for training.load_checkpoint
    # Each call runs untraced, then traced with the same inputs, so that drift
    # in the machine's speed cancels out of the overhead.
    counter = failure_counter()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        i = len(traced)
        for active, calls, run_id in ((counter, plain, i), (tracer, traced, i + 1)):
            active.run_id = run_id
            with active:
                calls.append(workload.call(i, active))
    wall_plain = sum(c.seconds for c in plain)
    wall_traced = sum(c.seconds for c in traced)
    runs = range(1, len(traced) + 1)
    units = sum(c.units for c in traced)
    own = tracer.self_times(runs)
    metrics = {}
    for name in SPAN_TARGETS:
        _, total = own.get(name, (0, 0.0))
        metrics[f"{name}.ms"] = 1000.0 * total / units
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = own.get(name, (0, 0.0))[0] / units
    ckpt_calls, ckpt_total = tracer.self_times([0]).get("training.load_checkpoint", (0, 0.0))
    metrics["training.load_checkpoint.ms"] = 1000.0 * ckpt_total / max(1, ckpt_calls)
    metrics["schedule.alpha_beta.calls"] = tracer.count("schedule.alpha_beta.calls", runs) / units
    metrics["autodiff.tape_nodes"] = tracer.count("autodiff.tape_nodes", runs) / units
    metrics["training.rejected_steps"] = tracer.count("training.adam_step.errors", runs)
    metrics["sampling.nonfinite_events"] = tracer.count("sampling.reverse_step.errors", runs)
    metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    attempted, failed, wrong = _totals(plain + traced)
    extra = {"calls_per_phase": len(traced), "units_traced": units,
             "unit": workload.unit,
             "wall_untraced_s": wall_plain, "wall_traced_s": wall_traced,
             "spans": len(tracer.names), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, (attempted, failed, wrong), extra


def run(workload_name, seed, seconds, trace, sizes=Sizes()):
    """One benchmark run; returns (report line dict, result line dict)."""
    env = environment(seed)
    workload = CLASSES[workload_name](seed, sizes)
    if trace:
        spans_path = OUT / f"spans-{workload_name}.npz"
        values, (attempted, failed, wrong), extra = per_layer(workload, seconds, spans_path)
        units = PER_LAYER
        report = {}
    else:
        values, (attempted, failed, wrong), report, extra = end_to_end(workload, seconds, sizes)
        units = END_TO_END
    try:
        env["loadavg_end"] = os.getloadavg()
    except OSError:
        env["loadavg_end"] = None
    info = {**extra, **workload.info()}
    line = {"workload": workload_name, "trace": trace, "env": env,
            "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
            "info": info}
    result = {"correct": wrong == 0, "attempted": int(attempted), "failed": int(failed),
              "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units}}
    return line, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    line, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(line, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
