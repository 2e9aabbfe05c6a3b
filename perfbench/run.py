"""The eqflag benchmark: one workload per run, in one process and one thread.

    python3 perfbench/run.py --workload complex_sweep --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports eqflag from ./src and writes
its instance files under ./.perfbench_work, which it removes again.

A run sets up (imports eqflag and builds the seed's inputs) several times
and reports the median as setup_s.  It then runs the ops of pass 0 one
after another, a closed loop with a single caller, and adds further passes
of fresh inputs until it has run MIN_OPS ops and another pass would not fit
in --seconds.  Every op checks its outputs, and its digest is compared with
the one recorded in golden.json for the same input.  The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
of BENCHMARK.json, or with --trace 1 its per-layer metrics.

With --trace 1 the run measures pass 0 with the layer spans of spans.py and
reports its self times and exact work counts, plus the tracing overhead:
every third op also runs untraced, right before or after its traced run,
and the overhead is the median over those ops of traced over untraced
time, minus one (a median, since a few long ops would otherwise decide it).

--record-golden writes the digests of pass 0 into golden.json instead of
checking them; it is for the default seed at a baseline commit.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("complex_sweep", "graph_sweep", "cli_session")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919   # never used while writing a change; claims must hold on it too
SETUPS = 5
MIN_OPS = 100          # so that op_p90_ms has at least ten samples above it
OVERHEAD_STRIDE = 3    # the traced run also times every third op untraced
GOLDEN = HERE / "golden.json"
BENCH_MODULES = ("inputs", "ops", "spans")


class Setup:
    """Fresh imports of eqflag and of this benchmark's modules, and the
    generator of the workload's passes, with pass 0 already built."""

    def __init__(self, workload, seed, work_dir):
        for name in list(sys.modules):
            if name == "eqflag" or name.startswith("eqflag.") or name in BENCH_MODULES:
                del sys.modules[name]
        eqflag = importlib.import_module("eqflag")
        if Path(eqflag.__file__).resolve().parent != SRC / "eqflag":
            raise ImportError(f"eqflag was imported from {eqflag.__file__}, not from {SRC}")
        self.inputs, self.ops, self.spans = (importlib.import_module(m) for m in BENCH_MODULES)
        if workload == "complex_sweep":
            self.make_pass = self.inputs.ComplexSweepInputs(seed).make_pass
        elif workload == "graph_sweep":
            self.make_pass = self.inputs.GraphSweepInputs(seed).make_pass
        else:
            self.make_pass = self.inputs.CliSessionInputs(seed, str(work_dir)).make_pass
        self.first = self.make_pass(0)


class Results:
    def __init__(self):
        self.latencies = []
        self.failures = []
        self.busy = 0.0
        self.digests = {}


def run_pass(ops, items, pass_no, golden, results, tracer=None, first=0):
    """Run the ops of a pass, numbered from first; a failed op still counts
    its latency."""
    t_pass = time.perf_counter()
    for i, (kind, data) in enumerate(items, start=first):
        fn = ops.OPS[kind]
        layer = f"cli.{data['argv'][1]}" if kind == "cli" else None
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                digest, code = fn(data)
            else:
                digest, code = tracer.run_op((pass_no, i), fn, data, layer)
        except ops.OpFailed as err:
            error = str(err)
        except Exception:   # an error escaping the public API fails the op
            error = traceback.format_exc(limit=3)
            if tracer is not None and kind == "cli":
                tracer.counts["cli.uncaught"] += 1
        results.latencies.append(time.perf_counter() - t0)
        if error is None:
            key = ops.op_key(kind, data)
            results.digests[key] = digest
            if key in golden and golden[key] != digest:
                error = f"digest {digest} differs from the recorded {golden[key]}"
            if tracer is not None and code is not None:
                tracer.counts[f"cli.exit.{code}"] += 1
        if error is not None:
            results.failures.append((pass_no, i, kind, error))
    results.busy += time.perf_counter() - t_pass


def layer_metric(name, times, op_total, counts, extra):
    """The value of one per-layer metric of BENCHMARK.json: <span>.s is the
    span's self time, <span>.calls its call count, other names are counts
    or the derived values in extra."""
    if name in extra:
        return extra[name]
    if name == "op.s":
        return op_total
    if name.endswith(".s"):
        return times.get(name[:-2], (0.0, 0))[0]
    if name.endswith(".calls"):
        return times.get(name[:-6], (0.0, 0))[1]
    return counts.get(name, 0)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            setup = Setup(args.workload, args.seed, work_dir)
            setup_times.append(time.perf_counter() - t0)
        return measure(args, bench, setup, setup_times, work_dir)
    except ImportError as err:
        print(f"cannot import eqflag from {SRC}: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            work_dir.parent.rmdir()


def measure(args, bench, setup, setup_times, work_dir):
    inputs, ops, spans = setup.inputs, setup.ops, setup.spans
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {} if args.record_golden else golden_all.get(args.workload, {})
    problem = ops.self_check(inputs.FIG1, inputs.Z2)
    if problem:
        print(f"checker self-check failed: {problem}", file=sys.stderr)

    results = Results()
    passes = 0
    extra = {}
    if args.trace:
        tracer = spans.Tracer()
        ratios = []   # traced over untraced time of the ops run both ways
        for i, item in enumerate(setup.first):
            ways = [True]
            if i % OVERHEAD_STRIDE == 0:
                # untraced right before or right after, alternately, so
                # that neither side always finds the caches warm
                ways = [False, True] if i // OVERHEAD_STRIDE % 2 else [True, False]
            times = {}
            for traced in ways:
                if traced:
                    tracer.install()
                try:
                    run_pass(ops, [item], 0, golden, results, tracer if traced else None, i)
                finally:
                    tracer.uninstall()
                times[traced] = results.latencies[-1]
            if len(times) == 2:
                ratios.append(times[True] / times[False])
        passes = 1
        extra["trace.overhead"] = statistics.median(ratios) - 1
    else:
        items, walls = setup.first, []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            run_pass(ops, items, passes, golden, results)
            walls.append(time.perf_counter() - t0)
            passes += 1
            if args.record_golden or (len(results.latencies) >= MIN_OPS and (
                    time.perf_counter() - start + statistics.mean(walls) > args.seconds)):
                break
            items = setup.make_pass(passes)

    defects = ops.probe_defects(str(work_dir))
    extra["known_defects.open"] = sum(v != "fixed" for v in defects.values())

    if args.record_golden:
        golden_all[args.workload] = dict(sorted(results.digests.items()))
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(results.digests)} digests for {args.workload}", file=sys.stderr)

    attempted = len(results.latencies)
    failed = len(results.failures)
    for pass_no, i, kind, error in results.failures[:5]:
        print(f"FAILED pass {pass_no} op {i} ({kind}): {error}", file=sys.stderr)

    if args.trace:
        times, op_total = tracer.self_times()
        extra["complexes.color_automorphism_group.hit_ratio"] = (
            tracer.counts["complexes.color_automorphism_group.found"]
            / max(1, tracer.counts["complexes.color_automorphism_group.candidates"]))
        extra["other.s"] = times.get("other", (0.0, 0))[0]
        chosen = bench["per_layer"]
        values = {m["name"]: layer_metric(m["name"], times, op_total, tracer.counts, extra)
                  for m in chosen}
        covered = sum(t for t, _ in times.values())
        print(f"layer self times + other.s = {covered:.6f} s of {op_total:.6f} s op time; "
              f"tracing overhead {extra['trace.overhead']:+.2%}")
    else:
        chosen = bench["end_to_end"]
        lat_ms = sorted(1000 * t for t in results.latencies)
        values = {
            "ops_per_s": attempted / results.busy,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    print(json.dumps({"run": {"workload": args.workload, "seed": args.seed,
                              "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
                              "passes": passes, "ops": attempted,
                              "python": platform.python_version(),
                              "numpy": numpy.__version__, "nproc": os.cpu_count(),
                              "golden_checked": sum(k in golden for k in results.digests)},
                      "known_defects": defects}))
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:14.6f} {m['unit']}")
    print(f"{'failed_frac':52s} {failed / max(1, attempted):14.6f} (of {attempted} ops)")
    print(json.dumps({"correct": failed == 0 and problem is None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
