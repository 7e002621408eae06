#!/usr/bin/env python3
"""Benchmark of the bivorder library.

    python3 bench/run.py --workload poset-sweep --seed 1 --seconds 20 --trace 0

Runs one seeded workload (or, with --workload all, every workload, each
in a fresh interpreter), checks every output against an independent
route, and prints the end-to-end metrics (--trace 0) or the per-layer
metrics of a traced run (--trace 1).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics; metric names and units come from BENCHMARK.json.  A full
record (environment, input fingerprint, latencies, spans) is written to
bench/out/.  bench/README.md describes the workloads and metrics.

Times are scaled to a reference host speed.  A fixed pure-Python gauge
that uses no library code runs between items (and around each set-up);
every time is multiplied by GAUGE_S over the gauge's trimmed mean time
in that run.  On a shared host whose speed changes by tens of percent
from minute to minute, this cancels the host's speed and keeps the
library's.  The times as taken are printed and recorded beside them.
"""

import gc
import time
from fractions import Fraction

GAUGE_S = 0.010  # gauge time that defines the reference host speed


def gauge_seconds() -> float:
    """Time one run of a fixed pure-Python kernel that uses no library
    code, with the cyclic garbage collector off: how slowly the host runs
    Python code at this moment."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        for i in range(1, 2000):
            key = (i % 11, i % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 + 1, i % 13 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


GAUGES_BEFORE_SETUP = [gauge_seconds() for _ in range(3)]
START = time.perf_counter()

import os  # noqa: E402

# numpy must not start thread pools: every workload is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

SETUP_REPEATS = 3  # set-ups per run: this process plus fresh interpreters
CHILD_TIMEOUT_S = 150
TAIL_MIN_BEYOND = 10
OVERHEAD_CYCLES = 2  # cycles of traced/untraced pairs in a traced run


@dataclass
class Record:
    workload: str
    inp: object
    out: object
    error: str | None
    seconds: float
    traced: bool = False


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time and exit (times repeated set-ups)",
    )
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def slowness(gauges: list[float]) -> float:
    """Host slowness against the reference speed: the gauge's mean time,
    without its slowest and fastest tenth, over GAUGE_S."""
    ordered = sorted(gauges)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut: len(ordered) - cut]) / GAUGE_S


def set_up(wl, seed: int, cycles: int, workdir: Path):
    """Generate the inputs and run the warm-up untimed."""
    warmup, pool, fingerprint = wl.generate(seed, cycles, workdir)
    wl.warm_up(warmup)
    return pool, fingerprint


def run_item(wl, inp) -> Record:
    start = time.perf_counter()
    try:
        out, error = wl.item(inp), None
    except Exception as exc:  # a failed item is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return Record(wl.name, inp, out, error, time.perf_counter() - start)


def traced_item(wl, inp, tr, caches: dict | None) -> Record:
    """Run the item's stage composition inside spans, then the untraced
    public route, which must give exactly the same output."""
    from workloads import cache_snapshot

    before = cache_snapshot() if caches is not None else None
    start = time.perf_counter()
    try:
        with tr.item(f"{wl.name}:{inp.slot}", wl.item_name(inp)):
            out = wl.traced(inp, tr)
        error = None
    except Exception as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if caches is not None:
        for fn, (hits, misses) in cache_snapshot().items():
            h0, m0 = before[fn]
            acc = caches.setdefault(fn, [0, 0])
            acc[0] += hits - h0
            acc[1] += misses - m0
    if error is None:
        try:
            if wl.item(inp) != out:
                error = "traced stages differ from the untraced output"
        except Exception as exc:
            error = f"untraced route: {type(exc).__name__}: {exc}"
    return Record(wl.name, inp, out, error, seconds, traced=True)


def check_records(records, workloads) -> None:
    """Independent check of every completed item, outside timed regions."""
    for rec in records:
        if rec.error is not None:
            continue
        try:
            problem = workloads[rec.workload].check(rec.inp, rec.out)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            rec.error = f"check: {problem}"


def tail_latency(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest whole percentile
    with at least ten samples above it, never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max(50, min(99, math.floor(100 * (n - TAIL_MIN_BEYOND) / n)))
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct, n - rank


def child_setups(args, count: int) -> list[dict]:
    """Set up again in fresh interpreters, one after another."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    results = []
    for _ in range(count):
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def timed_cycles(args, wl) -> int:
    """Whole cycles to time: --seconds over the workload's nominal cycle
    time, so every run of a seed measures the same inputs."""
    return max(1, round(args.seconds / wl.cycle_seconds))


def spec_metrics(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def untraced_run(args, wl, pool, fingerprint, setup: dict, workloads):
    timed = pool[: timed_cycles(args, wl) * len(wl.slots)]
    gauges = [gauge_seconds()]
    records = []
    for inp in timed:
        records.append(run_item(wl, inp))
        gauges.append(gauge_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_records(records, workloads)
    setups = [setup] + child_setups(args, SETUP_REPEATS - 1)
    same_inputs = all(c["fingerprint"] == fingerprint for c in setups)

    slow = slowness(gauges)
    latencies = [r.seconds for r in records]
    elapsed = sum(latencies)
    completed = sum(r.out is not None for r in records)
    failed = sum(r.error is not None for r in records)
    tail, pct, beyond = tail_latency(latencies)
    values = {
        "items_per_s": completed / elapsed * slow,
        "item_p50_ms": statistics.median(latencies) / slow * 1000,
        "item_tail_ms": tail / slow * 1000,
        "setup_s": statistics.median(c["setup_s"] for c in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    taken = f"host slowness {slow:.3f}"
    notes = {
        "items_per_s": f"{completed} items in {elapsed:.2f} s as taken, {taken}",
        "item_p50_ms": f"{statistics.median(latencies) * 1000:.1f} as taken, {len(latencies)} samples",
        "item_tail_ms": f"{tail * 1000:.1f} as taken, p{pct}, {beyond} samples beyond, {len(latencies)} samples",
        "setup_s": "median of " + ", ".join(f"{c['setup_s']:.3f}" for c in setups) + " ("
        + ", ".join(f"{c['setup_s_taken']:.3f}" for c in setups) + " as taken)",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    detail = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(latencies),
        "failed_ratio": failed / len(records),
        "host_slowness": slow,
        "gauge_s": gauges,
        "setups": setups,
        "same_inputs_in_every_setup": same_inputs,
    }
    return records, values, notes, detail, same_inputs


def traced_run(args, wl, pool, workloads, workdir):
    """Per-layer metrics over the measured cycles: the first cycle of
    this workload and, after their own set-up, the first cycle of every
    other one, so each layer is measured in every traced run."""
    from tracing import Tracer
    from workloads import cache_snapshot

    cycle = len(wl.slots)
    measured, later, caches = Tracer(), Tracer(), {}
    records = [traced_item(wl, inp, measured, caches) for inp in pool[:cycle]]
    # Tracing overhead: each input of the next cycles runs traced and its
    # relabeled twin untraced.  The order alternates, and flips between
    # the two cycles, so every slot runs first once on each side: the
    # first of a pair can find the value-row tables evicted.
    rng = random.Random(f"twins:{args.seed}")
    taken = {inp.obj for inp in pool}
    traced_s = untraced_s = 0.0
    for index, inp in enumerate(pool[cycle: cycle * (1 + OVERHEAD_CYCLES)]):
        twin = wl.twin(inp, rng, taken, workdir)
        if twin is None:
            records.append(traced_item(wl, inp, later, None))
            continue
        taken.add(twin.obj)
        if (index % cycle + index // cycle) % 2:
            pair = [run_item(wl, twin), traced_item(wl, inp, later, None)]
        else:
            pair = [traced_item(wl, inp, later, None), run_item(wl, twin)]
        traced_s += sum(r.seconds for r in pair if r.traced)
        untraced_s += sum(r.seconds for r in pair if not r.traced)
        records += pair
    for name in WORKLOAD_NAMES:
        if name != wl.name:
            other = workloads[name]
            other_pool, _ = set_up(other, args.seed, 1, workdir)
            for inp in other_pool[: len(other.slots)]:
                records.append(traced_item(other, inp, measured, caches))
    check_records(records, workloads)

    totals = measured.totals()
    values = {}
    for name in spec_metrics("per_layer"):
        if name.startswith("self."):
            values[name] = totals["self"][name.split(".")[1]]
        elif name == "trace.item_s":
            values[name] = totals["item_s"]
        elif name == "trace.remainder_s":
            values[name] = totals["remainder_s"]
        elif name == "trace.overhead":
            values[name] = traced_s / untraced_s
        else:
            values[name] = layer_value(name, totals, measured.counts, caches)
    accounted = sum(totals["self"].values()) + totals["remainder_s"]
    balanced = abs(accounted - totals["item_s"]) <= 1e-6 * max(1.0, totals["item_s"])
    detail = {
        "measured_items": measured.items,
        "overhead_pairs_traced_s": traced_s,
        "overhead_pairs_untraced_s": untraced_s,
        "self_plus_remainder_s": accounted,
        "cache_hits_misses": caches,
        "cache_info_at_end": cache_snapshot(full=True),
        "spans": measured.span_records("measured") + later.span_records("overhead"),
    }
    return records, values, detail, balanced


def layer_value(name: str, totals: dict, counts, caches: dict) -> float:
    if name.startswith("cache."):
        hits, misses = caches.get(name.split(".")[1], (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0
    if name == "ratpoly.terms_per_result":
        return counts["ratpoly.add.result_terms"] / max(1, counts["ratpoly.add.results"])
    if name == "orderpoly.word_poly.reuse":
        return counts["orderpoly.word_poly.calls"] / max(1, counts["orderpoly.word_poly.distinct_keys"])
    if name.startswith("cli.") and name.endswith(".calls"):
        return totals["calls"].get(name[: -len(".calls")], 0)
    if name.endswith(".s"):
        return totals["seconds"].get(name[: -len(".s")], 0.0)
    return counts.get(name, 0)


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=900,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "bivorder").is_dir():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bivorder

    if not Path(bivorder.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: bivorder imported from {bivorder.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        cycles = max(timed_cycles(args, wl), 1 + OVERHEAD_CYCLES)
        pool, fingerprint = set_up(wl, args.seed, cycles, workdir)
        setup_s = time.perf_counter() - START
        gauges = GAUGES_BEFORE_SETUP + [gauge_seconds() for _ in range(3)]
        setup = {
            "setup_s": setup_s / statistics.median(gauges) * GAUGE_S,
            "setup_s_taken": setup_s,
            "gauge_s": gauges,
            "fingerprint": fingerprint,
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        env = environment(args.seed)
        print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  inputs sha256 {fingerprint}")
        print("  ".join(f"{k} {v}" for k, v in env.items() if k != "seed"))
        if args.trace:
            records, values, detail, ok = traced_run(args, wl, pool, WORKLOADS, workdir)
            notes = {}
            kind = "per_layer"
        else:
            records, values, notes, detail, ok = untraced_run(
                args, wl, pool, fingerprint, setup, WORKLOADS
            )
            kind = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = spec_metrics(kind)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<34} {values[name]:<14.6g} {unit}{note}")
    failed = [r for r in records if r.error is not None]
    print(f"{'failed_ratio':<34} {len(failed) / len(records):<14.6g} fraction  ({len(failed)} of {len(records)} items)")
    for rec in failed[:10]:
        print(f"FAILED {rec.workload} input {rec.inp.slot}: {rec.error}", file=sys.stderr)
    correct = ok and not failed
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "input_sha256": fingerprint,
        "result": result,
        "detail": detail,
        "items": [
            {"workload": r.workload, "input": r.inp.slot, "size": r.inp.size,
             "traced": r.traced, "seconds": r.seconds, "error": r.error}
            for r in records
        ],
    }
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
