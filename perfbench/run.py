"""deckrecon benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With --trace 0 it measures the end-to-end metrics; with --trace 1 it runs a
fixed number of ops twice, untraced then traced, and reports the per-layer
metrics. Every output is checked. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
the run record. Run it from the root of a source checkout: it imports the
program from src/ and writes only under perfbench/.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5
WORKLOAD_NAMES = ("desk-sweep", "large-n", "deck-build")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program() -> tuple[float, float]:
    """Import the program afresh, dropping any earlier import; the interval it took."""
    for key in [k for k in sys.modules if k == "deckrecon" or k.startswith("deckrecon.")]:
        del sys.modules[key]
    start = time.perf_counter()
    # oracle is imported lazily by reconstruct(); importing it here lets the
    # traced run rebind its names too.
    import deckrecon.oracle  # noqa: F401

    return start, time.perf_counter()


def score(wl, records) -> tuple[Counter, int, list]:
    """Check every op: outcome counts, failed-op count, and the completed ops."""
    from workloads import FAILURE_SLUGS

    slugs = [wl.outcome(r) for r in records]
    outcomes = Counter(slugs)
    failed = sum(outcomes[s] for s in FAILURE_SLUGS)
    return outcomes, failed, [r for r, s in zip(records, slugs) if s not in FAILURE_SLUGS]


def mean_ms_by_label(records, seconds) -> dict:
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r.item.label, []).append(seconds(r))
    return {k: [len(v), round(1e3 * sum(v) / len(v), 3)] for k, v in sorted(groups.items())}


def coverage_check(workload: str, seed: int, counts: Counter):
    """Compare traced outcome counts with those recorded for this seed."""
    recorded = json.loads((HERE / "expected.json").read_text())["outcomes"]
    want = recorded.get(workload, {}).get(str(seed))
    if want is None:
        return "no outcome counts recorded for this seed"
    got = {slug: n for slug, n in sorted(counts.items()) if n}
    return "matches expected.json" if got == want else {"expected": want, "got": got}


def run_workload(args, spec: dict) -> int:
    from harness import SpeedMeter, call_with_limit, latency_stats, run_closed_loop

    # Untraced runs report times at the reference speed (see harness.py);
    # traced runs report raw span times.
    meter = None if args.trace else SpeedMeter()
    if meter:
        meter.start()
    sys.path.insert(0, str(SRC))
    # The first import, from process start, may compile the program; set-up
    # counts the median of the imports that follow it.
    first_import = (T0, import_program()[1])
    imports = [import_program() for _ in range(0 if args.trace else IMPORT_REPEATS)]
    from spans import Recorder
    from workloads import OUTCOME_SLUGS, RECONSTRUCTED_SLUGS, WORKLOADS

    wl = WORKLOADS[args.workload](tiny=args.tiny)
    recorder = Recorder() if args.trace else None
    if recorder:
        recorder.install()

    t = time.perf_counter()
    wl.prepare()
    prepared = (t, time.perf_counter())
    t = time.perf_counter()
    plan = wl.plan(args.seed, args.seconds)
    gen_s = time.perf_counter() - t
    builds = []
    for _ in range(1 if args.trace else wl.setup_repeats):
        t = time.perf_counter()
        wl.build(plan)
        builds.append((t, time.perf_counter()))

    if args.trace:
        ops = plan.items[: wl.trace_ops]
        recorder.uninstall()
        plain = run_closed_loop(ops, wl.op, limit=wl.limit, count=len(ops))
        op_ids = iter(range(len(ops)))

        def traced_op(item):
            recorder.op_id = next(op_ids)
            return wl.op(item)

        recorder.install()
        traced = run_closed_loop(ops, traced_op, limit=wl.limit, count=len(ops))
        recorder.uninstall()
        measured = traced
    else:
        # Enough ops that at least ten completed ones lie beyond the tail
        # percentile (100 for p90).
        min_ops = math.ceil(10 / (1 - wl.tail_pct / 100))
        measured = run_closed_loop(
            plan.items, wl.op, limit=wl.limit, seconds=args.seconds, min_ops=min_ops,
            block=wl.block,
        )
        meter.stop()

    def span_s(interval):
        return meter.reference_s(*interval) if meter else interval[1] - interval[0]

    def op_s(r):
        return span_s((r.start, r.start + r.seconds))

    import_s = [span_s(i) for i in imports] or [span_s(first_import)]
    build_s = [span_s(b) for b in builds]
    setup_s = statistics.median(import_s) + span_s(prepared) + statistics.median(build_s)

    outcomes, failed, completed = score(wl, measured.records)
    wrong = outcomes["wrong"]
    if args.trace:
        wrong += score(wl, plain.records)[0]["wrong"]
    probe_records = [call_with_limit(wl.op, item, wl.limit) for item in plan.probes]
    probe_outcomes, probe_failed, _ = score(wl, probe_records)

    attempted = len(measured.records)
    if not completed:
        print(f"error: no op completed, nothing to time: {dict(outcomes)}", file=sys.stderr)
        return 3
    lat = latency_stats([op_s(r) for r in completed], wl.tail_pct)
    ops_per_s = len(completed) / sum(op_s(r) for r in measured.records)
    wall_lat = latency_stats([r.seconds for r in completed], wl.tail_pct)
    cpu_lat = latency_stats([r.cpu_s for r in completed], wl.tail_pct)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "git_commit": git_commit(),
        "per_op_limit_s": wl.limit,
        "corpus": {"items": len(plan.items), "probes": len(plan.probes)},
        "setup": {
            "first_import_s": span_s(first_import),
            "import_s": import_s,
            "catalog_s": span_s(prepared),
            "input_build_s": build_s,
            "generate_s": gen_s,
        },
        "ops": {
            "attempted": attempted,
            "completed": len(completed),
            "failed": failed,
            "repeats": measured.repeats,
            "measured_s": measured.wall_s,
            "fail_ratio": failed / attempted,
        },
        "latency": lat,
        # The same figures in raw wall time, unscaled by machine speed.
        "wall": {
            "ops_per_s": len(completed) / measured.wall_s,
            "p50_ms": wall_lat["p50_ms"],
            "tail_ms": wall_lat["tail_ms"],
            "setup_s": statistics.median(i[1] - i[0] for i in imports or [first_import])
            + prepared[1] - prepared[0] + statistics.median(b[1] - b[0] for b in builds),
        },
        # The same figures in per-op CPU time of the thread, also unscaled.
        "cpu": {
            "ops_per_s": len(completed) / sum(r.cpu_s for r in measured.records),
            "p50_ms": cpu_lat["p50_ms"],
            "tail_ms": cpu_lat["tail_ms"],
        },
        "speed_loop": meter.loop_ms() if meter else None,
        "mean_ms_by_input_kind": mean_ms_by_label(completed, op_s),
        "outcomes": dict(sorted(outcomes.items())),
        # Inputs the program fails on at seed, run after the measured phase.
        "known_failures": {
            "attempted": len(probe_records),
            "failed": probe_failed,
            "outcomes": dict(sorted(probe_outcomes.items())),
            "inputs": [p.label for p in plan.probes],
        },
    }
    if wl.reconstructs:
        reconstructed = sum(outcomes[s] for s in RECONSTRUCTED_SLUGS)
        record["ops"]["reconstructed_ratio"] = reconstructed / attempted

    if args.trace:
        metrics = recorder.layer_metrics()
        counts = outcomes + probe_outcomes if wl.reconstructs else Counter()
        for slug in OUTCOME_SLUGS:
            metrics[f"reconstruct.outcome.{slug}"] = (counts[slug], "count")
        if wl.reconstructs and not args.tiny:
            record["coverage"] = coverage_check(wl.name, args.seed, counts)
        metrics["known_failures.failed"] = (probe_failed, "count")
        metrics["trace.ops_s"] = (traced.wall_s, "s")
        metrics["trace.spans"] = (len(recorder.start), "count")
        # traced / untraced ops per second over the same ops
        metrics["trace.overhead_ratio"] = (plain.wall_s / traced.wall_s, "ratio")
        spans_path = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
        recorder.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "ops/s"),
            "latency_p50_ms": (lat["p50_ms"], "ms"),
            "latency_tail_ms": (lat["tail_ms"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        wanted = spec["end_to_end"]

    declared = {m["name"]: m["unit"] for m in wanted}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if declared != produced:
        diff = sorted(set(declared.items()) ^ set(produced.items()))
        print(f"error: metrics or units differ from BENCHMARK.json: {diff}", file=sys.stderr)
        return 3

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{'latency_p' + str(lat['tail_pct']) + '_ms':48s} {lat['tail_ms']:>14.6g} ms"
              f"  ({lat['samples']} samples, {lat['beyond_tail']} beyond)")
        print(f"{'fail_ratio':48s} {failed / attempted:>14.6g} ratio")
        if wl.reconstructs:
            ratio = record["ops"]["reconstructed_ratio"]
            print(f"{'reconstructed_ratio':48s} {ratio:>14.6g} ratio")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of the end-to-end metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        rows.append((name, json.loads(lines[-2])["record"], json.loads(lines[-1])))
    print()
    for name, record, result in rows:
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} known_failures={record['known_failures']['failed']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:44s} {m['value']:>14.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "deckrecon" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'deckrecon'} not found; "
              "run from the root of a deckrecon checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # A fresh catalog cache that this run owns: desk-sweep builds it cold,
    # and no run reads a cache left by another.
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["DECKRECON_CACHE"] = str(work / "catalogs")
    try:
        return run_workload(args, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
