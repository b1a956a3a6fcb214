"""Run one workload of the coverkit benchmark; print one JSON result line.

    python3 perfbench/run.py --workload paper-sim --seed 1 --seconds 20 --trace 0

Workloads: paper-sim, clock-n5000, library-api (see README.md). The run
builds its inputs from ``--seed``, sets up, then repeats whole rounds of the
workload until ``--seconds`` have passed, checks every output, and prints
the result as the last line of standard output:

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time, the
median round, peak memory, and the median time per unit of each of the
round's four parts). With ``--trace 1`` the same rounds run with spans
around every call into coverkit, then the per-layer suite runs, and the
metrics are the per-layer ones. Each run also appends a record with its
environment to ``perfbench/out/runs.jsonl``; a traced run writes its spans
to ``perfbench/out/``.

The code under test is the checkout's ``src/coverkit``; without it the run
exits with code 2 and prints no result.
"""

import argparse
import json
import shutil
import sys
import time

from common import (
    OUT, SetupError, Tracer, cpu_ticks, environment, load_coverkit, median,
    peak_rss_mb, seconds_since_process_start, steal_share,
)


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    from workloads import PARTS, SIZES, WORKLOADS

    tracer = Tracer(enabled=bool(args.trace))
    run_dir = OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](
        args.seed, run_dir / "work", tracer, SIZES[args.workload]
    )
    with tracer.span("setup"):
        workload.setup()
    setup_s = seconds_since_process_start()

    rounds = []
    ticks = cpu_ticks()
    start = time.perf_counter()
    while True:
        tracer.trace_id = len(rounds)
        with tracer.span("round") as ctx:
            parts = workload.run_round(len(rounds))
        rounds.append({"wall_s": ctx.elapsed, **parts})
        if time.perf_counter() - start >= args.seconds:
            break
    rss = peak_rss_mb()  # before any checking child process starts
    steal = steal_share(ticks, cpu_ticks())

    tracer.trace_id = len(rounds)  # the checks and the layer suite
    with tracer.span("check"):
        failures = workload.check()
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    def part(slot):
        samples = [r[slot] for r in rounds if slot in r]
        if not samples:
            raise RuntimeError(f"{slot}: every operation of this part failed")
        return median(samples)

    named = {name: part(slot) for slot, name in zip(PARTS, workload.part_names)}
    if args.trace:
        import layers

        layer_metrics, pool_bases = layers.measure(tracer, args.seed, run_dir / "layers")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        extra = {"traced_wall_s": median(r["wall_s"] for r in rounds), "pool_bases": pool_bases}
        tracer.dump(OUT / f"spans-{args.workload}-s{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": median(r["wall_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        metrics.update({slot: {"value": part(slot), "unit": "s"} for slot in PARTS})
        extra = {}

    for name, value in named.items():
        print(f"# {args.workload} {name} = {value:.6g} s ({len(rounds)} rounds)")
    print(f"# {args.workload} steal_share = {steal}")
    for key, value in extra.items():
        print(f"# {args.workload} {key} = {value}")
    env = environment(workload.workers)
    print(f"# environment {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "named": named, "extra": extra,
        "steal_share": steal, "failures": failures, "environment": env,
        "result": result,
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_coverkit()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":  # pool workers re-import this file; run only here
    sys.exit(main())
