"""Benchmark of collapsekit: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Workloads: chain, long_chain, joints, feasibility (see perfbench/README.md).
One caller drives the program in a closed loop.  A round is a fixed list of
operations; the run repeats whole rounds until --seconds have passed and
checks every output.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

  --trace 0  end-to-end metrics: setup_s, wall_s, cpu_s, peak_rss_mb
  --trace 1  per-layer metrics from a run whose odd rounds are traced; the
             even rounds stay untraced and give the tracing overhead

The result is also written to perfbench/results/, and with --trace 1 the
spans to perfbench/traces/.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# One thread for every BLAS/OpenMP pool, set before numpy loads: cpu_s then
# tracks wall_s on a shared machine, and LAPACK results, hence sampled
# outcomes, repeat exactly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

TRACED_FUNCTIONS = [
    "chain.sample_chain_leftfold", "chain.sample_chain_tree",
    "chain.exact_chain_distribution", "chain.empirical_distribution",
    "collapse_product.collapse_effect_tree", "collapse_product.joint_distribution",
    "collapse_product.enumerate_bracketings", "collapse_product.q_relative_collapse",
    "operator_core.spectral_decompose", "measurement.observable",
    "equivalence.build_commutative_model", "equivalence.verify_equivalence",
    "instruments.build_instrument", "instruments.sequential_probabilities",
    "instruments.interference_comparison", "instruments.build_joint_instrument",
    "instruments.joint_instrument_probabilities",
    "incompatibility.admits_global_joint", "rational_lp.feasibility_lp",
    "incompatibility.noncommutative_unifying_state",
    "io.load_document", "cli.main",
]
CALL_COUNTS = ["chain.sample_chain_leftfold", "collapse_product.collapse_effect_tree",
               "rational_lp.feasibility_lp", "cli.main"]
# Counters computed from argument sizes or read from results (tracer.py).
COMPUTED = {"collapse_product.effects_built": "count",
            "instruments.unitary_bytes": "bytes",
            "rational_lp.tableau_cells": "count",
            "incompatibility.unifying_iterations": "count"}
# Statistics counted from the sampled outcomes (workloads.py).
FROM_OUTPUTS = {"chain.outcomes": "count", "chain.distinct_prefixes": "count",
                "chain.runs_mismatched": "count"}


def per_layer_units() -> dict:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.self_s"] = "s"
        if name in CALL_COUNTS:
            units[f"{name}.calls"] = "count"
    units.update(FROM_OUTPUTS)
    units["chain.prefix_share"] = "ratio"
    units.update(COMPUTED)
    units["trace.spans"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("chain", "long_chain", "joints", "feasibility"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the self-test")
    p.add_argument("--results", default=os.path.join(HERE, "results"),
                   help="directory for the result file")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def set_up(args, docdir):
    """Import collapsekit afresh, then generate the inputs and documents and
    make one warm-up call of each kind of operation.

    The package and the workload module that binds it are dropped from
    sys.modules first, so every repetition pays the package's own import.
    numpy and scipy stay loaded: no change to collapsekit alters their
    import time, which varies by a third from run to run."""
    for name in list(sys.modules):
        if name in ("collapsekit", "workloads") or name.startswith("collapsekit."):
            del sys.modules[name]
    import workloads
    shutil.rmtree(docdir, ignore_errors=True)
    os.makedirs(docdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, docdir)
    wl.build()
    wl.warm_up()
    return wl


def run_round(wl, checks, log):
    """Call every operation once; only the calls are timed.  Returns the
    wall and CPU seconds of each call, the number of failed operations and
    whether every other output was correct."""
    walls, cpus = [], []
    failed = 0
    correct = True
    for index, op in enumerate(wl.ops):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            failed += 1
            log(index, op.kind, "raised", traceback.format_exc())
            continue
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        try:
            op.check(out)
        except checks.KnownFault as exc:
            failed += 1
            log(index, op.kind, "failed", str(exc))
        except checks.CheckFailed as exc:
            correct = False
            log(index, op.kind, "incorrect", str(exc))
        del out
    return walls, cpus, failed, correct


def typical_round(rounds) -> tuple:
    """Wall and CPU seconds of a round made of each operation's median call.

    On a shared machine the same work takes up to a tenth longer or shorter
    from one second to the next; a median per operation discards a slow
    spell that hits one call in one round, where the median of round totals
    needs most rounds to be spared."""
    walls = [statistics.median(ws) for ws in zip(*(r[0] for r in rounds))]
    cpus = [statistics.median(cs) for cs in zip(*(r[1] for r in rounds))]
    return sum(walls), sum(cpus)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "collapsekit", "__init__.py")):
        print(f"error: no collapsekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy  # noqa: F401
    import checks  # imports scipy.stats
    import_s = time.perf_counter() - _T0

    docdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = set_up(args, docdir)
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s = time.perf_counter() - t0

        tracer = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()

        reported = set()

        def log(index, kind, what, detail):
            # Rounds repeat the same operations: report each outcome once.
            if (index, what) not in reported:
                reported.add((index, what))
                print(f"op {index} ({kind}) {what}: {detail}", file=sys.stderr)

        rounds = []
        failed = 0
        correct = True
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                walls, cpus, f, ok = run_round(wl, checks, log)
            finally:
                if traced:
                    tracer.remove()
            rounds.append((walls, cpus, traced))
            failed += f
            correct = correct and ok
            if tracer is None:
                # One more set-up after every round.  A set-up takes about
                # 0.1 s, and the machine's speed over any 0.1 s varies by a
                # quarter; samples spread over the run steady the median.
                t0 = time.perf_counter()
                set_up(args, docdir)
                setups.append(time.perf_counter() - t0)
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or len(rounds) >= 2):
                break
        attempted = len(rounds) * len(wl.ops)
        stats = wl.round_stats()
    finally:
        shutil.rmtree(docdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(docdir))
        except OSError:
            pass

    setup_s = statistics.median(setups)
    plain = [r for r in rounds if not r[2]]
    wall_s, cpu_s = typical_round(plain)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(wl.ops)} operations, setup {setup_s:.3f} s "
          f"(median of set-ups {', '.join(f'{s:.3f}' for s in setups)}; numpy and scipy "
          f"imported in {import_s:.3f} s before), "
          f"references {prepare_s:.3f} s")
    if args.trace:
        metrics = per_layer(tracer, rounds, stats, args)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    if args.trace:
        units = per_layer_units()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    for name, m in result["metrics"].items():
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}")
    os.makedirs(args.results, exist_ok=True)
    out = os.path.join(args.results,
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "scale": args.scale,
                   "operations": [op.kind for op in wl.ops],
                   "rounds": [{"traced": r[2], "wall": r[0], "cpu": r[1]} for r in rounds],
                   **result}, fh)
    print(json.dumps(result))
    return 0


def per_layer(tracer, rounds, stats, args) -> dict:
    traced = [r for r in rounds if r[2]]
    plain = [r for r in rounds if not r[2]]
    n = len(traced)
    summary = tracer.summary()
    metrics = {}
    for name in TRACED_FUNCTIONS:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.self_s"] = entry["self_s"] / n
        if name in CALL_COUNTS:
            calls, rest = divmod(entry["calls"], n)
            assert rest == 0, f"{name}: calls differ between traced rounds"
            metrics[f"{name}.calls"] = calls
    for name in FROM_OUTPUTS:
        metrics[name] = stats.get(name, 0)
    outcomes = metrics["chain.outcomes"]
    metrics["chain.prefix_share"] = (metrics["chain.distinct_prefixes"] / outcomes
                                     if outcomes else 0.0)
    for name in COMPUTED:
        metrics[name] = tracer.counters.get(name, 0) / n
    metrics["trace.spans"] = len(tracer.spans) / n
    traced_wall = typical_round(traced)[0]
    plain_wall = typical_round(plain)[0]
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    trace_dir = os.path.join(HERE, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.dump(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
