"""Self-test of the benchmark, in seconds.

    python3 perfbench/selftest.py

1. Runs every workload once at a tiny size through perfbench/run.py, with
   and without tracing, and checks the printed result: all outputs correct,
   the expected operations failed, and the metric names and units match
   BENCHMARK.json.
2. Hands each checker one deliberately wrong output and confirms that it
   rejects it: a perturbed distribution, a perturbed effect table, a flipped
   outcome, a wrong verdict, and a certificate with its sign flipped.
3. Confirms that the tracer puts every original function back.

Exits 0 when every step passes.
"""

import contextlib
import importlib
import io
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402  (sets the thread pools before numpy does any work)
import checks as C  # noqa: E402
import tracer  # noqa: E402


def current(name):
    """run.main imports collapsekit and the workloads afresh each time;
    take the copies that are loaded now."""
    return importlib.import_module(name)

# Operations of the tiny long_chain run that hit the underflow: the two
# fixed chains, one operation each per round.
EXPECTED_FAILED = {"chain": 0, "long_chain": 2, "joints": 0, "feasibility": 0}

problems = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def rejects(check, output, error=C.CheckFailed):
    try:
        check(output)
    except error:
        return True
    except Exception as exc:   # a checker must not crash on a wrong output
        print(f"      unexpected {type(exc).__name__}: {exc}")
        return False
    return False


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def end_to_end_runs(spec, results):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} if spec else run.END_TO_END
    for name, failed in EXPECTED_FAILED.items():
        code, result = run_main(["--workload", name, "--seed", "5", "--seconds", "0",
                                 "--scale", "tiny", "--results", results])
        expect(code == 0 and result["correct"] and result["failed"] == failed
               and result["attempted"] >= 1,
               f"{name}: tiny run correct, {result['failed']} of {result['attempted']} "
               f"operations failed (expected {failed})")
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        expect(got == units, f"{name}: end-to-end metrics and units match")


def traced_run(spec, results):
    code, result = run_main(["--workload", "chain", "--seed", "5", "--seconds", "0",
                             "--scale", "tiny", "--trace", "1", "--results", results])
    units = ({m["name"]: m["unit"] for m in spec["per_layer"]} if spec
             else run.per_layer_units())
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(code == 0 and result["correct"] and got == units,
           "traced run reports exactly the per-layer metrics")
    expect(result["metrics"]["chain.sample_chain_leftfold.calls"]["value"] > 0,
           "traced run counted sampler calls")


def built(name, docdir):
    wl = current("workloads").WORKLOADS[name](7, "tiny", docdir)
    wl.build()
    wl.prepare()
    return wl


def op_of(wl, kind, nth=0):
    return [op for op in wl.ops if op.kind == kind][nth]


def wrong_outputs(docdir):
    ck = current("collapsekit")
    # chain: a perturbed distribution of sampled outcomes, and of the exact table.
    wl = built("chain", docdir)
    step = op_of(wl, "leftfold")
    outcomes = step.call()
    step.check(outcomes)
    skewed = outcomes.copy()
    skewed[: len(skewed) // 4, -1] = 0
    expect(rejects(lambda o: C.check_frequencies(o, wl.joints["c1"][-1], "skewed"), skewed),
           "chain: frequency test rejects a perturbed distribution")
    exact = op_of(wl, "exact")
    dist = exact.call()
    exact.check(dist)
    probs = dist.probabilities.copy()
    probs.flat[0] += 1e-6
    probs.flat[-1] -= 1e-6
    expect(rejects(exact.check, ck.JointDistribution(dist.axes, probs)),
           "chain: exact-table check rejects a perturbed table")

    # long_chain: one flipped outcome in one run.
    wl = built("long_chain", docdir)
    op = wl.ops[0]
    reference, margin = wl.references[wl.chains[0].label]
    flipped = reference.copy()
    run_index = int(np.argmax(margin))
    n_out = int(reference.max()) + 1
    flipped[run_index, -1] = (flipped[run_index, -1] + 1) % n_out
    expect(not rejects(op.check, reference, C.KnownFault),
           "long_chain: the reference itself passes")
    try:
        op.check(flipped)
        caught = None
    except C.KnownFault as exc:
        caught = exc
    expect(caught is not None and caught.mismatched == 1,
           "long_chain: run check rejects a single flipped outcome")

    # joints: one effect entry perturbed.
    wl = built("joints", docdir)
    op = op_of(wl, "bracketing", 1)
    table, jd = op.call()
    op.check((table, jd))
    effects = table.effects.copy()
    effects.reshape(-1)[0] += 1e-6
    bad = ck.JointEffectTable(table.axes, effects)
    expect(rejects(op.check, (bad, jd)), "joints: effect-table check rejects a perturbed entry")

    # feasibility: a wrong verdict and a sign-flipped certificate.
    wl = built("feasibility", docdir)
    infeasible = next(op for op in wl.ops if op.kind == "chsh"
                      and not wl.problems[op_label(wl, op)][2])
    problem, verdict = infeasible.call()
    infeasible.check((problem, verdict))
    fake = type(verdict)(True, verdict.joint, None, verdict.violation)
    expect(rejects(infeasible.check, (problem, fake)),
           "feasibility: verdict check rejects a wrong verdict")
    flipped = type(verdict)(False, None, [(label, -c) for label, c in verdict.certificate],
                            verdict.violation)
    expect(rejects(infeasible.check, (problem, flipped)),
           "feasibility: certificate check rejects a sign-flipped certificate")


def op_label(wl, op):
    index = [o for o in wl.ops if o.kind == "chsh"].index(op)
    return f"chsh{index}"


def tracer_restores():
    ck = current("collapsekit")
    originals = {name: getattr(ck, name) for name in dir(ck)}
    t = tracer.Tracer()
    t.install()
    wrapped = ck.sample_chain_leftfold is not originals["sample_chain_leftfold"]
    t.remove()
    restored = all(getattr(ck, name) is value for name, value in originals.items())
    expect(wrapped and restored, "tracer wraps public functions and restores them")


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = json.load(open(spec_path)) if os.path.isfile(spec_path) else None
    with tempfile.TemporaryDirectory(dir=HERE, prefix="selftest-") as tmp:
        results = os.path.join(tmp, "results")
        docdir = os.path.join(tmp, "docs")
        os.makedirs(docdir)
        end_to_end_runs(spec, results)
        traced_run(spec, results)
        wrong_outputs(docdir)
        tracer_restores()
    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
