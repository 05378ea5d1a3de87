"""Batch command-line front end.

Subcommands: decompose, joint, equivalence, instruments, chsh, feasible,
chain, brackets.  Exit codes: 0 success, 1 internal error, 2 input
validation, 3 infeasibility verdict.  Numbers print at 12 significant digits
in both table and JSON output.

`joint` and `equivalence` print `chain.exact_chain_distribution` of their
observables under `--tree` (for `left` the chain's prefix recursion).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

import numpy as np

from . import chain as chain_mod
from .collapse_product import FOLD_TREES, catalan
from .config import DEFAULT, Tolerances
from .equivalence import build_commutative_model, verify_equivalence
from .incompatibility import admits_global_joint, chsh_value
from .instruments import (
    InstrumentModel,
    build_instrument,
    interference_from_joint,
    luders_duality_check,
    sequential_probabilities,
)
from .io import DocumentError, load_document
from .measurement import AlgebraicState, Observable, VectorState

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            cols = list(value[0])
            print(f"{key}:")
            print("  " + "\t".join(cols))
            for row in value:
                print("  " + "\t".join(str(row[c]) for c in cols))
        else:
            print(f"{key}: {value}")


# The names of the `--tol-*` flags and of the `--config` keys.
_TOLERANCE_NAMES = tuple(f.name for f in dataclasses.fields(Tolerances))


def _tolerances(args) -> Tolerances:
    # Precedence: flag > config file > default.
    tol = DEFAULT
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise DocumentError(f"{args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise DocumentError(f"{args.config}: top level must be an object")
        unknown = sorted(set(cfg) - set(_TOLERANCE_NAMES))
        if unknown:
            raise DocumentError(f"{args.config}: unknown tolerance keys {unknown}; "
                                f"expected some of {list(_TOLERANCE_NAMES)}")
        tol = tol.with_overrides(**cfg)
    return tol.with_overrides(**{name: getattr(args, f"tol_{name}")
                                 for name in _TOLERANCE_NAMES})


# `--tree` names a fold convention without its "_fold" suffix.
_TREE_CHOICES = tuple(name.removesuffix("_fold") for name in FOLD_TREES)


def _joint_from_args(args, tol):
    observables = [load_document(f, tol, expect="observable")
                   for f in args.observables]
    state = load_document(args.state, tol, expect="state")
    spec = chain_mod.ChainSpec(observables, len(observables), f"{args.tree}_fold")
    return observables, chain_mod.exact_chain_distribution(spec, state, tol)


def _labels(axes) -> list:
    """The outcome values of each axis, formatted once."""
    return [[_fmt(v) for v in np.asarray(axis).tolist()] for axis in axes]


def _outcome_labels(axes) -> list:
    """The formatted outcome tuples of a product sample space in C order."""
    return [",".join(t) for t in itertools.product(*_labels(axes))]


def _dist_rows(dist) -> list:
    return [{"outcomes": t, "probability": _fmt(p)}
            for t, p in zip(_outcome_labels(dist.axes),
                            dist.probabilities.ravel().tolist())]


def cmd_decompose(args, tol) -> int:
    decomp = load_document(args.file, tol, expect="observable").decomposition
    _emit({
        "eigenvalues": [_fmt(v) for v in decomp.eigenvalues],
        "ranks": decomp.ranks.tolist(),
    }, args.format)
    return EXIT_OK


def cmd_joint(args, tol) -> int:
    _, dist = _joint_from_args(args, tol)
    _emit({"rows": _dist_rows(dist)}, args.format)
    return EXIT_OK


def cmd_equivalence(args, tol) -> int:
    observables, dist = _joint_from_args(args, tol)
    model = build_commutative_model(dist, names=[o.name for o in observables])
    if args.perturb:
        probs = dist.probabilities.copy()
        probs.ravel()[0] += args.perturb
        dist = dataclasses.replace(dist, probabilities=probs)
    report = verify_equivalence(model, dist)
    _emit({
        "dim": model.dim,
        "primed_diagonals": [
            {"observable": model.names[k],
             "diagonal": ",".join(_fmt(v) for v in model.primed_values[k])}
            for k in range(len(model.primed_values))
        ],
        "state_diagonal": ",".join(_fmt(v) for v in model.state_diagonal),
        "max_deviation": _fmt(report.max_deviation),
        "min_polynomial_positivity": _fmt(report.min_polynomial_positivity),
    }, args.format)
    return EXIT_OK


def cmd_instruments(args, tol) -> int:
    a = load_document(args.first, tol, expect="observable")
    b = load_document(args.second, tol, expect="observable")
    psi = load_document(args.vector, tol, expect="vector")
    model = InstrumentModel(
        build_instrument(a, a.n_outcomes + 1, tol),
        build_instrument(b, b.n_outcomes + 1, tol),
    )
    dist = sequential_probabilities(model, psi, tol)
    comparison = interference_from_joint(dist, b, psi)
    duality = luders_duality_check(a, b, psi)
    _emit({
        "joint": _dist_rows(dist),
        "interference": [
            {"outcome": _fmt(v), "with_first_measured": _fmt(pm),
             "without_first": _fmt(pu)}
            for v, pm, pu in comparison
        ],
        "luders_duality_max_deviation": _fmt(duality.max_deviation),
    }, args.format)
    return EXIT_OK


def cmd_chsh(args, tol) -> int:
    state = load_document(args.state, tol, expect="state")
    obs = [load_document(f, tol, expect="observable") for f in args.settings]
    value = chsh_value(state, *obs, tol=tol)
    _emit({"chsh_value": _fmt(value)}, args.format)
    return EXIT_OK


def cmd_feasible(args, tol) -> int:
    problem = load_document(args.file, tol, expect="marginal-problem")
    verdict = admits_global_joint(problem, tol=tol)
    if verdict.feasible:
        _emit({
            "verdict": "feasible",
            "joint": _dist_rows(verdict.joint),
        }, args.format)
        return EXIT_OK
    _emit({
        "verdict": "infeasible",
        "violation": _fmt(verdict.violation),
        "certificate": [
            {"constraint": str(label), "coefficient": _fmt(c)}
            for label, c in verdict.certificate
        ],
    }, args.format)
    return EXIT_INFEASIBLE


def cmd_chain(args, tol) -> int:
    spec = load_document(args.file, tol, expect="chain-spec")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    state = load_document(args.state, tol, expect="state")
    exact = None
    if args.mechanism == "step":
        outcomes = chain_mod.sample_chain_leftfold(spec, state, args.runs, tol)
    else:
        exact = chain_mod.exact_chain_distribution(spec, state, tol)
        outcomes = chain_mod.sample_distribution(exact, spec.seed, args.runs)
    if args.emit_records:
        chain_mod.write_records(outcomes, sys.stdout)
        return EXIT_OK
    convention = spec.convention
    try:
        if exact is None:
            exact = chain_mod.exact_chain_distribution(spec, state, tol)
    except chain_mod.TableTooLargeError:
        # No exact table at this size: report the tuples that were observed.
        # Each row is counted as one string of bytes: big-endian bytes of
        # non-negative integers sort as the numbers do.  np.unique(axis=0)
        # counts the same rows over one field per step: for two runs of
        # 2**18 steps 12 s and 109 MiB, against 1 ms and 1 MiB here.
        big = np.ascontiguousarray(outcomes, dtype=outcomes.dtype.newbyteorder(">"))
        observed, counts = np.unique(big.view(np.dtype((np.void, big[0].nbytes))),
                                     return_counts=True)
        labels = _labels(obs.sample_space for obs in spec.observables[:spec.length])
        rows = [{
            "convention": convention,
            "outcomes": ",".join(map(list.__getitem__, itertools.cycle(labels), t)),
            "exact": None,
            "empirical": _fmt(c / len(outcomes)),
        } for t, c in zip(observed.view(big.dtype).reshape(len(observed), -1).tolist(),
                          counts.tolist())]
    else:
        empirical = chain_mod.empirical_distribution(outcomes, spec)
        rows = [{
            "convention": convention,
            "outcomes": t,
            "exact": _fmt(pe),
            "empirical": _fmt(pf),
        } for t, pe, pf in zip(_outcome_labels(exact.axes),
                               exact.probabilities.ravel().tolist(),
                               empirical.probabilities.ravel().tolist())]
    _emit({"rows": rows}, args.format)
    return EXIT_OK


def cmd_brackets(args, tol) -> int:
    rows = [{"n": n, "bracketings": catalan(n)} for n in range(1, args.n + 1)]
    _emit({"rows": rows}, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsekit",
        description="Joint probability construction for sequential measurements",
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--config", help="JSON object of tolerance overrides, keys "
                        + ", ".join(_TOLERANCE_NAMES))
    for name in _TOLERANCE_NAMES:
        parser.add_argument(f"--tol-{name}", type=float, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="eigenvalues and projector ranks")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("joint", help="collapse-product joint distribution")
    p.add_argument("observables", nargs="+")
    p.add_argument("--state", required=True)
    p.add_argument("--tree", choices=_TREE_CHOICES, default="left")
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("equivalence", help="commutative no-collapse model")
    p.add_argument("observables", nargs="+")
    p.add_argument("--state", required=True)
    p.add_argument("--tree", choices=_TREE_CHOICES, default="left")
    p.add_argument("--perturb", type=float, default=None,
                   help="inject a probability error before verification")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("instruments", help="pointer-model statistics")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_instruments)

    p = sub.add_parser("chsh", help="CHSH combination for a bipartite state")
    p.add_argument("settings", nargs=4, metavar="OBSERVABLE",
                   help="A1 A2 B1 B2 (factor observables)")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("feasible", help="global-joint feasibility of contexts")
    p.add_argument("file")
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("chain", help="sample a measurement chain")
    p.add_argument("file", help="chain-spec document")
    p.add_argument("--state", required=True)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--mechanism", choices=("step", "table"), default="table")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--emit-records", action="store_true")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("brackets", help="bracketing counts per chain length")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_brackets)

    return parser


# One parser per process: each parser is cyclic garbage once dropped.
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        tol = _tolerances(args)
        return args.func(args, tol)
    except (DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:   # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
