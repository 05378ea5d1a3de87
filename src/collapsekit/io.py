"""Document schema for operators, states, and problem files.

Documents are JSON with a top-level "kind" in {observable, state, vector,
povm, chain-spec, marginal-problem}.  Complex scalars are two-element
[re, im] arrays; matrices are row-major.  Serialization uses shortest
round-trip float formatting, so documents survive load/save losslessly.
"""

from __future__ import annotations

import json

import numpy as np

from .chain import ChainSpec
from .collapse_product import JointDistribution
from .config import DEFAULT, Tolerances
from .incompatibility import MarginalProblem
from .measurement import (
    POVM,
    AlgebraicState,
    Observable,
    VectorState,
    observable,
)

__all__ = ["DocumentError", "load_document", "dump_document", "KINDS"]

KINDS = ("observable", "state", "vector", "povm", "chain-spec", "marginal-problem")


class DocumentError(ValueError):
    """Malformed document; message carries position info when available."""


def _parse_complex(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2:
        return complex(entry[0], entry[1])
    raise DocumentError(f"{where}: expected a number or [re, im] pair, got {entry!r}")


def _parse_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where}: expected a non-empty list of rows")
    data = [[_parse_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)]
    m = np.array(data, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DocumentError(f"{where}: matrix is not square ({m.shape})")
    return m


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _parse_observable(doc, tol: Tolerances) -> Observable:
    matrix = _parse_matrix(doc.get("matrix"), "matrix")
    name = doc.get("name", "A")
    gap = float(doc.get("degeneracy_gap", 1e-8))
    return observable(name, matrix, gap, tol)


def _load_kind(doc: dict, tol: Tolerances):
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if kind == "observable":
        return _parse_observable(doc, tol)
    if kind == "state":
        return AlgebraicState(_parse_matrix(doc.get("matrix"), "matrix"), tol)
    if kind == "vector":
        amps = doc.get("amplitudes")
        if not isinstance(amps, list):
            raise DocumentError("amplitudes: expected a list")
        vec = [_parse_complex(v, f"amplitudes[{i}]") for i, v in enumerate(amps)]
        return VectorState(np.array(vec), tol)
    if kind == "povm":
        points = doc.get("sample_points")
        effects = doc.get("effects")
        if not isinstance(points, list) or not isinstance(effects, list):
            raise DocumentError("povm needs sample_points and effects lists")
        mats = [_parse_matrix(e, f"effects[{k}]") for k, e in enumerate(effects)]
        povm = POVM(points, mats)
        povm.check(tol)
        return povm
    if kind == "chain-spec":
        obs_docs = doc.get("observables")
        if not isinstance(obs_docs, list) or not obs_docs:
            raise DocumentError("chain-spec needs a non-empty observables list")
        obs = [_parse_observable(o, tol) for o in obs_docs]
        return ChainSpec(
            observables=obs,
            length=int(doc.get("length", len(obs))),
            convention=doc.get("convention", "left_fold"),
            seed=int(doc.get("seed", 0)),
        )
    # marginal-problem
    axes_doc = doc.get("axes")
    contexts_doc = doc.get("contexts")
    if not isinstance(axes_doc, dict) or not isinstance(contexts_doc, list):
        raise DocumentError("marginal-problem needs axes dict and contexts list")
    for name, vals in axes_doc.items():
        if not isinstance(vals, list):
            raise DocumentError(f"axes[{name!r}]: expected a list, got {type(vals).__name__}")
    axes = {name: [float(v) for v in vals] for name, vals in axes_doc.items()}
    contexts = []
    for k, ctx in enumerate(contexts_doc):
        if not isinstance(ctx, dict):
            raise DocumentError(f"contexts[{k}]: expected an object, got {type(ctx).__name__}")
        names = tuple(ctx.get("axes", ()))
        undeclared = [name for name in names if name not in axes]
        if undeclared:
            raise DocumentError(f"contexts[{k}]: undeclared axes {undeclared}")
        table = np.asarray(ctx.get("table"), dtype=float)
        expected = tuple(len(axes[name]) for name in names)
        if table.shape != expected:
            raise DocumentError(
                f"contexts[{k}]: table shape {table.shape} != {expected}"
            )
        dist = JointDistribution(
            [np.asarray(axes[name]) for name in names], table
        )
        contexts.append((names, dist))
    return MarginalProblem(axes, contexts)


def load_document(path: str, tol: Tolerances = DEFAULT, expect: str | None = None):
    """Load and validate one document; `expect` pins the required kind."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    if expect is not None and doc.get("kind") != expect:
        raise DocumentError(
            f"{path}: expected kind {expect!r}, got {doc.get('kind')!r}"
        )
    try:
        return _load_kind(doc, tol)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def dump_document(obj) -> str:
    """Serialize a supported object back to its document form."""
    if isinstance(obj, Observable):
        doc = {"kind": "observable", "name": obj.name,
               "matrix": _matrix_json(obj.matrix())}
    elif isinstance(obj, AlgebraicState):
        doc = {"kind": "state", "matrix": _matrix_json(obj.density)}
    elif isinstance(obj, VectorState):
        doc = {"kind": "vector",
               "amplitudes": [[float(v.real), float(v.imag)]
                              for v in obj.amplitudes]}
    elif isinstance(obj, POVM):
        doc = {"kind": "povm", "sample_points": list(obj.sample_points),
               "effects": [_matrix_json(e) for e in obj.effects]}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(doc, indent=2)
