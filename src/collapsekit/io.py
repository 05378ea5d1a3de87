"""Document schema for operators, states, and problem files.

Documents are JSON with a top-level "kind" in {observable, state, vector,
povm, chain-spec, marginal-problem}.  Complex scalars are two-element
[re, im] arrays; matrices are row-major.  Serialization uses shortest
round-trip float formatting, so documents survive load/save losslessly.

This module checks only the JSON shape of a document (objects, lists, and
finite numbers where numbers belong); every other rule is checked by the
type the document builds, and its `ValueError` becomes a `DocumentError`
that names the document's path.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .chain import ChainSpec
from .collapse_product import JointDistribution
from .config import DEFAULT, Tolerances, is_finite_real
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


# The Python types of JSON numbers; bool, a subclass of int, is not one.
_JSON_NUMBERS = frozenset((int, float))


class DocumentError(ValueError):
    """Malformed document; message carries position info when available."""


def _number(value, where: str) -> float:
    """The JSON number `value` as a float: the one rule for every numeric
    document value.  Bools, strings, other JSON values and non-finite
    numbers are refused."""
    if is_finite_real(value):
        return float(value)
    if isinstance(value, float):
        raise DocumentError(f"{where}: non-finite number {value!r}")
    raise DocumentError(f"{where}: expected a finite real number, got {value!r}")


def _parse_complex(entry, where: str) -> complex:
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_number(entry[0], f"{where}[0]"), _number(entry[1], f"{where}[1]"))
    return complex(_number(entry, where))


def _parse_table(value, where: str):
    """Nested lists of numbers, as nested lists of floats."""
    if isinstance(value, list):
        return [_parse_table(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return _number(value, where)


def _numeric_matrix(rows: list):
    """`rows` parsed by numpy in one pass, when every row is a list of
    len(rows) entries and either every entry is a finite int or float or
    every entry is an [re, im] pair of them; else None."""
    n = len(rows)
    if not all(type(row) is list and len(row) == n for row in rows):
        return None
    try:
        values = np.array(rows, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        return None
    scalars = itertools.chain.from_iterable(rows)
    if values.shape == (n, n, 2):
        scalars = itertools.chain.from_iterable(scalars)
    elif values.shape != (n, n):
        return None
    if not _JSON_NUMBERS.issuperset(map(type, scalars)) or not np.isfinite(values).all():
        return None
    if values.ndim == 2:
        return values.astype(np.complex128)
    return values.view(np.complex128)[..., 0]


def _parse_matrix(rows, where: str) -> np.ndarray:
    """A square matrix of numbers or [re, im] pairs, parsed by numpy in one
    pass; a matrix it refuses is walked entry by entry, which names the
    first bad row or entry (or parses a matrix that mixes the two forms)."""
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where}: expected a non-empty list of rows")
    parsed = _numeric_matrix(rows)
    if parsed is not None:
        return parsed
    data = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows):
            raise DocumentError(f"{where}[{i}]: expected a row of {len(rows)} entries, "
                                f"got {row!r}")
        data.append([_parse_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(data, dtype=np.complex128)


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _parse_observable(doc, tol: Tolerances) -> Observable:
    matrix = _parse_matrix(doc.get("matrix"), "matrix")
    name = doc.get("name", "A")
    return observable(name, matrix, doc.get("degeneracy_gap", 1e-8), tol)


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
            length=doc.get("length", len(obs)),
            convention=doc.get("convention", "left_fold"),
            seed=doc.get("seed", 0),
        )
    # marginal-problem
    axes_doc = doc.get("axes")
    contexts_doc = doc.get("contexts")
    if not isinstance(axes_doc, dict) or not isinstance(contexts_doc, list):
        raise DocumentError("marginal-problem needs axes dict and contexts list")
    axes = {}
    for name, vals in axes_doc.items():
        if not isinstance(vals, list):
            raise DocumentError(f"axes[{name!r}]: expected a list, got {type(vals).__name__}")
        axes[name] = [_number(v, f"axes[{name!r}][{i}]") for i, v in enumerate(vals)]
    contexts = []
    for k, ctx in enumerate(contexts_doc):
        if not isinstance(ctx, dict):
            raise DocumentError(f"contexts[{k}]: expected an object, got {type(ctx).__name__}")
        names = ctx.get("axes", [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise DocumentError(f"contexts[{k}].axes: expected a list of axis names, "
                                f"got {names!r}")
        table = np.asarray(_parse_table(ctx.get("table"), f"contexts[{k}].table"))
        dist = JointDistribution([np.asarray(axes.get(name, ())) for name in names], table)
        contexts.append((tuple(names), dist))
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
