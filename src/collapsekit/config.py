"""Numerical tolerances shared across the toolkit.

All thresholds are overridable: construct a `Tolerances` and pass it to any
function that accepts a `tol=` keyword.  The defaults are sized so that
double-precision eigensolves up to dimension ~64 pass comfortably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Real


def is_finite_real(value) -> bool:
    """Whether `value` is a real number, not a bool, that is finite as a
    float: the package's one test for a numeric setting read from a document
    or a config file.  An integer past the float range is refused."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Tolerances:
    # Hermiticity residual, relative to the max-entry norm of the operator.
    herm: float = 1e-10
    # Slack allowed below zero for the smallest eigenvalue of a PSD operator.
    psd: float = 1e-9
    # Generic numerical identity tolerance (orthogonality, completeness, ...).
    num: float = 1e-9
    # Outcomes with probability below this cannot be conditioned on.
    prob: float = 1e-12

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_finite_real(value) or value < 0:
                raise ValueError(f"tolerance {f.name} must be a finite non-negative "
                                 f"real number, got {value!r}")

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


DEFAULT = Tolerances()
