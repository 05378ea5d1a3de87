"""Property tests of the step sampler on random small chains."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from collapsekit import DEFAULT, AlgebraicState, ChainSpec, sample_chain_leftfold
from collapsekit.chain import _cdf, _count, _next_roots
from collapsekit.measurement import observable

from conftest import (
    assert_same_draws,
    philox_uniforms,
    random_density,
    random_unitary,
    reference_leftfold,
)

RUNS = 300
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def chains(draw):
    """A chain of d <= 4 observables, often degenerate, and a state that is
    mixed or pure."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observables = []
    for i in range(draw(st.integers(1, 3))):
        labels = rng.integers(0, draw(st.integers(1, dim)), size=dim).astype(float)
        u = random_unitary(rng, dim)
        observables.append(observable(f"O{i}", u @ np.diag(labels) @ u.conj().T))
    if draw(st.booleans()):
        rho = random_density(rng, dim)
    else:
        psi = random_unitary(rng, dim)[:, 0]
        rho = AlgebraicState.pure(psi)
    spec = ChainSpec(observables, draw(st.integers(1, 8)),
                     seed=draw(st.integers(0, 2**31)))
    return spec, rho


def reference(spec, rho):
    stacks = [np.stack(obs.projectors) for obs in spec.sequence()]
    uniforms = philox_uniforms(spec.seed, RUNS, spec.length)
    return stacks, uniforms, reference_leftfold(stacks, rho.density, uniforms)


@PROPERTY
@given(chains())
def test_grouped_sampler_matches_per_run_reference(case):
    spec, rho = case
    _, _, (expected, margin) = reference(spec, rho)
    assert_same_draws(sample_chain_leftfold(spec, rho, RUNS), expected, margin)


@PROPERTY
@given(chains(), st.floats(1e-50, 1e50))
def test_root_scale_leaves_draws_and_roots_unchanged(case, scale):
    # Along the reference path, one root per run: a draw (the CDF kernel and
    # its count) and a root update from c S equal those from S.
    spec, rho = case
    stacks, uniforms, (path, margin) = reference(spec, rho)
    shape = (RUNS, rho.dim, rho.dim)
    roots = np.broadcast_to(np.eye(rho.dim, dtype=np.complex128), shape)
    states = np.broadcast_to(rho.density, shape)
    group = np.arange(RUNS)
    unscaled, scaled = np.empty_like(path), np.empty_like(path)
    for k, stack in enumerate(stacks):
        projs = np.broadcast_to(stack, (RUNS, *stack.shape))
        step = slice(k, k + 1)
        _count(_cdf(roots, states, projs, DEFAULT), group, uniforms[:, step],
               unscaled[:, step])
        _count(_cdf(scale * roots, states, projs, DEFAULT), group, uniforms[:, step],
               scaled[:, step])
        taken = stack[path[:, k]]
        grown = _next_roots(roots, taken, DEFAULT)
        np.testing.assert_allclose(_next_roots(scale * roots, taken, DEFAULT), grown,
                                   rtol=0, atol=1e-12)
        roots = grown
    assert_same_draws(scaled, unscaled, margin)
