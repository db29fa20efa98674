"""JSON round trips of every finite-data type are exact: what is read back
holds the same arrays, and writing it again gives the same text."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nevtrans.herglotz import RealizedFunction, random_nevanlinna
from nevtrans.jacobi import BlockJacobi
from nevtrans.kac import StepHamiltonian

ROUND_TRIP = settings(max_examples=25)

finite = st.floats(-1e6, 1e6, allow_nan=False)


def complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_round_trip(x, *fields):
    text = x.to_json()
    y = type(x).from_json(text)
    assert y.to_json() == text
    for name in fields:
        assert np.array_equal(getattr(y, name), getattr(x, name)), name


@st.composite
def step_hamiltonians(draw):
    lengths = draw(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=12))
    thetas = [math.pi / 2] + draw(st.lists(finite, min_size=len(lengths) - 1, max_size=len(lengths) - 1))
    return StepHamiltonian.of(np.concatenate([[0.0], np.cumsum(lengths)]), thetas)


@st.composite
def block_jacobis(draw):
    d, N = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = complex_stack(rng, (N, d, d))
    return BlockJacobi.of((G + np.swapaxes(G.conj(), -1, -2)) / 2, complex_stack(rng, (N - 1, d, d)))


@st.composite
def measures(draw):
    d = draw(st.integers(1, 3))
    ts = draw(st.lists(finite, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = complex_stack(rng, (len(ts) + 2, d, d))
    psd = G @ np.swapaxes(G.conj(), -1, -2)
    A = (G[0] + G[0].conj().T) / 2
    return RealizedFunction.from_measure(A, psd[1], list(zip(ts, psd[2:])))


@ROUND_TRIP
@given(step_hamiltonians())
def test_step_hamiltonian(H):
    assert_round_trip(H, "breakpoints", "thetas")


@ROUND_TRIP
@given(block_jacobis())
def test_block_jacobi(J):
    assert_round_trip(J, "a", "b")


@ROUND_TRIP
@given(measures())
def test_measure_function(F):
    assert_round_trip(F, "A", "B", "atom_t", "atom_W")


@ROUND_TRIP
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 4))
def test_realized_function(seed, d, extra):
    assert_round_trip(random_nevanlinna(seed, d, d + extra), "T", "K")
