"""An array lambda gives the bits of the scalar calls at its points, stacked,
on random shapes, sizes and data (the fixed-grid versions use the ``stacked``
fixture)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nevtrans.herglotz import evaluate, random_nevanlinna
from nevtrans.jacobi import BlockJacobi, m_cf, m_resolvent
from nevtrans.realize import compressed_resolvent
from nevtrans.transforms import gamma, gamma_hat


@st.composite
def batched_cases(draw):
    """A random block Jacobi matrix and realization of one block size d <= 3, both
    of size N <= 20, and a lambda array of 0 to 3 axes and at most 12 points, off
    the real axis.  Half the matrices are Kronecker, every block c_k I_d, so that
    their m-functions are m I_d."""
    d, N, kronecker = draw(st.integers(1, 3)), draw(st.integers(1, 20)), draw(st.booleans())
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=3).filter(lambda s: math.prod(s) <= 12)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))
    b = rng.standard_normal((N - 1, d, d)) + 1j * rng.standard_normal((N - 1, d, d))
    if kronecker:
        G, b = G.real[:, :1, :1] * np.eye(d), b[:, :1, :1] * np.eye(d)
    J = BlockJacobi.of((G + np.swapaxes(G.conj(), -1, -2)) / 2, b + 3 * np.eye(d))
    lam = np.asarray(rng.uniform(-3, 3, shape) + 1j * rng.uniform(0.2, 3, shape) * rng.choice([-1, 1], shape))
    return J, random_nevanlinna(seed, d, max(N, d)), lam


@settings(max_examples=30)
@given(batched_cases())
def test_lambda_array_equals_stacked_scalar_calls(case):
    J, F, lam = case
    d = J.d
    M = evaluate(F, lam)
    routes = {
        "m_cf": lambda z: m_cf(J, z),
        "m_resolvent": lambda z: m_resolvent(J, z),
        "evaluate": lambda z: evaluate(F, z),
        "compressed_resolvent": lambda z: compressed_resolvent(F.T, F.K, z),
    }
    for name, f in routes.items():
        want = np.array([f(complex(z)) for z in lam.ravel()]).reshape(lam.shape + (d, d))
        assert np.array_equal(f(lam), want), name
    for name, M in (("evaluate", M), ("m_resolvent", m_resolvent(J, lam))):  # m I_d for a Kronecker J
        want = np.array([gamma_hat(m, complex(z)) for m, z in zip(M.reshape(-1, d, d), lam.ravel())])
        assert np.array_equal(gamma_hat(M, lam), want.reshape(lam.shape + (d, d))), f"gamma_hat of {name}"
        # gamma's lam^2 - 1 is a numpy product at an array lam, which may round the last bit unlike
        # Python's; a scalar call on a 1 x 1 or c I_d value keeps the bits of 1 / [[c]] as an array,
        # divided by the Python complex lam^2 - 1
        for m, z, g in zip(M.reshape(-1, d, d), map(complex, lam.ravel()), gamma(M, lam).reshape(-1, d, d)):
            one = gamma(m, z)
            assert np.all(np.abs(g - one) <= 4e-16 * (1.0 + np.abs(one))), f"gamma of {name}"
            if d == 1 or np.array_equal(m, np.diag([m[0, 0]] * d)):
                c = (1 / m[:1, :1]) / (z * z - 1.0)
                assert one.tobytes() == np.diag([c[0, 0]] * d).tobytes(), f"gamma of {name}"


@settings(max_examples=30)
@given(batched_cases())
def test_a_stack_mixing_c_identity_with_other_matrices_gives_the_stacked_scalar_calls(case):
    # every other matrix of the stack is c I_d, c from F's value (-0.0 off the diagonal where c is
    # negative): those run as 1 x 1 values and the rest as d x d ones, in one call as in the scalar calls
    J, F, lam = case
    d, M = J.d, evaluate(F, lam)
    even = (np.arange(lam.size) % 2 == 0).reshape(lam.shape + (1, 1))
    M = np.where(even, np.multiply.outer(M[..., 0, 0], np.eye(d)), M)
    want = np.array([gamma_hat(m, complex(z)) for m, z in zip(M.reshape(-1, d, d), lam.ravel())])
    assert np.array_equal(gamma_hat(M, lam), want.reshape(lam.shape + (d, d)))


def test_one_point_array_equals_the_scalar_call():
    # numpy can round the product of an (n,) coupling with a (1, n) array unlike that of two (n,)
    # ones: m_resolvent of this chain at a one-point array once differed from its scalar call
    J, lam = BlockJacobi.of([0.1257, -0.1321], [2.464 + 0.362j]), 0.640 + 2.243j
    for shape in ((1,), (1, 1)):
        assert np.array_equal(m_resolvent(J, np.full(shape, lam)), np.full(shape + (1, 1), m_resolvent(J, lam)))


def test_one_point_arrays_on_random_short_chains():
    # short chains with complex b, where the last bit differed on more than half of them
    rng = np.random.default_rng(5)
    for _ in range(200):
        N = int(rng.integers(2, 5))
        J = BlockJacobi.of(rng.standard_normal(N), rng.standard_normal(N - 1) + 1j * rng.standard_normal(N - 1) + 3)
        lam = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3) * rng.choice([-1, 1]))
        for route in (m_resolvent, m_cf):
            assert np.array_equal(route(J, np.array([lam])), route(J, lam)[None])
