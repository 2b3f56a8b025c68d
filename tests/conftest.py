import numpy as np
import pytest
from hypothesis import settings

# reproducible property tests with no per-example deadline on a loaded machine
settings.register_profile("ertl", derandomize=True, deadline=None)
settings.load_profile("ertl")

from ertl import compute_moments, discrete_spec, example1_spec, example2_spec


def tau_closed_form(lp, n):
    """tau_n = L[x Q_n] as sigma_{n,n} * sum_{k=1}^{n+1} gamma_k, gamma_k = alpha_{k+1} + beta_k.

    The second route to ``lp.tau[n]`` (n <= N-1): alpha_{N+1}, past the
    sequence's coefficients, is the sigma ratio sigma_{N,N} / sigma_{N-1,N-1}.
    """
    alpha = lp.alpha + (lp.sigma_diag[lp.N] / lp.sigma_diag[lp.N - 1],)  # alpha_2..alpha_{N+1}
    return lp.sigma_diag[n] * sum(a + b for a, b in zip(alpha[:n + 1], lp.beta[:n + 1]))


@pytest.fixture(scope="session")
def ex1_spec():
    return example1_spec(1.0, 2.0)


@pytest.fixture(scope="session")
def ex1_table_t0(ex1_spec):
    return compute_moments(ex1_spec, 0.0, 10)


@pytest.fixture(scope="session")
def ex2_spec():
    return example2_spec(1.0, 2.0)


@pytest.fixture(scope="session")
def ten_node_spec():
    """Well-spread positive discrete measure, regular to depth ~10."""
    nodes = [0.31, 0.55, 0.83, 1.12, 1.55, 2.1, 2.9, 4.0, 5.6, 7.9]
    weights = [1.0, 0.7, 1.3, 0.9, 1.1, 0.8, 1.2, 0.6, 1.0, 0.5]
    return discrete_spec(nodes, weights, p=1.0, q=2.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
