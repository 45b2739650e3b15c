"""Shared state constructors for the test suite."""

import numpy as np

BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)


def random_state_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dim, rank=None):
    rank = dim if rank is None else rank
    weights = rng.random(rank)
    weights /= weights.sum()
    m = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = random_state_vector(rng, dim)
        m += w * np.outer(v, v.conj())
    return m


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def random_unitary(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_local_unitary(rng):
    return np.kron(random_unitary(rng, 2), random_unitary(rng, 2))


def rotated_spectrum(u, spectrum):
    """u diag(spectrum) u^dag, with the roundoff asymmetry scrubbed."""
    m = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2


def global_aabb(rng, a):
    """Spectrum (a, a, 1/2 - a, 1/2 - a) in a Haar-random eigenbasis of C^2 (x) C^2."""
    return rotated_spectrum(random_unitary(rng, 4), [a, a, 0.5 - a, 0.5 - a])


def split_decomposition(p):
    """2p * (|00>,|11> mixture) + (1-2p) * psi_minus, averaging to the Bell mixture."""
    from infospace import Ensemble, PureState, classically_correlated

    return Ensemble(
        (
            (2.0 * p, classically_correlated([0.5, 0.5])),
            (1.0 - 2.0 * p, PureState(BELL_MINUS, 2, 2)),
        )
    )
