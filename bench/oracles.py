"""Reference values computed without infospace.

Entropies of known spectra are closed forms evaluated with mpmath at 30
digits. Everything that needs a matrix decomposition uses numpy/LAPACK
(``eigvalsh``, ``svd``), never the package's own Jacobi eigensolver.
"""

import math

import mpmath
import numpy as np

mpmath.mp.dps = 30

TOL = 1e-9  # every in-process comparison; observed errors are below 1e-13

# Bell basis columns: phi+, phi-, psi+, psi-
BELL = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex
) / math.sqrt(2.0)
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


def entropy(probs) -> float:
    """Base-2 Shannon entropy of a probability vector, at 30 digits."""
    total = mpmath.mpf(0)
    for p in probs:
        p = mpmath.mpf(p)
        if p > 0:
            total -= p * mpmath.log(p, 2)
    return float(total)


def binary_entropy(x: float) -> float:
    x = mpmath.mpf(float(x))
    return entropy((x, 1 - x)) if 0 < x < 1 else 0.0


def bell_ec(p: float) -> float:
    """Entanglement cost of the Bell mixture, H(1/2 + sqrt(p(1-p)))."""
    p = mpmath.mpf(float(p))
    x = mpmath.mpf(1) / 2 + mpmath.sqrt(p * (1 - p))
    if x >= 1:
        return 0.0
    return float(-(x * mpmath.log(x, 2)) - (1 - x) * mpmath.log(1 - x, 2))


def eof_from_concurrence(c: float) -> float:
    c = mpmath.mpf(float(c))
    x = mpmath.mpf(1) / 2 + mpmath.sqrt(1 - c * c) / 2
    if x >= 1:
        return 0.0
    return float(-(x * mpmath.log(x, 2)) - (1 - x) * mpmath.log(1 - x, 2))


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def reduced(m: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.trace(r, axis1=1, axis2=3) if keep == "A" else np.trace(r, axis1=0, axis2=2)


def transpose_b(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    d = dim_a * dim_b
    return m.reshape(dim_a, dim_b, dim_a, dim_b).swapaxes(1, 3).reshape(d, d)


def matrix_entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def ppt_min(m: np.ndarray, dim_a: int, dim_b: int) -> float:
    return float(np.linalg.eigvalsh(transpose_b(m, dim_a, dim_b))[0])


def concurrence(m: np.ndarray) -> float:
    """Wootters concurrence from LAPACK singular values of A^T (Y x Y) A, rho = A A^dag."""
    w, v = np.linalg.eigh(m)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    s = np.linalg.svd(root.T @ _YY @ root, compute_uv=False)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def eigenspace_has_product_basis(columns: np.ndarray) -> bool:
    """Exact 2x2 test: does span{v1, v2} have an orthonormal product basis?

    The product vectors x*v1 + v2 solve det(x M1 + M2) = 0, a quadratic in x
    (M = the vector reshaped to 2x2); v1 itself is product when det M1 = 0.
    If the quadratic vanishes identically the span is a (x) C^2 or C^2 (x) b,
    which has such a basis. Otherwise the span has at most two product
    vectors up to scale, and a basis exists only if they are orthogonal.
    """
    m1 = columns[:, 0].reshape(2, 2)
    m2 = columns[:, 1].reshape(2, 2)
    a = np.linalg.det(m1)
    c = np.linalg.det(m2)
    b = np.linalg.det(m1 + m2) - a - c
    if max(abs(a), abs(b), abs(c)) < 1e-12:
        return True
    vectors = []
    if abs(a) < 1e-12:  # root at infinity: v1 is product; the other root solves b x + c = 0
        vectors.append(columns[:, 0])
        if abs(b) > 1e-12:
            vectors.append(-c / b * columns[:, 0] + columns[:, 1])
    else:
        disc = np.sqrt(b * b - 4 * a * c)
        for x in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)):
            vectors.append(x * columns[:, 0] + columns[:, 1])
    if len(vectors) < 2:
        return False
    u, v = (vec / np.linalg.norm(vec) for vec in vectors)
    return abs(np.vdot(u, v)) < 1e-9


def sig9_close(actual: float, expected: float) -> bool:
    """Equal to nine significant digits, the precision the CLI prints."""
    return abs(float(actual) - float(expected)) <= 5e-9 * abs(float(expected)) + 1e-12
