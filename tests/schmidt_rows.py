"""Two-qubit rows at the edges of the Schmidt form, for the synthesis tests.

Each family is an (n, 4) complex stack of amplitudes over |00>, |01>, |10>,
|11>: u diag(s0, s1) vh for random unitaries u and vh, so s0 - s1 and s1
are known, plus rows whose parts are exact zeros of either sign and rows
whose norm is off by 5e-11, inside the synthesis' ACCUMULATED_TOL.
"""
import itertools

import numpy as np

COUNT = 8


def random_unitary(rng):
    """A Haar-random 2x2 unitary: the QR factor of a complex Gaussian matrix, R's diagonal phases put back."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _schmidt(rng, s0, s1):
    return np.array([(random_unitary(rng) @ np.diag([s0, s1]) @ random_unitary(rng)).reshape(4) for _ in range(COUNT)])


def _gap(g):
    """(s0, s1) with s0^2 + s1^2 = 1 and s0 - s1 = g."""
    root = np.sqrt(2.0 - g * g)
    return 0.5 * (root + g), 0.5 * (root - g)


def _basis_vectors(rng, flip):
    """u diag(s0, s1) vh with qubit 1's Schmidt vectors |0>, |1> (|1>, |0> if flip) times random phases.

    Rounding leaves a part of the closed form's vh_0 below ROUNDOFF_TOL, so
    qubit 1's rotation takes the diagonal (antidiagonal) branch, with s1 > 0.
    """
    rows = []
    for _ in range(COUNT):
        s1 = rng.uniform(0.05, 0.7)
        vh = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 2)))
        weights = np.diag([np.sqrt(1.0 - s1 * s1), s1])
        rows.append((random_unitary(rng) @ weights @ (vh[::-1] if flip else vh)).reshape(4))
    return np.array(rows)


def _signed_zeros():
    """Basis, product and Bell rows whose zero parts take every sign, real and imaginary."""
    h = 2.0**-0.5
    rows = []
    for z0, z1, z2 in itertools.product([0.0, -0.0], repeat=3):
        rows += [[1.0, z0, z1, z2], [z0, 1.0, z1, z2], [z0, z1, z2, 1.0], [h, z0, z1, -h], [z0, h, -h, z2]]
        rows += [[0.6, z0, 0.8, z1], [z0, 0.6j, z1, -0.8]]
    rows = np.array(rows, dtype=complex)
    flipped = rows.copy()
    flipped.imag = np.where(rows.imag == 0.0, -0.0, rows.imag)
    return np.concatenate([rows, flipped])


def families(seed: int = 11) -> dict[str, np.ndarray]:
    """The edge families by name, seeded."""
    rng = np.random.default_rng(seed)
    outer = [np.kron(random_unitary(rng)[:, 0], random_unitary(rng)[:, 0]) for _ in range(COUNT)]
    outer += [np.kron([1.0, 0.0], random_unitary(rng)[:, 0]), np.kron(random_unitary(rng)[:, 0], [0.0, 1.0])]
    off = rng.standard_normal((COUNT, 4)) + 1j * rng.standard_normal((COUNT, 4))
    off /= np.linalg.norm(off, axis=-1, keepdims=True)
    off *= np.where(np.arange(COUNT) % 2, 1.0 + 5e-11, 1.0 - 5e-11)[:, None]
    return {
        "product, s1 = 0": np.array(outer),
        "product, s1 = 1e-9": _schmidt(rng, np.sqrt(1.0 - 1e-18), 1e-9),
        "product, s1 = 1e-6": _schmidt(rng, np.sqrt(1.0 - 1e-12), 1e-6),
        "Bell, s0 - s1 = 0": _schmidt(rng, 2.0**-0.5, 2.0**-0.5),
        "Bell, s0 - s1 = 1e-12": _schmidt(rng, *_gap(1e-12)),
        "Bell, s0 - s1 = 1e-9": _schmidt(rng, *_gap(1e-9)),
        "signed zeros": _signed_zeros(),
        "norm off by 5e-11": off,
        "qubit 1 on |0>, |1>": _basis_vectors(rng, False),
        "qubit 1 on |1>, |0>": _basis_vectors(rng, True),
    }
