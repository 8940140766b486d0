"""The dense complex doubled Gram of a GramForm, as a test reference.

The library keeps a Gram as its centred blocks only; the tests compare those
blocks, and every form and pencil built from them, with this matrix.
"""

import numpy as np


def dense_gram(gram) -> np.ndarray:
    """The complex doubled Gram conj(p_i) p_j [[X, Y], [Y, X]]_ij, p = e^{i (angle, -angle)}.

    Its a-a block is conj(p_i) p_j X_ij and its a-b block conj(p_i p_j) Y_ij,
    with p = e^{i angle} here. The complex products are written out in real
    arithmetic, so the a-a block is Hermitian and the a-b block symmetric to
    the last bit.
    """
    x, y, angle = gram.centred
    pr, pi = np.cos(angle), np.sin(angle)
    rr, ii, ri = np.outer(pr, pr), np.outer(pi, pi), np.outer(pr, pi)
    a = np.empty(x.shape, dtype=complex)
    a.real = x * (rr + ii)
    a.imag = x * (ri - ri.T)
    b = np.empty(y.shape, dtype=complex)
    b.real = y * (rr - ii)
    b.imag = -(y * (ri + ri.T))
    return np.block([[a, b], [b.conj(), a.conj()]])
