"""Dense references for the library's Gram assembly, as the tests see it.

The library keeps a Gram as its centred blocks only, assembles them a block
of rows at a time from Kronecker products of the axis Grams, and sums a
pencil's pieces straight into its blocks. The tests compare those blocks, and
every form and pencil built from them, with the dense complex doubled Gram,
the spatial sum gathered to n x n and the sectors summed piece by piece
below; a pencil writes only the upper triangle of each sector, mirrored here
for the dense solvers. The exponential-sum integrals, which the library
forms from real sinc blocks about the box centre, are compared with dense
products of the complex interval kernel. The oracle's sampled axis Grams,
which the library forms from real cos and sin tables on the half of its
Gauss-Legendre panels about the interval centre, are compared with dense
sums over every node of the same panels. The library's doubled form, which
works in two buffers, is compared with the stacked rule it replaced.
"""

import functools
import math

import numpy as np

from obslab import assemble_gram
from obslab.observation import _closed_axis_gram, _window_sinc
from obslab.spectrum import _symmetric_product


def _interval_kernel(delta, lo: float, hi: float):
    """integral over (lo, hi) of e^{i delta s} ds, elementwise in delta.

    Written about the window centre c = (lo + hi)/2 as e^{i delta c} times
    the real modulus _window_sinc. The value at -delta is the exact
    floating-point conjugate, so Gram matrices built from it are Hermitian to
    the last bit.
    """
    d = np.asarray(delta, dtype=float)
    mag = _window_sinc(d, lo, hi)
    angle = d * ((lo + hi) / 2.0)
    out = np.empty(d.shape, dtype=complex)
    out.real = mag * np.cos(angle)
    out.imag = mag * np.sin(angle)
    return out


def gauss_grid(lo: float, hi: float, panels: int):
    """Every node of the composite 32-node Gauss-Legendre rule of panels equal panels on (lo, hi), and its weight.

    The nodes and weights on (-1, 1) are numpy's leggauss(32), not the
    library's own Newton iteration; each panel is the map of (-1, 1) onto it.
    """
    x, w = np.polynomial.legendre.leggauss(32)
    h = (hi - lo) / panels
    centres = lo + (np.arange(panels) + 0.5) * h
    return (centres[:, None] + (h / 2.0) * x).ravel(), np.tile((h / 2.0) * w, panels)


def sampled_exp_sums(ks, z: float, lo: float, hi: float, panels: int):
    """The Gauss-Legendre sums of f = e^{i z k x} on (lo, hi): sum_x w_x conj(f_i) f_j and sum_x w_x conj(f_i f_j).

    The samples are taken with one complex exp and the sums formed by two
    complex products, the a-a and a-b blocks of the profile's doubled Gram.
    """
    x, w = gauss_grid(lo, hi, panels)
    f = np.exp(1j * np.outer(z * ks, x))
    fw = f.conj() * w
    return fw @ f.T, fw @ f.conj().T


def sampled_sine_sum(ks, z: float, lo: float, hi: float, panels: int):
    """The Gauss-Legendre sum of f = sin(z k x) on (lo, hi): sum_x w_x f_i f_j, by one product of the samples."""
    x, w = gauss_grid(lo, hi, panels)
    f = np.sin(np.outer(z * ks, x))
    return (f * w) @ f.T


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


def spatial_sum(spec, mode_set) -> np.ndarray:
    """sum sign X1 o X2 over the region's terms, each closed K x K axis Gram gathered to the modes.

    (sign X1)[k1_i, k1_j] times X2[k2_i, k2_j], by fancy indexing on the mode
    set's k1 and k2, the terms summed in order: the bytes the Kronecker rows
    of the library must give.
    """
    g = mode_set.geometry
    axes = ((mode_set.k1, mode_set.K1, g.ell1), (mode_set.k2, mode_set.K2, g.ell2))

    @functools.cache
    def gathered(factor, axis):
        k, K, ell = axes[axis]
        gram = _closed_axis_gram(factor, np.arange(1, K + 1), math.pi / ell, ell)
        return gram[..., k[:, None] - 1, k[None, :] - 1] if np.ndim(gram) else gram

    total = None
    for s, f1, f2 in spec.region.pieces(spec.T)[1]:
        term = (s * gathered(f1, 0)) * gathered(f2, 1)
        total = term if total is None else total + term
    return total


def stacked_doubled_forms(a, b, r1, r2):
    """c^H [[A, B], [conj B, conj A]] c for c = (r1, r2) by the stacked rule observation._doubled_forms had.

    Re(r1^H A r1) + Re(s^H A s) + 2 Re(r1^H B r2), s = conj(r2): the rows r1
    and s go stacked through one product with A, their real and imaginary
    parts stacked again when A is real, and r1 through one product with B.
    """
    def form(m, u, w, hermitian):  # Re(u^H M w) over the last axis
        if np.iscomplexobj(m):
            return np.sum(_symmetric_product(u.conj(), m, hermitian) * w, axis=-1).real
        f = np.sum(_symmetric_product(np.stack([u.real, u.imag]), m) * np.stack([w.real, w.imag]), axis=-1)
        return f[0] + f[1]
    u = np.stack([r1, r2.conj()])
    diag = form(a, u, u, True)
    f = diag[0] + diag[1] + 2.0 * form(b, r1, r2, False)
    return float(f) if f.ndim == 0 else f


def _mirrored(s) -> np.ndarray:
    """A copy of s whose strict lower triangle is the transpose of its upper one, to the bit."""
    full = np.array(s)
    lower = np.tril_indices(len(full), -1)
    full[lower] = full.T[lower]
    return full


def pencil_sectors(pen) -> list:
    """The pencil's (sector, index) pairs: full symmetric copies of the upper triangles pen._write(k) writes.

    Each sector is copied before the next one overwrites the slab.
    """
    return [(_mirrored(pen._write(k)), index) for k, index in enumerate(pen._indices())]


def piecewise_sectors(specs, weight, mode_set, mask=None) -> list:
    """The pencil's (sector, index) pairs, summed Gram by Gram from assemble_gram's blocks.

    Each piece's X and Y, restricted to the masked modes and rotated to the
    first piece's angle when centred elsewhere, is added into zeros in order;
    the sums are scaled by D^{-1/2} on both sides and split into the even and
    odd sectors, or the one real 2m x 2m sector when the sums are complex,
    whose upper-right block is Im(A+B)^T below its diagonal, as the pencil
    writes it from the upper triangles of A and B.
    """
    grams = [assemble_gram(s, mode_set) for s in specs]
    d, n = weight.diagonal(mode_set), len(mode_set)
    keep = np.flatnonzero(np.ones(n, dtype=bool) if mask is None else mask)
    angle = grams[0].angle
    centred = [np.array_equal(g.angle, angle) for g in grams]
    dtype = float if all(centred) else complex
    a, b = np.zeros((len(keep),) * 2, dtype), np.zeros((len(keep),) * 2, dtype)
    for g, same in zip(grams, centred):
        x, y = g.x[np.ix_(keep, keep)], g.y[np.ix_(keep, keep)]
        if not same:
            q = (np.exp(1j * g.angle) * np.exp(-1j * angle))[keep]
            x, y = x * np.outer(q.conj(), q), y * np.outer(q.conj(), q.conj())
        a += x
        b += y
    r = 1.0 / np.sqrt(d[keep])
    a, b = a * np.outer(r, r), b * np.outer(r, r)
    if dtype is complex:
        upper_right = (b - a).imag
        below = np.tril_indices(len(keep), -1)
        upper_right[below] = (a + b).imag.T[below]
        full = np.block([[(a + b).real, upper_right], [(a + b).imag, (a - b).real]])
        return [(full, np.concatenate([keep, n + keep]))]
    return [(a + b, keep), (a - b, n + keep)]
