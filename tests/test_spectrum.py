"""Mode sets, eigenvalues, and gap analysis on the rectangle."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab import (
    ModeSet,
    RectangleGeometry,
    build_mode_set,
    check_gap_lemma,
    partial_gap_analysis,
    spectrum,
)
from obslab.spectrum import _row_gram, _symmetric_product


def test_geometry_derived_constants():
    g = RectangleGeometry(1.0, 2.0)
    assert g.u == pytest.approx(math.pi**2, rel=1e-15)
    assert g.v == pytest.approx(math.pi**2 / 4, rel=1e-15)
    assert g.z == pytest.approx(math.pi / 2, rel=1e-15)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_geometry_identities(ell1, ell2):
    g = RectangleGeometry(ell1, ell2)
    assert g.u * ell1**2 == pytest.approx(math.pi**2, rel=1e-12)
    assert g.v * ell2**2 == pytest.approx(math.pi**2, rel=1e-12)
    assert g.z * ell2 == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize(
    "ell1,ell2", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)]
)
def test_geometry_rejects_bad_lengths(ell1, ell2):
    with pytest.raises(ValueError):
        RectangleGeometry(ell1, ell2)


def test_single_mode_square(square):
    ms = build_mode_set(square, 1, 1)
    assert len(ms) == 1
    assert (ms.k1[0], ms.k2[0]) == (1, 1)
    assert ms.lam[0] == pytest.approx(2.0, rel=1e-15)


def test_mode_eigenvalues(square):
    ms = build_mode_set(square, 4, 4)
    assert ms.lam[ms.index_of(1, 2)] == pytest.approx(5.0, rel=1e-15)
    g = RectangleGeometry(1.0, 2.0)
    ms2 = build_mode_set(g, 3, 1)
    lam = ms2.lam[ms2.index_of(3, 1)]
    assert lam == pytest.approx(9 * math.pi**2 + math.pi**2 / 4, rel=1e-15)


def test_mode_ordering_is_row_major_in_k2_k1(square):
    ms = build_mode_set(square, 3, 2)
    pairs = list(zip(ms.k1.tolist(), ms.k2.tolist()))
    assert pairs == [
        (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2),
    ]
    for i, (k1, k2) in enumerate(pairs):
        assert ms.index_of(k1, k2) == i


def test_mode_set_size_and_uniqueness(square):
    ms = build_mode_set(square, 5, 7)
    assert len(ms) == ms.k1.size == ms.k2.size == ms.lam.size == 35
    assert len(set(zip(ms.k1.tolist(), ms.k2.tolist()))) == 35


def test_lambda_increases_along_each_index(square):
    ms = build_mode_set(square, 6, 6)
    for k2 in range(1, 7):
        row = [ms.lam[ms.index_of(k1, k2)] for k1 in range(1, 7)]
        assert row == sorted(row)
    for k1 in range(1, 7):
        col = [ms.lam[ms.index_of(k1, k2)] for k2 in range(1, 7)]
        assert col == sorted(col)


def test_build_mode_set_deterministic(square):
    a = build_mode_set(square, 4, 4)
    b = build_mode_set(square, 4, 4)
    for name in ("k1", "k2", "lam"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_mode_set_arrays_match_modes():
    g = RectangleGeometry(math.pi, 2.7)
    ms = build_mode_set(g, 9, 7)
    u, v = g.u, g.v
    modes = [(k1, k2, u * k1 * k1 + v * k2 * k2) for k2 in range(1, 8) for k1 in range(1, 10)]
    for name, column in zip(("k1", "k2", "lam"), zip(*modes)):
        values = getattr(ms, name)
        assert values.tolist() == list(column)
        assert np.array_equal(values.view(np.int64), np.array(column).view(np.int64))
        assert not values.flags.writeable
    twin = ModeSet(RectangleGeometry(math.pi, 2.7), 9.0, 7)
    assert twin.K1 == 9 and type(twin.K1) is int
    assert ms == twin and hash(ms) == hash(twin)
    assert ms != build_mode_set(g, 7, 9)
    assert ms != build_mode_set(RectangleGeometry(math.pi, 2.75), 9, 7)
    assert "lam" not in repr(ms)


@pytest.mark.parametrize("K1,K2", [(0, 1), (1, 0), (-2, 3)])
def test_build_mode_set_rejects_bad_truncation(square, K1, K2):
    with pytest.raises(ValueError):
        build_mode_set(square, K1, K2)


@pytest.mark.parametrize("K1,K2", [(2.5, 3), (3, 1.0000001), (math.nan, 2)])
def test_mode_set_rejects_fractional_truncation(square, K1, K2):
    with pytest.raises(ValueError):
        ModeSet(square, K1, K2)


@pytest.mark.parametrize(
    "ell1,ell2,name",
    [(1e-170, 1.0, "ell1"), (1.0, 1e-155, "ell2"), (1e155, 1.0, "ell1"), (1e155, 1e155, "ell1")],
)
def test_geometry_rejects_an_unrepresentable_wavenumber(ell1, ell2, name):
    with pytest.raises(ValueError, match=f"side {name}="):
        RectangleGeometry(ell1, ell2)


def test_geometry_keeps_u_v_at_the_extremes():
    for ell in (1e-153, 7.5e-154, 1e154, 1.3e154):
        g = RectangleGeometry(ell, ell)
        assert g.u == g.v == math.pi**2 / ell**2
        assert 0 < g.u < math.inf


def test_mode_set_rejects_overflowing_eigenvalues():
    g = RectangleGeometry(1e-153, 1e-153)
    assert np.isfinite(build_mode_set(g, 2, 2).lam).all()
    with pytest.raises(ValueError, match="eigenvalues overflow"):
        build_mode_set(g, 40, 1)


def test_gap_lemma_examples():
    r = check_gap_lemma(3, 1, 2)
    assert r["lhs"] == pytest.approx(math.sqrt(13) - math.sqrt(5), rel=1e-12)
    assert r["bound"] == pytest.approx(2 / (2 * math.sqrt(2)), rel=1e-12)
    assert r["holds"]
    r = check_gap_lemma(2, 1, 1)
    assert r["lhs"] == pytest.approx(math.sqrt(5) - math.sqrt(2), rel=1e-12)
    assert r["bound"] == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-12)
    assert r["holds"]


@pytest.mark.parametrize("k1,k1p,k2", [(1, 2, 5), (2, 2, 1), (0, 1, 1), (1, -1, 1)])
def test_gap_lemma_rejects_inadmissible(k1, k1p, k2):
    with pytest.raises(ValueError):
        check_gap_lemma(k1, k1p, k2)


def test_gap_lemma_small_exhaustive():
    # brute-force oracle on a small range; the full range is in acceptance
    for k2 in range(1, 41):
        for k1 in range(1, 41):
            for k1p in range(1, k1):
                if max(k1, k1p) < k2:
                    continue
                assert check_gap_lemma(k1, k1p, k2)["holds"]


def test_partial_gap_integers():
    r = partial_gap_analysis([float(k) for k in range(1, 11)], 0)
    assert r["gamma"] == pytest.approx(1.0, rel=1e-15)
    assert r["satisfied"]


def test_partial_gap_row_bound():
    w = [math.sqrt(k1**2 + 4) for k1 in range(1, 11)]
    r = partial_gap_analysis(w, 2)
    assert r["gamma"] >= 1 / (2 * math.sqrt(2)) - 1e-12
    assert r["satisfied"]


def test_partial_gap_exempts_pairs_below_n():
    # duplicated frequency at indices 1 and 2, n=3: the pair is exempt
    w = [1.0, 1.0, 5.0, 6.0]
    r = partial_gap_analysis(w, 3)
    assert r["satisfied"]
    assert r["gamma"] > 0


def test_partial_gap_needs_two_frequencies():
    with pytest.raises(ValueError):
        partial_gap_analysis([1.0], 0)


def test_partial_gap_rejects_bad_indices():
    with pytest.raises(ValueError, match="below 2\\^62"):
        partial_gap_analysis([1.0, 2.0], 0, indices=[1, -(2**62)])
    with pytest.raises(ValueError, match="equal length"):
        partial_gap_analysis([1.0, 2.0, 3.0], 0, indices=[1, 2])


def test_index_of_rejects_modes_outside_the_truncation(square):
    ms = build_mode_set(square, 3, 2)
    for k1, k2 in [(0, 1), (4, 1), (1, 0), (1, 3)]:
        with pytest.raises(KeyError, match="outside truncation"):
            ms.index_of(k1, k2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_partial_gap_rejects_non_finite_frequencies(bad):
    # a loop's min(inf, nan) would drop the nan and report gamma 1.0
    with pytest.raises(ValueError, match="finite"):
        partial_gap_analysis([1.0, bad, 3.0], 0)


def _reference_gap(w, n, idx):
    gamma = math.inf
    for a in range(len(w)):
        for b in range(a + 1, len(w)):
            if max(abs(idx[a]), abs(idx[b])) < n:
                continue
            step = abs(idx[b] - idx[a])
            if step == 0:
                raise ValueError("duplicate indices")
            gamma = min(gamma, abs(w[b] - w[a]) / step)
    return gamma


@given(
    st.integers(min_value=2, max_value=600),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["positions", "centred", "duplicate"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_partial_gap_matches_the_pair_loop_bitwise(size, n, labels, seed):
    rng = np.random.default_rng(seed)
    # a few rounded values make exact frequency ties likely
    w = np.round(rng.uniform(-50.0, 50.0, size), int(rng.integers(0, 4))).tolist()
    if labels == "positions":
        idx, indices = list(range(1, size + 1)), None
    else:
        idx = list(range(-(size // 2), size - size // 2))
        if labels == "duplicate":
            i, j = rng.choice(size, 2, replace=False)
            idx[j] = idx[i]
        indices = idx
    try:
        want = _reference_gap(w, n, idx)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            partial_gap_analysis(w, n, indices=indices)
        return
    got = partial_gap_analysis(w, n, indices=indices)
    assert got["gamma"] == want  # bitwise: the same float operations per pair
    assert got["satisfied"] == (want > 0)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=2, max_value=12))
@settings(max_examples=40)
def test_partial_gap_gamma_certifies_pairs(n, size):
    rng = np.random.default_rng(size * 17 + n)
    w = np.sort(rng.uniform(0.0, 20.0, size))
    r = partial_gap_analysis(list(w), n)
    if not r["satisfied"]:
        return
    gamma = r["gamma"]
    idx = range(1, size + 1)
    for i in idx:
        for j in idx:
            if i != j and max(i, j) >= n:
                assert abs(w[j - 1] - w[i - 1]) >= abs(j - i) * gamma * (1 - 1e-12)


# the ways to reach scipy.linalg's BLAS and LAPACK, its error class, or spectrum's import of them
_SCIPY_NAMES = ("blas", "lapack", "get_blas_funcs", "get_lapack_funcs", "LinAlgError", "_scipy_linalg")


def _reads_scipy(node) -> bool:
    """Whether node imports scipy, or reads its BLAS, its LAPACK or its error class as an attribute."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.split(".")[0] == "scipy" or any(alias.name == "_scipy_linalg" for alias in node.names)
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr in _SCIPY_NAMES


def _import_time_nodes(tree):
    """The nodes of a module that run when it is imported: all but those inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


# numpy's routines that reach its BLAS or LAPACK; of numpy.linalg only the error class may be imported, and
# numpy.polynomial, whose Gauss nodes (leggauss) and roots come from numpy.linalg's eigensolvers, not at all
_NUMPY_PRODUCTS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "leggauss"}
_NUMPY_LINALG = {"linalg", "polynomial"}


def _reaches_numpy_blas(node) -> bool:
    """Whether node is an @ product, a call of a numpy product or of leggauss, or reaches numpy's linear algebra.

    That is numpy.linalg, of which only LinAlgError may be imported, and numpy.polynomial.
    """
    if isinstance(getattr(node, "op", None), ast.MatMult):
        return True
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None)) in _NUMPY_PRODUCTS
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        names = {alias.name for alias in node.names}
        if node.module == "numpy.linalg":
            return names != {"LinAlgError"}
        return node.module.startswith("numpy.polynomial") or bool(names & (_NUMPY_PRODUCTS | _NUMPY_LINALG))
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] in (["numpy", "linalg"], ["numpy", "polynomial"]) for alias in node.names)
    numpy_attribute = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("np", "numpy")
    return numpy_attribute and node.attr in _NUMPY_LINALG


def test_every_product_goes_through_the_blas_helper():
    # numpy's products run in numpy's own OpenBLAS pool, not in scipy's with the pencil's LAPACK;
    # and only spectrum reaches scipy, so every BLAS and LAPACK call stays behind its three helpers
    found = []
    for path in sorted(Path(spectrum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _reaches_numpy_blas(node) or (path.name != "spectrum.py" and _reads_scipy(node)):
                found.append((path.name, node.lineno))
    assert found == []


def test_the_numpy_blas_guard_sees_each_way_to_reach_numpy_blas():
    sources = [
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "a.dot(b)",
        "numpy.matmul(a, b)",
        "np.inner(a, b)",
        "np.vdot(a, b)",
        "np.tensordot(a, b, 1)",
        "np.einsum('ij,j', a, b)",
        "from numpy import dot\ndot(a, b)",
        "from numpy import einsum",
        "np.linalg.norm(a)",
        "numpy.linalg.eigh(a)",
        "from numpy.linalg import norm",
        "from numpy.linalg import LinAlgError, solve",
        "from numpy import linalg",
        "import numpy.linalg",
        "np.polynomial.legendre.leggauss(32)",
        "numpy.polynomial.Legendre.basis(3).roots()",
        "leggauss(32)",
        "from numpy.polynomial.legendre import leggauss",
        "from numpy.polynomial import legendre",
        "from numpy import polynomial",
        "import numpy.polynomial.legendre",
        "import numpy.polynomial as P",
    ]
    for source in sources:
        assert any(_reaches_numpy_blas(node) for node in ast.walk(ast.parse(source))), source
    clean = "from numpy.linalg import LinAlgError\nnp.sum(a * b, axis=-1)\na.sum(axis=1)\nnp.multiply(a, b, out=a)"
    assert not any(_reaches_numpy_blas(node) for node in ast.walk(ast.parse(clean)))


def _reaches_numpy_random(node) -> bool:
    """Whether node imports numpy.random or a name from it, or reads it as numpy's attribute random."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (module == "numpy" and any(a.name == "random" for a in node.names))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")


def test_only_states_draws_from_numpy_random():
    # random_states seeds its rows as default_rng does, a contract pinned against numpy in one place
    found = []
    for path in sorted(Path(spectrum.__file__).parent.glob("*.py")):
        if path.name != "states.py":
            found += [(path.name, n.lineno) for n in ast.walk(ast.parse(path.read_text())) if _reaches_numpy_random(n)]
    assert found == []


def test_the_random_guard_sees_each_way_to_reach_numpy_random():
    sources = [
        "np.random.default_rng(0)",
        "numpy.random.SeedSequence(0).pool",
        "rng = np.random.Generator(np.random.PCG64(0))",
        "from numpy.random import default_rng",
        "from numpy.random.bit_generator import SeedSequence",
        "from numpy import random",
        "import numpy.random",
        "import numpy.random as npr",
    ]
    for source in sources:
        assert any(_reaches_numpy_random(node) for node in ast.walk(ast.parse(source))), source
    clean = "import random\nrandom.random()\nrng.random(out=row)\nfrom numpy import sqrt"
    assert not any(_reaches_numpy_random(node) for node in ast.walk(ast.parse(clean)))


def test_spectrum_imports_scipy_on_first_use_only():
    # importing scipy.linalg and its OpenBLAS costs a command that makes no product or solve about
    # 0.25 s and 28 MB; spectrum imports it inside its cached accessor, never at import time
    tree = ast.parse(Path(spectrum.__file__).read_text())
    assert [node.lineno for node in _import_time_nodes(tree) if _reads_scipy(node)] == []
    inside = [node for node in ast.walk(tree) if isinstance(node, ast.Import) and _reads_scipy(node)]
    assert len(inside) == 1


def test_the_blas_guard_sees_each_way_to_reach_scipy_blas():
    sources = [
        "from scipy.linalg import blas",
        "from scipy.linalg import get_blas_funcs",
        "from scipy.linalg.blas import dsyrk",
        "import scipy.linalg.blas",
        "import scipy.linalg\nscipy.linalg.blas.dsyrk(1.0, a)",
        "from scipy.linalg import lapack",
        "from scipy.linalg import get_lapack_funcs",
        "from scipy.linalg.lapack import dsytrd",
        "import scipy.linalg.lapack",
        "import scipy.linalg\nscipy.linalg.lapack.dsytrd(a)",
        "from scipy.linalg import LinAlgError",
        "from scipy import linalg",
        "import scipy",
        "from .spectrum import _scipy_linalg",
        "from . import spectrum\nspectrum._scipy_linalg().lapack.dlantr('M', a)",
    ]
    for source in sources:
        assert any(_reads_scipy(node) for node in ast.walk(ast.parse(source))), source
    clean = "from numpy.linalg import LinAlgError\nfrom .spectrum import _lapack\n_lapack('dsytrd', a)"
    assert not any(_reads_scipy(node) for node in ast.walk(ast.parse(clean)))
    # a function's body does not run at import; a class body and a module-level branch do
    lazy = "def f():\n    import scipy.linalg\n    return scipy.linalg"
    assert not any(_reads_scipy(node) for node in _import_time_nodes(ast.parse(lazy)))
    for eager in ("class C:\n    import scipy.linalg", "if True:\n    from scipy.linalg import blas"):
        assert any(_reads_scipy(node) for node in _import_time_nodes(ast.parse(eager))), eager


@pytest.mark.parametrize("m, k", [(1, 1), (5, 1), (7, 33), (40, 129)])
def test_row_gram_is_the_product_symmetric_to_the_bit(m, k):
    rng = np.random.default_rng(m * k)
    f = rng.standard_normal((m, k))
    want = f @ f.T
    got = _row_gram(f.copy())
    assert got.shape == (m, m) and got.flags.c_contiguous
    assert np.array_equal(got, got.T)
    assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(f) @ np.abs(f).T))


def _layout(x, layout):
    """x as a C-ordered, an F-ordered or a strided array (the real part of a complex array, say)."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    if np.iscomplexobj(x):
        return np.stack([x, x], axis=-1)[..., 0]
    return (x + 1j).real


def _upper_and_full(n, kind, rng):
    """A C-ordered n x n s with only its upper triangle set (nan below), and the full S it stands for."""
    u = rng.standard_normal((n, n))
    if kind != "real":
        u = u + 1j * rng.standard_normal((n, n))
    if kind == "hermitian":
        u[np.diag_indices(n)] = u.diagonal().real
    upper = np.triu(u)
    strict = np.triu(u, 1)
    full = upper + (strict.conj().T if kind == "hermitian" else strict.T)
    s = np.where(np.tri(n, k=-1, dtype=bool), np.nan, upper)
    return np.ascontiguousarray(s), full


# the shape of v and the mode count n of the n x n S
SYMMETRIC_SHAPES = {
    "matrix": ((7, 5), 5),
    "one-row": ((1, 5), 5),
    "one-mode": ((7, 1), 1),
    "vector": ((5,), 5),
    "stack": ((2, 3, 5), 5),
    "empty": ((0, 5), 5),
}
SYMMETRIC_KINDS = ["real", "complex", "hermitian"]


def _symmetric_operands(shape, n, kind, layout):
    rng = np.random.default_rng(len(layout) + 7 * len(shape) + 31 * n + 101 * len(kind))
    s, full = _upper_and_full(n, kind, rng)
    v = rng.standard_normal(shape)
    if kind != "real":
        v = v + 1j * rng.standard_normal(shape)
    return _layout(v, layout), s, full


def _assert_is_the_full_product(got, v, full):
    want = v @ full
    assert got.shape == np.shape(want) and got.dtype == np.result_type(v, full)
    # nan below the diagonal of s would show here had the product read the lower triangle
    bound = 4 * max(full.shape[0], 1) * np.finfo(float).eps * (np.abs(v) @ np.abs(full))
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("kind", SYMMETRIC_KINDS)
@pytest.mark.parametrize("shapes", SYMMETRIC_SHAPES.values(), ids=SYMMETRIC_SHAPES.keys())
def test_symmetric_product_is_the_product_with_the_full_matrix(layout, kind, shapes):
    v, s, full = _symmetric_operands(*shapes, kind, layout)
    got = _symmetric_product(v, s, hermitian=kind == "hermitian")
    _assert_is_the_full_product(got, v, full)
    assert got.flags.c_contiguous


TWO_D_SHAPES = {name: shapes for name, shapes in SYMMETRIC_SHAPES.items() if len(shapes[0]) == 2}


@pytest.mark.parametrize("kind", SYMMETRIC_KINDS)
@pytest.mark.parametrize("shapes", TWO_D_SHAPES.values(), ids=TWO_D_SHAPES.keys())
def test_symmetric_product_writes_all_of_out_and_returns_it(kind, shapes):
    v, s, full = _symmetric_operands(*shapes, kind, "C")
    out = np.full(np.shape(v), np.nan, np.result_type(v, s))
    got = _symmetric_product(v, s, hermitian=kind == "hermitian", out=out)
    # beta is 0: the nan that out held is overwritten, never multiplied in
    assert got is out
    _assert_is_the_full_product(got, v, full)
