"""Dense kernel: QR sign convention, Kronecker, guarded solves, the LAPACK owner."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import linalg
from glmstab.errors import RankDeficient, Singular
from test_qr_trail import householder_qr


def _well_conditioned(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 3.0 * np.eye(n)


def test_qr_positive_reconstructs():
    m = _well_conditioned(0, 5)
    q, r = linalg.qr_positive(m)
    assert np.allclose(q @ r, m, atol=1e-13)
    assert np.allclose(q.T @ q, np.eye(5), atol=1e-13)


def test_qr_positive_diagonal_sign():
    # flip a column so plain numpy QR would produce a negative diagonal entry
    m = _well_conditioned(1, 4)
    m[:, 2] *= -1.0
    q, r = linalg.qr_positive(m)
    assert np.all(np.diag(r) > 0.0)
    # R stays upper triangular after the sign fix
    assert np.allclose(np.tril(r, k=-1), 0.0, atol=1e-14)


def test_qr_positive_rank_deficient():
    m = np.ones((3, 3))
    with pytest.raises(RankDeficient):
        linalg.qr_positive(m)
    with pytest.raises(RankDeficient):
        linalg.qr_positive(np.zeros((2, 2)))
    with pytest.raises(RankDeficient):
        linalg.qr_positive(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(RankDeficient):
        linalg.qr_positive(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_qr_positive_properties(seed, n):
    m = _well_conditioned(seed, n)
    q, r = linalg.qr_positive(m)
    assert np.allclose(q @ r, m, atol=1e-12)
    assert np.allclose(q.T @ q, np.eye(n), atol=1e-12)
    assert np.min(np.diag(r)) > 0.0


def reference_rank_guard(ms, diags):
    """The rank guard as first written, per matrix over its own short rows."""
    ok = np.min(np.abs(diags), -1) > linalg.RANK_TOL * np.max(np.abs(ms), (-2, -1))
    return len(ok) if ok.all() else int(np.argmin(ok))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 1100), rows=st.integers(1, 6),
       data=st.data(), grade=st.sampled_from([0.0, 20.0, 150.0]),
       special_frac=st.sampled_from([0.0, 1e-4, 0.01, 0.3]))
def test_rank_guard_matches_per_matrix_formula(seed, k, rows, data, grade, special_frac):
    cols = data.draw(st.integers(1, rows), label="cols")
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-grade, grade, (k, 1, cols))
    ms = rng.standard_normal((k, rows, cols)) * scale
    hit = rng.random(ms.shape) < special_frac
    ms[hit] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], int(hit.sum()))
    with np.errstate(all="ignore"):      # inf * 0 and the QR of NaN-free stand-ins
        ms[rng.integers(k)] *= data.draw(st.sampled_from([1.0, 0.0, 1e-300]), label="one")
        r = np.linalg.qr(np.nan_to_num(ms, nan=1.0, posinf=1.0, neginf=1.0), mode="r")
    diags = r.diagonal(0, 1, 2) * data.draw(st.sampled_from([1.0, 1e-16]), label="shrink")
    diags = np.where(np.isfinite(ms).all(axis=(1, 2))[:, None], diags, np.nan)
    # qr_chain's layout: the diagonals strided out of a C-ordered (rows, k, cols) block
    block = np.zeros((cols, k, cols))
    block[np.arange(cols), :, np.arange(cols)] = diags.T
    for d in (diags, block.diagonal(0, 0, 2)):
        want = reference_rank_guard(ms, d)
        assert linalg.rank_guard(ms, d) == want
        assert linalg.rank_guard(ms[:1], d[:1]) == reference_rank_guard(ms[:1], d[:1])
        assert linalg.rank_guard(ms[:0], d[:0]) == 0
    # qr_positive's call: one matrix, the diagonal of LAPACK's Fortran-ordered factor
    m = ms[want if want < k else 0]
    if np.isfinite(m).all():
        packed, _ = householder_qr(m)
        diag = packed.diagonal()
        assert (linalg.rank_guard(m[np.newaxis], diag[np.newaxis])
                == reference_rank_guard(m[np.newaxis], diag[np.newaxis]))


def test_kron_oracle():
    # the GLM blocks U (x) I_d, V (x) I_d... are np.kron of float tableau matrices
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = np.kron(a, np.eye(2))
    want = np.array([
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 1.0, 0.0, 2.0],
        [3.0, 0.0, 4.0, 0.0],
        [0.0, 3.0, 0.0, 4.0],
    ])
    assert np.array_equal(out, want)


def test_solve_oracle():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = linalg.solve(a, np.array([3.0, 4.0]))
    assert np.allclose(a @ x, [3.0, 4.0], atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), nrhs=st.integers(0, 3),
       shift=st.sampled_from([0.0, 1e-3, 3.0]))
def test_solve_matches_scipy_lu_bits(seed, n, nrhs, shift):
    # the scipy.linalg.lu_factor + lu_solve pair the direct LAPACK calls replace
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + shift * np.eye(n)
    rhs = rng.standard_normal((n, nrhs) if nrhs else n)
    want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a, check_finite=False), rhs,
                                 check_finite=False)
    got = linalg.solve(a, rhs)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), data=st.data(),
       grade=st.floats(0.0, 20.0))
def test_dot_matches_matmul_bits(seed, n, data, grade):
    # the serial loops step through ndarray.dot(b, out), a C method that no numpy
    # dispatcher wraps; on the shapes and memory orders they use, it must make the same
    # BLAS call as np.dot and np.matmul
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)

    def graded(*shape):
        return rng.standard_normal(shape) * np.exp(rng.uniform(-grade, grade, shape[-1]))

    phi = graded(n, n)
    # run_linear: a C-ordered kd x kd transition times a state row, into the next row
    states = np.stack([graded(n), np.zeros(n)])
    want = np.matmul(phi, states[0])
    phi.dot(states[0], states[1])
    assert np.array_equal(states[1], want)
    assert np.array_equal(np.dot(phi, states[0]), want)
    # qr_advance_series: a transition times the frame, F-ordered as dorgqr returns it
    # (C-ordered at a trail's start), into a row of the block buffer
    _, q = householder_qr(graded(n, k))
    ms = np.zeros((2, n, k))
    for frame in (q, np.ascontiguousarray(q)):
        want = np.matmul(phi, frame)
        np.ndarray.dot(phi, frame, ms[1])
        assert np.array_equal(ms[1], want)
        assert np.array_equal(np.dot(phi, frame), want)
    # a transposed view times a matrix, and C times C
    a = graded(n, n)
    assert np.array_equal(np.dot(phi.T, a), np.matmul(phi.T, a))
    assert np.array_equal(np.dot(phi, a), np.matmul(phi, a))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_oracle_rate_products_match_matmul_bits(d):
    # continuous_qr_oracle's rate: its frame, a C copy of LAPACK's Q in a row of the
    # node stack or the stage buffer, through its transpose view, into C-ordered rows
    # of the work buffer
    rng = np.random.default_rng(d)
    frames = np.empty((2, d, d))
    qta, w, skew, out = np.empty((4, d, d))
    for _ in range(200):
        m = rng.standard_normal((d, d)) * np.exp(rng.uniform(-20.0, 20.0, d))
        _, frames[1] = householder_qr(m)
        qm = frames[1]
        a = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        want = np.matmul(np.matmul(qm.T, a), qm)
        assert np.array_equal(qm.T.dot(a, qta).dot(qm, w), want)
        assert np.array_equal(w, np.dot(np.dot(qm.T, a), qm))
        np.subtract(np.tril(w, -1), np.tril(w, -1).T, skew)
        qm.dot(skew, out)
        assert np.array_equal(out, np.matmul(qm, skew))
        assert np.array_equal(out, np.dot(qm, skew))


@pytest.mark.filterwarnings("error")
def test_solve_singular():
    with pytest.raises(Singular):
        linalg.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.array([[1.0, 2.0], [3.0, np.nan]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.array([[1.0, -np.inf], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.diag([np.inf, np.inf]), np.ones(2))


def test_only_linalg_imports_scipy():
    # linalg owns LAPACK: every other module reaches scipy through it and neither
    # imports, names nor calls a LAPACK routine; the package __init__ imports nothing
    routines = {"dgeqrf", "dorgqr", "dgetrf", "dgetrs"}
    importers, package_imports, binders = set(), [], set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if path.name == "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                package_imports.append(ast.unparse(node))
            if ({getattr(node, attr, None) for attr in ("name", "asname", "id", "attr")}
                    & routines):
                binders.add(path.name)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.add(path.name)
    assert importers == {"linalg.py"}
    assert package_imports == []
    assert binders == {"linalg.py"}


def test_bare_package_import_loads_nothing():
    # the submodules are the one way in: `import glmstab` loads none of them, nor
    # numpy or scipy
    src = str(Path(linalg.__file__).parents[1])
    code = ("import sys, glmstab; print(sorted(m for m in ('glmstab.glm', 'numpy', "
            "'scipy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_run_leaves_scipy_linalg_unimported(tmp_path):
    # linalg loads scipy's compiled LAPACK module from its file: a whole CLI run
    # imports neither the scipy.linalg package nor numpy.f2py, which it pulls in;
    # nor dataclasses or numpy.polynomial, which no command needs
    src = str(Path(linalg.__file__).parents[1])
    unused = ("scipy.linalg", "numpy.f2py", "dataclasses", "numpy.polynomial")
    code = ("import sys; from glmstab import cli; "
            f"assert cli.main(['counterexample', '--out', {str(tmp_path)!r}]) == 0; "
            f"print(sorted(m for m in {unused!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_lapack_routines_match_scipy_linalg_lapack():
    # the four routines give scipy.linalg.lapack's bytes, on square and tall inputs
    rng = np.random.default_rng(21)
    for shape in [(1, 1), (2, 2), (4, 4), (7, 3), (12, 12)] * 4:
        m = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9)
        for ours, theirs in ((linalg.dgeqrf, scipy.linalg.lapack.dgeqrf),
                             (linalg.dgetrf, scipy.linalg.lapack.dgetrf)):
            got, want = ours(m), theirs(m)
            assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes()
                                                            for w in want]
        packed, tau, _, _ = linalg.dgeqrf(m)
        assert (linalg.dorgqr(packed, tau)[0].tobytes()
                == scipy.linalg.lapack.dorgqr(packed, tau)[0].tobytes())
        if shape[0] == shape[1]:
            lu, piv, _ = linalg.dgetrf(m)
            rhs = rng.standard_normal(shape[0])
            assert (linalg.dgetrs(lu, piv, rhs)[0].tobytes()
                    == scipy.linalg.lapack.dgetrs(lu, piv, rhs)[0].tobytes())


def test_lapack_falls_back_to_scipy_linalg_lapack():
    # with no compiled _flapack file found, the routines come from scipy.linalg.lapack
    src = str(Path(linalg.__file__).parents[1])
    code = ("import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES.clear(); "
            "from glmstab import linalg; import scipy.linalg.lapack as lapack; "
            "print(linalg._LAPACK.__name__, all(getattr(linalg, n) is getattr(lapack, n) "
            "for n in ('dgeqrf', 'dorgqr', 'dgetrf', 'dgetrs')), "
            "linalg.solve([[2.0]], [4.0]))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["scipy.linalg.lapack", "True", "[2.]"]
