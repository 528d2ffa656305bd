import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cartankit
from cartankit import matalg
from cartankit.errors import (
    NonSquareMatrix,
    NotAbelian,
    NotASubalgebra,
    NumericalRankAmbiguity,
    SeedOutsideAlgebra,
)
from cartankit.matalg import (
    RANK_TOL,
    block_structure,
    generate_star_algebra,
    hs_norm,
    ideal_generated_by,
    minimal_projections,
    null_space,
    operator_norm,
    rank,
    relative_commutant,
    row_span,
)
from conftest import E, subspace_equals
from test_stacked_kernel import ref_check_star_algebra


def full_matrix_algebra(n):
    return generate_star_algebra(
        n, [E(i, j, n) for i in range(n) for j in range(n)])


def diagonal_algebra(n):
    return generate_star_algebra(n, [E(i, i, n) for i in range(n)])


class TestGenerate:
    def test_scalars(self):
        A = generate_star_algebra(2, [np.eye(2)])
        assert A.dim == 1

    def test_matrix_unit_generates_m2(self):
        A = generate_star_algebra(2, [E(0, 1, 2)])
        assert A.dim == 4

    def test_selfadjoint_diag_generates_d2(self):
        A = generate_star_algebra(2, [np.diag([1.0, -1.0])])
        assert A.dim == 2
        assert A.is_abelian()

    def test_invariants_hold(self):
        A = generate_star_algebra(3, [E(0, 1, 3), E(1, 2, 3)])
        assert ref_check_star_algebra(A) == []


class TestRelativeCommutant:
    def test_diagonal_is_masa(self):
        M2 = full_matrix_algebra(2)
        D2 = diagonal_algebra(2)
        assert subspace_equals(relative_commutant(D2, M2), D2)

    def test_scalars_in_m2_plus_c(self):
        gens = [np.diag([0, 0, 1.0]), E(0, 1, 3), E(0, 0, 3)]
        A = generate_star_algebra(3, gens)
        scalars = generate_star_algebra(3, [np.eye(3)])
        assert subspace_equals(relative_commutant(scalars, A), A)

    def test_center_of_factor(self):
        M2 = full_matrix_algebra(2)
        c = relative_commutant(M2, M2)
        assert c.dim == 1

    def test_requires_containment(self):
        """A of another size is refused by the shape check; a same-size A
        outside the ambient algebra by the containment check."""
        M2 = full_matrix_algebra(2)
        with pytest.raises(NonSquareMatrix, match=re.escape(
                "expected a stack of (2,2) matrices, got shape (3, 3, 3)")):
            relative_commutant(diagonal_algebra(3), M2)
        with pytest.raises(NotASubalgebra, match="^A is not contained in "
                           "the ambient algebra$"):
            relative_commutant(M2, diagonal_algebra(2))

    def test_double_commutant(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            full = full_matrix_algebra(n)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A = generate_star_algebra(n, [g])
            back = relative_commutant(relative_commutant(A, full), full)
            assert subspace_equals(back, A, 1e-7)

    def test_commutant_basis_orthonormal(self):
        rng = np.random.default_rng(13)
        full = full_matrix_algebra(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = generate_star_algebra(4, [g @ g.conj().T])
        assert ref_check_star_algebra(relative_commutant(A, full)) == []


class TestBlockStructure:
    def test_m2(self):
        assert block_structure(full_matrix_algebra(2)) == (2,)

    def test_d3(self):
        assert block_structure(diagonal_algebra(3)) == (1, 1, 1)

    def test_m2_plus_c(self):
        gens = [E(0, 1, 3), E(0, 0, 3), np.diag([0, 0, 1.0])]
        assert block_structure(generate_star_algebra(3, gens)) == (1, 2)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        gens = [E(0, 1, 4), np.diag([0, 0, 1.0, 2.0])]
        A = generate_star_algebra(4, gens)
        B = generate_star_algebra(4, [u @ m @ u.conj().T for m in gens])
        assert block_structure(A) == block_structure(B)


class TestMinimalProjections:
    def test_d2(self):
        projs = minimal_projections(diagonal_algebra(2))
        assert len(projs) == 2
        total = sum(projs)
        assert hs_norm(total - np.eye(2)) < 1e-9

    def test_scalars(self):
        A = generate_star_algebra(2, [np.eye(2)])
        projs = minimal_projections(A)
        assert len(projs) == 1
        assert hs_norm(projs[0] - np.eye(2)) < 1e-9

    def test_orthogonality(self):
        projs = minimal_projections(diagonal_algebra(3))
        for i, p in enumerate(projs):
            for j, q in enumerate(projs):
                want = p if i == j else 0.0 * p
                assert np.max(np.abs(p @ q - want)) < 1e-10

    def test_rejects_nonabelian(self):
        with pytest.raises(NotAbelian):
            minimal_projections(full_matrix_algebra(2))

    def test_deterministic_order(self):
        a = minimal_projections(diagonal_algebra(3))
        b = minimal_projections(diagonal_algebra(3))
        for p, q in zip(a, b):
            assert hs_norm(p - q) < 1e-12

    def test_projections_missing_the_unit_raise(self, monkeypatch):
        # two copies of one eigenvector: each cluster passes the membership
        # test, but the projections sum to 2 E_00 instead of the unit
        D2 = diagonal_algebra(2)

        def eigh(h):
            return np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 0.0]],
                                                  dtype=complex)

        monkeypatch.setattr(matalg.np.linalg, "eigh", eigh)
        with pytest.raises(NumericalRankAmbiguity):
            minimal_projections(D2)


class TestOperatorNorm:
    def test_identity(self):
        assert abs(operator_norm(np.eye(2)) - 1.0) < 1e-12

    def test_matrix_unit(self):
        assert abs(operator_norm(E(0, 1, 2)) - 1.0) < 1e-12

    def test_diagonal(self):
        assert abs(operator_norm(np.diag([3.0, -4.0])) - 4.0) < 1e-12


class TestIdeals:
    def test_simple_algebra(self):
        M2 = full_matrix_algebra(2)
        J = ideal_generated_by(M2, [E(0, 0, 2)])
        assert J.dim == 4

    def test_central_summand(self):
        gens = [E(0, 1, 3), E(0, 0, 3), np.diag([0, 0, 1.0])]
        A = generate_star_algebra(3, gens)
        J = ideal_generated_by(A, [np.diag([0, 0, 1.0])])
        assert J.dim == 1
        assert hs_norm(J.support_projection - np.diag([0, 0, 1.0])) < 1e-8

    def test_zero_ideal(self):
        D2 = diagonal_algebra(2)
        J = ideal_generated_by(D2, [])
        assert J.dim == 0

    def test_seed_outside(self):
        D2 = diagonal_algebra(2)
        with pytest.raises(SeedOutsideAlgebra):
            ideal_generated_by(D2, [E(0, 1, 2)])

    def test_ideal_invariants(self):
        gens = [E(0, 1, 3), E(0, 0, 3), np.diag([0, 0, 1.0])]
        A = generate_star_algebra(3, gens)
        J = ideal_generated_by(A, [E(0, 1, 3)])
        for b in A.basis:
            for m in J.basis:
                assert J.contains(b @ m) and J.contains(m @ b)

    @pytest.mark.parametrize("which", ["algebra", "zero ideal", "ideal"])
    def test_contains_checks_the_ambient_shape(self, which):
        """A 3 x 3 matrix asked of M_2 is refused as a typed error, by the
        algebra, its zero ideal and a nonzero ideal alike."""
        M2 = full_matrix_algebra(2)
        space = {"algebra": M2,
                 "zero ideal": ideal_generated_by(M2, []),
                 "ideal": ideal_generated_by(M2, [E(0, 0, 2)])}[which]
        assert space.contains(E(0, 0, 2)) == (which != "zero ideal")
        with pytest.raises(NonSquareMatrix):
            space.contains(np.eye(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_random_generators_close(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(k)]
    A = generate_star_algebra(n, gens)
    assert ref_check_star_algebra(A, 1e-9) == []


# --- the rank kernel against a full-SVD reference recipe ----------------

def _reference_cut(s):
    return 1e-8 * (max(s[0], 1.0) if len(s) else 1.0)


def _reference_null_space(K):
    """Full SVD, singular values padded with zeros, cut at 1e-8 * scale."""
    u, s, vh = np.linalg.svd(K)
    mask = np.concatenate([s, np.zeros(vh.shape[0] - len(s))]) \
        <= _reference_cut(s)
    return vh[mask].conj()


def _reference_row_span(K):
    u, s, vh = np.linalg.svd(K, full_matrices=False)
    return vh[s > _reference_cut(s)]


def _complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


KERNEL_CASES = {
    "tall": lambda rng: _complex(rng, 12, 5),
    "wide": lambda rng: _complex(rng, 4, 9),
    "square": lambda rng: _complex(rng, 6, 6),
    "tall_deficient": lambda rng: _complex(rng, 10, 3) @ _complex(rng, 3, 7),
    "wide_deficient": lambda rng: _complex(rng, 4, 2) @ _complex(rng, 2, 8),
    "large_deficient": lambda rng:
        1e3 * _complex(rng, 9, 4) @ _complex(rng, 4, 6),
    "zero": lambda rng: np.zeros((5, 4), dtype=complex),
}


def _projector(rows):
    """Orthogonal projector onto the span of the rows read as columns."""
    return rows.T @ rows.conj()


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
class TestRankKernel:
    def _matrix(self, case):
        seed = sorted(KERNEL_CASES).index(case) + 101
        return KERNEL_CASES[case](np.random.default_rng(seed))

    def test_dimensions_match_reference(self, case):
        K = self._matrix(case)
        ref_null = _reference_null_space(K)
        ref_span = _reference_row_span(K)
        assert null_space(K).shape == ref_null.shape
        assert row_span(K).shape == ref_span.shape
        assert rank(K) == ref_span.shape[0] == K.shape[1] - ref_null.shape[0]

    def test_subspaces_match_reference(self, case):
        K = self._matrix(case)
        n = K.shape[1]
        N, S = null_space(K), row_span(K)
        assert np.abs(_projector(N) - _projector(_reference_null_space(K))
                      ).max() < 1e-10
        assert np.abs(_projector(S) - _projector(_reference_row_span(K))
                      ).max() < 1e-10
        # the null space is the orthogonal complement of the conjugate
        # row span
        assert np.abs(_projector(N.conj()) + _projector(S) - np.eye(n)
                      ).max() < 1e-10

    def test_rows_orthonormal_and_null(self, case):
        K = self._matrix(case)
        N, S = null_space(K), row_span(K)
        for rows in (N, S):
            assert np.abs(rows @ rows.conj().T - np.eye(rows.shape[0])
                          ).max(initial=0.0) < 1e-10
        s_max = np.linalg.norm(K, 2) if K.size else 0.0
        if N.shape[0]:
            assert np.linalg.norm(K @ N.T, 2) <= RANK_TOL * max(s_max, 1.0)


#: numpy calls that factor a matrix or decide a rank on their own: the
#: package has one rank path, the SVDs of matalg's kernel.
OTHER_RANK_PATHS = {"qr", "lstsq", "pinv", "matrix_rank"}


def test_svd_only_in_rank_kernel():
    """Every rank decision in the package goes through matalg's kernel."""
    kernel = {"row_span", "null_space", "rank"}
    bad = []
    for path in sorted(Path(cartankit.__file__).parent.glob("*.py")):
        source = path.read_text()
        if "full_matrices=True" in source:
            bad.append(f"{path.name}: full_matrices=True")
        tree = ast.parse(source)
        owner = {}  # node -> innermost enclosing function name
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name == "svd":
                bad.append(f"{path.name}:{node.lineno}: svd imported")
            if isinstance(node, ast.Attribute) and node.attr == "svd":
                where = owner.get(node, "<module>")
                if path.name != "matalg.py" or where not in kernel:
                    bad.append(f"{path.name}:{node.lineno}: svd in {where}")
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.name if isinstance(node, ast.alias) else None
            if name in OTHER_RANK_PATHS:
                where = owner.get(node, "<module>")
                bad.append(f"{path.name}:{node.lineno}: {name} in {where}")
    assert bad == [], bad


@pytest.mark.parametrize("call", sorted(OTHER_RANK_PATHS))
def test_rank_guard_flags_other_factorizations(call, tmp_path, monkeypatch):
    """The guard above sees each of the other numpy rank paths, called as
    an attribute or imported by name."""
    pkg = tmp_path / "cartankit"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        f"import numpy as np\n\ndef f(x):\n    return np.linalg.{call}(x)\n")
    (pkg / "b.py").write_text(f"from numpy.linalg import {call}\n")
    monkeypatch.setattr(cartankit, "__file__", str(pkg / "__init__.py"))
    with pytest.raises(AssertionError) as info:
        test_svd_only_in_rank_kernel()
    assert f"a.py:4: {call} in f" in str(info.value)
    assert f"b.py:1: {call} in <module>" in str(info.value)
