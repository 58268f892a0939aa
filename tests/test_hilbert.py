import itertools
import math

import numpy as np
import pytest

from ggm.hilbert import (
    Bipartition,
    DensityMatrix,
    PureState,
    SystemShape,
    enumerate_bipartitions,
    matricize,
)


def random_state(rng, dims):
    shape = SystemShape(tuple(dims))
    amps = rng.standard_normal(shape.total_dim) + 1j * rng.standard_normal(shape.total_dim)
    return PureState(shape, amps / np.linalg.norm(amps))


class TestSystemShape:
    def test_basic(self):
        shape = SystemShape((2, 3, 2))
        assert shape.party_count == 3
        assert shape.total_dim == 12

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            SystemShape((2, 1))
        with pytest.raises(ValueError):
            SystemShape((3,))

    @pytest.mark.parametrize("bad, shown", [(2.5, "2.5"), (True, "True"), ("2", "'2'"),
                                            (float("nan"), "nan"), (None, "None")])
    def test_rejects_non_integral_dims(self, bad, shown):
        # truncating would read (2, 2.5) as (2, 2)
        with pytest.raises(ValueError, match=f"local dimensions must be integers, got {shown}"):
            SystemShape((2, bad))

    def test_keeps_integral_values(self):
        shape = SystemShape((2.0, np.int64(3), np.float64(4)))
        assert shape.dims == (2, 3, 4) and all(type(d) is int for d in shape.dims)

    def test_index_roundtrip(self):
        shape = SystemShape((2, 3, 4))
        for i in range(shape.total_dim):
            assert shape.index_of(shape.digits_of(i)) == i

    def test_party0_most_significant(self):
        shape = SystemShape((2, 2, 2))
        assert shape.index_of((1, 0, 0)) == 4
        assert shape.index_of((0, 0, 1)) == 1


class TestPureState:
    def test_norm_enforced(self):
        shape = SystemShape((2, 2))
        with pytest.raises(ValueError):
            PureState(shape, np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        # NaN > tol is False, so the norm check must pass only within tol
        with pytest.raises(ValueError, match="state norm"):
            PureState(SystemShape((2, 2)), np.array([bad, 0.0, 0.0, 0.0]))

    def test_immutable(self):
        shape = SystemShape((2, 2))
        psi = PureState(shape, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_valid_mixture(self):
        shape = SystemShape((2, 2))
        rho = DensityMatrix(shape, np.eye(4) / 4)
        assert rho.rank() == 4

    def test_rejects_non_hermitian(self):
        shape = SystemShape((2, 2))
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(shape, mat)

    def test_rejects_negative_eigenvalue(self):
        shape = SystemShape((2, 2))
        mat = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(shape, mat)

    def test_rejects_bad_trace(self):
        shape = SystemShape((2, 2))
        with pytest.raises(ValueError):
            DensityMatrix(shape, np.eye(4, dtype=complex) / 2)


class TestBipartition:
    def test_canonicalization_takes_complement(self):
        shape = SystemShape((2, 2, 2))
        cut = Bipartition(shape, (1, 2))
        assert cut.side_I == (0,)
        assert cut.side_L == (1, 2)

    def test_rejects_trivial_sides(self):
        shape = SystemShape((2, 2))
        with pytest.raises(ValueError):
            Bipartition(shape, ())
        with pytest.raises(ValueError):
            Bipartition(shape, (0, 1))

    def test_dims(self):
        shape = SystemShape((2, 3, 4))
        cut = Bipartition(shape, (0, 2))
        assert cut.dim_I == 8
        assert cut.dim_L == 3


class TestEnumerateBipartitions:
    def test_two_parties(self):
        cuts = enumerate_bipartitions(SystemShape((2, 2)))
        assert [c.side_I for c in cuts] == [(0,)]

    def test_three_parties(self):
        cuts = enumerate_bipartitions(SystemShape((2, 2, 2)))
        assert {c.side_I for c in cuts} == {(0,), (0, 1), (0, 2)}

    @pytest.mark.parametrize("n", range(2, 11))
    def test_count_matches_subset_enumeration(self, n):
        # independent oracle: count subsets of {0..n-1} containing 0,
        # excluding the full set
        expected = sum(
            1 for r in range(1, n)
            for combo in itertools.combinations(range(1, n), r - 1)
        )
        assert expected == 2 ** (n - 1) - 1
        cuts = enumerate_bipartitions(SystemShape((2,) * n))
        assert len(cuts) == expected
        assert len({c.side_I for c in cuts}) == expected
        assert all(0 in c.side_I for c in cuts)


class TestMatricize:
    def test_basis_state(self):
        shape = SystemShape((2, 2))
        psi = PureState(shape, np.array([1.0, 0.0, 0.0, 0.0]))
        mat = matricize(psi, Bipartition(shape, (0,)))
        assert np.array_equal(mat, np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_bell_state(self):
        shape = SystemShape((2, 2))
        psi = PureState(shape, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
        mat = matricize(psi, Bipartition(shape, (0,)))
        assert np.allclose(mat, np.diag([1.0, 1.0]) / math.sqrt(2))

    def test_ghz3_nonadjacent_cut(self):
        # direct index bookkeeping: |000> lands at (row 0_0 0_2, col 0_1) and
        # |111> at (row 1_0 1_2, col 1_1)
        shape = SystemShape((2, 2, 2))
        amps = np.zeros(8)
        amps[[0, 7]] = 1 / math.sqrt(2)
        psi = PureState(shape, amps)
        mat = matricize(psi, Bipartition(shape, (0, 2)))
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[3, 1] = 1 / math.sqrt(2)
        assert np.array_equal(mat, expected)

    def test_shape_mismatch_rejected(self):
        psi = PureState(SystemShape((2, 2)), np.array([1.0, 0, 0, 0]))
        cut = Bipartition(SystemShape((2, 2, 2)), (0,))
        with pytest.raises(ValueError):
            matricize(psi, cut)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 3, 3), (2, 2, 2, 2)])
    def test_roundtrip_exact(self, dims):
        rng = np.random.default_rng(11)
        psi = random_state(rng, dims)
        for cut in enumerate_bipartitions(psi.shape):
            mat = matricize(psi, cut)
            # entry (r, c) holds the amplitude whose side-I digits encode r
            # and side-L digits encode c, row-major in ascending party order
            back = np.empty_like(psi.amplitudes)
            for i in range(psi.shape.total_dim):
                digits = psi.shape.digits_of(i)
                r, c = (np.ravel_multi_index([digits[p] for p in side], [dims[p] for p in side])
                        for side in (cut.side_I, cut.side_L))
                back[i] = mat[r, c]
            assert np.array_equal(back, psi.amplitudes)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 2, 2, 3)])
    def test_singular_values_sum_to_one(self, dims):
        rng = np.random.default_rng(7)
        for _ in range(5):
            psi = random_state(rng, dims)
            for cut in enumerate_bipartitions(psi.shape):
                mat = matricize(psi, cut)
                assert abs(np.linalg.norm(mat) - 1.0) < 1e-10
                sv = np.linalg.svd(mat, compute_uv=False)
                assert abs(np.sum(sv**2) - 1.0) < 1e-9
