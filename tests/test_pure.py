import math

import numpy as np
import pytest

from ggm.hilbert import Bipartition, PureState, SystemShape, enumerate_bipartitions
from ggm.pure import ggm_pure, ggm_values, max_schmidt_sq
from ggm.states import dicke, ghz, uniform_sector_state


def random_state(rng, dims):
    shape = SystemShape(tuple(dims))
    amps = rng.standard_normal(shape.total_dim) + 1j * rng.standard_normal(shape.total_dim)
    return PureState(shape, amps / np.linalg.norm(amps))


def random_local_unitary(rng, dims):
    full = np.ones((1, 1), dtype=complex)
    for d in dims:
        gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(gauss)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        full = np.kron(full, q)
    return full


class TestMaxSchmidtSq:
    def test_bell(self):
        shape = SystemShape((2, 2))
        bell = PureState(shape, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert abs(max_schmidt_sq(bell, Bipartition(shape, (0,))) - 0.5) < 1e-12

    def test_product(self):
        shape = SystemShape((2, 2, 2))
        basis0 = np.zeros(8)
        basis0[0] = 1.0
        psi = PureState(shape, basis0)
        for cut in enumerate_bipartitions(shape):
            assert abs(max_schmidt_sq(psi, cut) - 1.0) < 1e-12

    def test_w_state_single_party_cut(self):
        shape = SystemShape((2, 2, 2))
        val = max_schmidt_sq(dicke(3, 1), Bipartition(shape, (0,)))
        assert abs(val - 2 / 3) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_schmidt_sq(dicke(3, 1), Bipartition(SystemShape((2, 2)), (0,)))


class TestGgmPure:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_ghz_all_cuts_tie(self, n):
        report = ggm_pure(ghz(n))
        assert abs(report.value - 0.5) < 1e-9
        assert len(report.maximizing_cuts) == 2 ** (n - 1) - 1

    def test_w3(self):
        report = ggm_pure(dicke(3, 1))
        assert abs(report.value - 1 / 3) < 1e-9
        # all three splits are equivalent for a symmetric 3-qubit state,
        # with top Schmidt square 2/3 on the single-party side
        assert {c.side_I for c in report.maximizing_cuts} == {(0,), (0, 1), (0, 2)}

    def test_qutrit_sector0(self):
        psi = uniform_sector_state(SystemShape((3, 3, 3)), 3, 0)
        assert abs(ggm_pure(psi).value - 2 / 3) < 1e-9

    def test_value_consistency(self):
        report = ggm_pure(dicke(5, 2))
        assert report.value == 1.0 - report.lambda_sq_max
        assert abs(report.lambda_sq_max - max(report.per_cut.values())) < 1e-15
        assert len(report.per_cut) == 15

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 3, 3)])
    def test_local_unitary_invariance(self, dims):
        rng = np.random.default_rng(23)
        for _ in range(4):
            psi = random_state(rng, dims)
            rotated = PureState(psi.shape, random_local_unitary(rng, dims) @ psi.amplitudes)
            assert abs(ggm_pure(rotated).value - ggm_pure(psi).value) < 1e-9

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (2, 2, 2, 2)])
    def test_cut_bounds(self, dims):
        rng = np.random.default_rng(5)
        psi = random_state(rng, dims)
        report = ggm_pure(psi)
        assert report.value <= 1.0 - 1.0 / min(dims) + 1e-9
        for cut, val in report.per_cut.items():
            assert 1.0 / min(cut.dim_I, cut.dim_L) - 1e-9 <= val <= 1.0

    def test_party_permutation_invariance(self):
        rng = np.random.default_rng(31)
        dims = (2, 3, 2, 2)
        psi = random_state(rng, dims)
        perm = (2, 0, 3, 1)
        permuted_dims = tuple(dims[p] for p in perm)
        tensor = psi.amplitudes.reshape(dims).transpose(perm)
        permuted = PureState(SystemShape(permuted_dims), tensor.reshape(-1))
        assert abs(ggm_pure(permuted).value - ggm_pure(psi).value) < 1e-9

    def test_zero_iff_product_across_some_cut(self):
        rng = np.random.default_rng(13)
        # product of a Bell pair with a third qubit: zero across one cut only
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        single /= np.linalg.norm(single)
        psi = PureState(SystemShape((2, 2, 2)), np.kron(bell, single))
        report = ggm_pure(psi)
        assert report.value < 1e-9
        assert max(report.per_cut.values()) >= 1.0 - 1e-9

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        shape = SystemShape((2, 2, 3))
        states = [random_state(rng, shape.dims) for _ in range(6)]
        batch = ggm_values(np.stack([s.amplitudes for s in states]), shape)
        singles = [ggm_pure(s).value for s in states]
        assert np.allclose(batch, singles, atol=1e-12)


class TestBatchedEigmaxPrecision:
    def test_analytic_2x2_matches_lapack(self):
        # the batched path uses a closed form for 2x2 Grams; it must meet
        # the 1e-10 relative accuracy contract on Schmidt squares
        from ggm._batch import _eigmax_herm

        rng = np.random.default_rng(0)
        gauss = rng.standard_normal((5000, 2, 2)) + 1j * rng.standard_normal((5000, 2, 2))
        mats = gauss @ gauss.conj().transpose(0, 2, 1)
        mats[:1000] = np.eye(2)[None] + 1e-14 * mats[:1000]  # near-degenerate
        # packed: the real diagonal, then the entry above it
        packed = np.stack([mats[:, 0, 0].real, mats[:, 1, 1].real,
                           mats[:, 0, 1].real, mats[:, 0, 1].imag], axis=-1)
        analytic = _eigmax_herm(packed)
        lapack = np.linalg.eigvalsh(mats)[:, -1]
        rel = np.max(np.abs(analytic - lapack) / np.abs(lapack))
        assert rel < 1e-12
