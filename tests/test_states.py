import math

import numpy as np
import pytest

from ggm.hilbert import SystemShape
from ggm.pure import ggm_pure
from ggm.states import (
    dicke,
    generalized_dicke,
    gghz,
    ghz,
    sector_state,
    superpose,
    uniform_sector_state,
    weight_k_indices,
    zeta,
)

SQ2 = math.sqrt(2)


class TestGhz:
    def test_three_qubits(self):
        psi = ghz(3)
        assert np.isclose(psi.amplitudes[0], 1 / SQ2)
        assert np.isclose(psi.amplitudes[7], 1 / SQ2)
        assert np.count_nonzero(psi.amplitudes) == 2

    def test_minus_sign(self):
        psi = ghz(2, sign=-1)
        assert np.isclose(psi.amplitudes[3], -1 / SQ2)

    def test_qutrit_embedding(self):
        psi = ghz(2, d=3)
        # |11> of two qutrits sits at index 1*3 + 1
        assert np.isclose(psi.amplitudes[4], 1 / SQ2)
        assert np.isclose(psi.amplitudes[0], 1 / SQ2)

    def test_five_qubit_value(self):
        assert abs(ggm_pure(ghz(5)).value - 0.5) < 1e-9


class TestGghz:
    def test_balanced_reduces_to_ghz(self):
        psi = gghz(3, 1 / SQ2)
        assert np.allclose(psi.amplitudes, ghz(3).amplitudes)

    def test_product_corner(self):
        psi = gghz(3, 1.0)
        assert abs(ggm_pure(psi).value) < 1e-12

    def test_alpha_055(self):
        # every split has Schmidt squares {a^2, 1-a^2}
        assert abs(ggm_pure(gghz(3, 0.55)).value - 0.3025) < 1e-9

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            gghz(3, 1.2)
        with pytest.raises(ValueError):
            gghz(3, -0.1)


class TestDicke:
    def test_w_state(self):
        psi = dicke(3, 1)
        assert np.isclose(psi.amplitudes[[1, 2, 4]], 1 / math.sqrt(3)).all()
        assert abs(ggm_pure(psi).value - 1 / 3) < 1e-9

    def test_zero_excitations_is_product(self):
        assert abs(ggm_pure(dicke(3, 0)).value) < 1e-12

    def test_five_two(self):
        # reduced spectrum of a uniform Dicke state across an s:(N-s) split
        # is hypergeometric: C(s,j) C(N-s,k-j) / C(N,k)
        def dicke_ggm(n, k):
            best = 0.0
            for s in range(1, n // 2 + 1):
                lams = [
                    math.comb(s, j) * math.comb(n - s, k - j) / math.comb(n, k)
                    for j in range(max(0, k - (n - s)), min(s, k) + 1)
                ]
                best = max(best, max(lams))
            return 1.0 - best

        assert abs(dicke_ggm(5, 2) - 0.4) < 1e-12
        assert abs(ggm_pure(dicke(5, 2)).value - 0.4) < 1e-9

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 2), (6, 2)])
    def test_excitation_hole_symmetry(self, n, k):
        # global bit flip is a local unitary
        a = ggm_pure(dicke(n, k)).value
        b = ggm_pure(dicke(n, n - k)).value
        assert abs(a - b) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dicke(3, 4)


class TestGeneralizedDicke:
    def test_uniform_reduces_to_dicke(self):
        n, k = 4, 2
        b = np.full(math.comb(n, k), 1 / math.sqrt(math.comb(n, k)))
        psi = generalized_dicke(n, k, b)
        assert np.allclose(psi.amplitudes, dicke(n, k).amplitudes)

    def test_single_term(self):
        psi = generalized_dicke(2, 1, np.array([1.0, 0.0]))
        assert np.isclose(psi.amplitudes[1], 1.0)  # |01>

    def test_lexicographic_addressing(self):
        # weight-1 bitstrings of 3 qubits in ascending value: 001, 010, 100
        assert weight_k_indices(3, 1) == [1, 2, 4]
        b = np.array([1.0, 1.0, SQ2]) / 2
        psi = generalized_dicke(3, 1, b)
        assert np.isclose(psi.amplitudes[4], SQ2 / 2)
        assert abs(ggm_pure(psi).value - 0.25) < 1e-9

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="coefficient norm"):
            generalized_dicke(3, 1, np.array([1.0, 1.0, 1.0]))

    def test_coefficient_count_and_range_enforced(self):
        with pytest.raises(ValueError, match="need 3 coefficients, got 2"):
            generalized_dicke(3, 1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="excitation count 4 out of range"):
            generalized_dicke(3, 4, np.array([1.0]))


class TestSectorState:
    def test_even_sector_three_qubits(self):
        psi = uniform_sector_state(SystemShape((2, 2, 2)), 2, 0)
        assert np.isclose(psi.amplitudes[[0, 3, 5, 6]], 0.5).all()
        assert np.isclose(psi.amplitudes[[1, 2, 4, 7]], 0.0).all()

    def test_qutrit_sector0(self):
        shape = SystemShape((3, 3, 3))
        psi = uniform_sector_state(shape, 3, 0)
        # |000>, |111>, |222> plus the six permutations of 012
        expected = {0, 13, 26} | {5, 7, 11, 15, 19, 21}
        support = set(np.flatnonzero(np.abs(psi.amplitudes) > 1e-12).tolist())
        assert support == expected
        assert np.isclose(psi.amplitudes[list(support)], 1 / 3).all()

    def test_qutrit_sector1(self):
        shape = SystemShape((3, 3, 3))
        psi = uniform_sector_state(shape, 3, 1)
        support = np.flatnonzero(np.abs(psi.amplitudes) > 1e-12)
        digits = [shape.digits_of(int(i)) for i in support]
        assert all(sum(d) % 3 == 1 for d in digits)
        assert {tuple(sorted(d)) for d in digits} == {(0, 0, 1), (0, 2, 2), (1, 1, 2)}
        assert np.isclose(psi.amplitudes[support], 1 / 3).all()

    def test_sectors_orthogonal(self):
        shape = SystemShape((3, 3, 3))
        states = [uniform_sector_state(shape, 3, k) for k in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.vdot(states[i].amplitudes, states[j].amplitudes)) < 1e-12

    def test_coefficients_fill_the_sector_in_index_order(self):
        # the even sector of 3 qubits is 000, 011, 101, 110
        shape = SystemShape((2, 2, 2))
        amps = np.zeros(8)
        amps[[0, 3]] = 1 / SQ2
        psi = sector_state(shape, 2, 0, np.array([1.0, 1.0, 0.0, 0.0]) / SQ2)
        assert np.allclose(psi.amplitudes, amps)

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError, match=r"sector \(mod 2, k=0\) has 4 basis states, "
                                             r"got 3 coefficients"):
            sector_state(SystemShape((2, 2, 2)), 2, 0, np.ones(3) / math.sqrt(3))

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="sector coefficient norm"):
            sector_state(SystemShape((2, 2, 2)), 2, 0, np.ones(4))

    def test_mixed_dims_modulus(self):
        # lcm rule: dims (2, 4) grade digit sums modulo 4
        shape = SystemShape((2, 4))
        psi = uniform_sector_state(shape, 4, 1)
        support = np.flatnonzero(np.abs(psi.amplitudes) > 1e-12)
        assert all(sum(shape.digits_of(int(i))) % 4 == 1 for i in support)


class TestZeta:
    def test_printed_amplitudes(self):
        z1 = zeta(1)
        assert np.isclose(z1.amplitudes[[1, 2, 7]], 0.5).all()
        assert np.isclose(z1.amplitudes[4], -0.5)
        z2 = zeta(2)
        assert np.isclose(z2.amplitudes[[0, 3]], -0.5j).all()
        assert np.isclose(z2.amplitudes[[4, 7]], 0.5).all()

    def test_orthonormal_basis(self):
        zs = [zeta(i) for i in range(1, 5)]
        gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in zs] for a in zs])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            zeta(5)


class TestSuperpose:
    def test_single_state(self):
        psi = superpose([ghz(3)], [1.0], [0.7])
        assert abs(abs(np.vdot(psi.amplitudes, ghz(3).amplitudes)) - 1.0) < 1e-12

    def test_ghz_w_wbar_combination(self):
        psi = superpose([ghz(3), dicke(3, 1), dicke(3, 2)], [0.2, 0.3, 0.5])
        assert np.isclose(psi.amplitudes[0], math.sqrt(0.1))
        assert np.isclose(psi.amplitudes[1], math.sqrt(0.3 / 3))
        assert np.isclose(psi.amplitudes[3], math.sqrt(0.5 / 3))

    def test_parity_sector_superposition(self):
        shape = SystemShape((2, 2, 2))
        even = uniform_sector_state(shape, 2, 0)
        odd = uniform_sector_state(shape, 2, 1)
        x = 0.3
        psi = superpose([even, odd], [x, 1 - x])
        assert np.isclose(psi.amplitudes[0], math.sqrt(x) / 2)
        assert np.isclose(psi.amplitudes[1], math.sqrt(1 - x) / 2)

    def test_phases_applied(self):
        psi = superpose([ghz(2), ghz(2, sign=-1)], [0.5, 0.5], [0.0, np.pi / 2])
        assert np.isclose(psi.amplitudes[0], (1 + 1j) / 2)

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            superpose([ghz(3), ghz(3)], [0.5, 0.5])

    def test_rejects_basis_states_of_different_shapes(self):
        with pytest.raises(ValueError, match="all basis states must share a shape"):
            superpose([ghz(3), ghz(4)], [0.5, 0.5])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            superpose([ghz(3), dicke(3, 1)], [0.5, 0.6])

    @pytest.mark.parametrize("weights, phases", [([np.nan, 0.5], None),
                                                 ([0.5, 0.5], [np.inf, 0.0])],
                             ids=["NaN weight", "infinite phase"])
    def test_rejects_non_finite_input(self, weights, phases):
        with pytest.raises(ValueError, match="weights|phases"):
            superpose([ghz(3), dicke(3, 1)], weights, phases)


class TestGhzMixtureRotation:
    def test_hadamard_maps_ghz_to_parity_sectors(self):
        # the same single-qubit rotation on every party sends GHZ+/- to the
        # uniform even/odd sector states exactly
        for n in (3, 4, 5):
            had = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2
            rot = np.ones((1, 1))
            for _ in range(n):
                rot = np.kron(rot, had)
            shape = SystemShape((2,) * n)
            even = uniform_sector_state(shape, 2, 0)
            odd = uniform_sector_state(shape, 2, 1)
            assert np.allclose(rot @ ghz(n).amplitudes, even.amplitudes, atol=1e-10)
            assert np.allclose(rot @ ghz(n, sign=-1).amplitudes, odd.amplitudes,
                               atol=1e-10)

    def test_unit_norm_everywhere(self):
        for psi in [ghz(4), gghz(4, 0.3), dicke(4, 2), zeta(3),
                    uniform_sector_state(SystemShape((3, 3)), 3, 2)]:
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-10
