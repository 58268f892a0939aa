import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ggm.twirl
from ggm import FAMILY_BUILDERS, hilbert, rank3_ghz_dicke
from ggm.families import ghz_mixture
from ggm.hilbert import DensityMatrix, PureState, SystemShape
from ggm.states import dicke, ghz, superpose, uniform_sector_state
from ggm.twirl import (
    GROUP_KINDS,
    GROUP_TOL,
    LocalUnitaryElement,
    UnitaryGroup,
    VerificationError,
    _equal_up_to_phase,
    _factors_equal_up_to_phase,
    _moved,
    _moved_r,
    _twirl_residuals,
    _verify_family,
    builtin_group,
    verify_invariance,
    verify_mixture_invariance,
    verify_preimage,
)
from helpers import dense_twirl, kron_all

QUBITS3 = SystemShape((2, 2, 2))
SIGMA_Z = np.diag([1.0, -1.0])


def sector_projector_cross_term(shape, modulus, q, r):
    a = uniform_sector_state(shape, modulus, q)
    b = uniform_sector_state(shape, modulus, r)
    return np.outer(a.amplitudes, b.amplitudes.conj())


def element_stacks(element):
    """One single-element stack per party, in the layout of ``_moved``."""
    return tuple(f[None] for f in element.factors)


def act(element, state):
    """g|psi> through ``_moved``."""
    return _moved(element_stacks(element), state.amplitudes[None])[0, 0]


def act_on_matrix(element, rho):
    """g rho g^dagger through ``_moved`` on the doubled system."""
    stacks = element_stacks(element)
    doubled = stacks + tuple(f.conj() for f in stacks)
    return _moved(doubled, rho.entries.reshape(1, -1))[0, 0].reshape(rho.entries.shape)


class TestLocalUnitaryElement:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            LocalUnitaryElement(QUBITS3, (np.eye(2), np.eye(2), np.ones((2, 2))))

    def test_rejects_wrong_factor_count(self):
        with pytest.raises(ValueError):
            LocalUnitaryElement(QUBITS3, (np.eye(2), np.eye(2)))

    def test_full_matrix_order(self):
        el = LocalUnitaryElement(QUBITS3, (SIGMA_Z, np.eye(2), np.eye(2)))
        full = kron_all(el.factors)
        # party 0 is most significant: sign flips on indices >= 4
        assert np.allclose(np.diagonal(full), [1, 1, 1, 1, -1, -1, -1, -1])
        # _moved acts in the same order: g on the identity rows gives g^T
        assert np.array_equal(_moved(element_stacks(el), np.eye(8))[0], full.T)


class TestApply:
    def test_identity(self):
        ident = LocalUnitaryElement(QUBITS3, (np.eye(2),) * 3)
        psi = dicke(3, 1)
        assert np.allclose(act(ident, psi), psi.amplitudes)

    def test_sigma_z_on_w(self):
        el = LocalUnitaryElement(QUBITS3, (SIGMA_Z,) * 3)
        assert np.allclose(act(el, dicke(3, 1)), -dicke(3, 1).amplitudes)

    def test_phase_on_dicke2(self):
        # each weight-2 term picks up the phase twice
        w = np.exp(2j * np.pi / 3)
        el = LocalUnitaryElement(QUBITS3, (np.diag([1.0, w]),) * 3)
        assert np.allclose(act(el, dicke(3, 2)), w**2 * dicke(3, 2).amplitudes)

    def test_density_matrix_action(self):
        el = LocalUnitaryElement(QUBITS3, (SIGMA_Z,) * 3)
        rho = dicke(3, 1).projector()
        assert np.allclose(act_on_matrix(el, rho), rho.entries)  # phases cancel in rho


class TestBuiltinGroups:
    def test_parity_order(self):
        group = builtin_group("parity", SystemShape((2, 2, 2, 2)))
        assert group.order == 2

    def test_omega_order(self):
        group = builtin_group("omega", SystemShape((2,) * 5))
        assert group.order == 5
        gen = group.elements[1].factors[0]
        assert np.allclose(gen, np.diag([1.0, np.exp(2j * np.pi / 5)]))

    def test_qudit_qutrits(self):
        group = builtin_group("qudit", SystemShape((3, 3, 3)))
        assert group.order == 3
        z3 = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        assert np.allclose(group.elements[1].factors[0], z3)
        assert np.allclose(group.elements[2].factors[0], z3 @ z3)

    def test_qudit_mixed_dims_order_is_lcm(self):
        group = builtin_group("qudit", SystemShape((2, 4)))
        assert group.order == 4
        group = builtin_group("qudit", SystemShape((2, 3)))
        assert group.order == 6

    def test_zeta_order(self):
        group = builtin_group("zeta", QUBITS3)
        assert group.order == 4

    @pytest.mark.parametrize("kind,dims", [
        ("parity", (2, 2, 2)),
        ("omega", (2, 2, 2, 2, 2)),
        ("zeta", (2, 2, 2)),
        ("qudit", (3, 3, 3)),
        ("qudit", (2, 4)),
    ])
    def test_group_axioms_validated_on_construction(self, kind, dims):
        # UnitaryGroup.__post_init__ enforces identity/closure/inverse
        group = builtin_group(kind, SystemShape(dims))
        assert group.order >= 1

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            builtin_group("parity", SystemShape((3, 3)))
        with pytest.raises(ValueError):
            builtin_group("zeta", SystemShape((2, 2)))
        with pytest.raises(ValueError):
            builtin_group("nope", QUBITS3)

    def test_closure_violation_rejected(self):
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rot = np.array([[c, -s], [s, c]])
        shape = SystemShape((2, 2))
        with pytest.raises(ValueError):
            UnitaryGroup(shape, (
                LocalUnitaryElement(shape, (np.eye(2),) * 2),
                LocalUnitaryElement(shape, (rot, rot)),
            ))

    def test_missing_identity_rejected(self):
        shape = SystemShape((2, 2))
        with pytest.raises(ValueError):
            UnitaryGroup(shape, (
                LocalUnitaryElement(shape, (SIGMA_Z, SIGMA_Z)),
            ))


class TestTwirl:
    def test_identity_group_fixes_everything(self):
        shape = SystemShape((2, 2))
        group = UnitaryGroup(shape, (LocalUnitaryElement(shape, (np.eye(2),) * 2),))
        rho = DensityMatrix(shape, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert np.allclose(dense_twirl(group, rho.entries), rho.entries)

    def test_parity_cancels_cross_terms(self):
        n = 4
        shape = SystemShape((2,) * n)
        group = builtin_group("parity", shape)
        even = uniform_sector_state(shape, 2, 0)
        odd = uniform_sector_state(shape, 2, 1)
        x = 0.3
        member = superpose([even, odd], [x, 1 - x], [0.0, 0.8])
        expected = x * np.outer(even.amplitudes, even.amplitudes.conj()) \
            + (1 - x) * np.outer(odd.amplitudes, odd.amplitudes.conj())
        out = dense_twirl(group, member.projector().entries)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_omega_annihilates_dicke_cross_terms(self):
        n = 5
        shape = SystemShape((2,) * n)
        group = builtin_group("omega", shape)
        for q, r in [(1, 2), (0, 3), (2, 4)]:
            cross = np.outer(dicke(n, q).amplitudes, dicke(n, r).amplitudes.conj())
            out = dense_twirl(group, cross)
            assert np.max(np.abs(out)) < 1e-12

    def test_qudit_annihilates_sector_cross_terms(self):
        shape = SystemShape((3, 3, 3))
        group = builtin_group("qudit", shape)
        for q, r in [(0, 1), (1, 2), (0, 2)]:
            out = dense_twirl(group, sector_projector_cross_term(shape, 3, q, r))
            assert np.max(np.abs(out)) < 1e-12

    @pytest.mark.parametrize("kind,dims", [
        ("parity", (2, 2, 2)),
        ("omega", (2, 2, 2, 2)),
        ("zeta", (2, 2, 2)),
        ("qudit", (3, 3, 3)),
    ])
    def test_idempotent_and_commutes(self, kind, dims):
        rng = np.random.default_rng(17)
        shape = SystemShape(dims)
        group = builtin_group(kind, shape)
        gauss = rng.standard_normal((shape.total_dim,) * 2) \
            + 1j * rng.standard_normal((shape.total_dim,) * 2)
        herm = gauss + gauss.conj().T
        rho_mat = herm @ herm.conj().T
        rho = DensityMatrix(shape, rho_mat / rho_mat.trace())
        once = dense_twirl(group, rho.entries)
        twice = dense_twirl(group, once)
        assert np.max(np.abs(twice - once)) < 1e-9
        for el in group.elements:
            full = kron_all(el.factors)
            comm = full @ once - once @ full
            assert np.max(np.abs(comm)) < 1e-9
        assert verify_invariance(group, DensityMatrix(shape, once)).ok


class TestVerifyInvariance:
    def test_parity_family_invariant(self):
        n = 4
        shape = SystemShape((2,) * n)
        group = builtin_group("parity", shape)
        for x in (0.2, 0.5, 0.9):
            rho = DensityMatrix.mixture(
                [uniform_sector_state(shape, 2, 0), uniform_sector_state(shape, 2, 1)],
                [x, 1 - x])
            ok, dev = verify_invariance(group, rho)
            assert ok and dev < 1e-12

    def test_omega_fixes_rank3_mixture(self):
        group = builtin_group("omega", QUBITS3)
        rho = DensityMatrix.mixture(
            [ghz(3), dicke(3, 1), dicke(3, 2)], [0.5, 0.3, 0.2])
        assert verify_invariance(group, rho).ok

    def test_holds_a_few_copies_of_rho(self):
        # the moved rows are summed block by block of elements, so a 1 MB rho
        # at N = 8 costs about 4 copies, not one per element of the group
        family = rank3_ghz_dicke(8)
        rho = DensityMatrix.mixture(list(family.basis), [0.5, 0.3, 0.2])
        tracemalloc.start()
        try:
            result = verify_invariance(family.group, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.ok and family.group.order == 8
        assert peak <= 4.5 * rho.entries.nbytes

    def test_pure_superposition_not_invariant(self):
        n = 3
        shape = SystemShape((2,) * n)
        group = builtin_group("parity", shape)
        member = superpose(
            [uniform_sector_state(shape, 2, 0), uniform_sector_state(shape, 2, 1)],
            [0.5, 0.5])
        ok, dev = verify_invariance(group, member.projector())
        assert not ok
        assert dev > 1e-3


class TestVerifyPreimage:
    def test_parity_family(self):
        n = 4
        shape = SystemShape((2,) * n)
        group = builtin_group("parity", shape)
        basis = [uniform_sector_state(shape, 2, 0), uniform_sector_state(shape, 2, 1)]
        explicit = [np.array([0.0, phi]) for phi in (0.0, np.pi / 4, np.pi)]
        ok, dev = verify_preimage(group, basis, [0.3, 0.7], phases=explicit)
        assert ok and dev < 1e-12

    def test_zeta_family_random_draws(self):
        group = builtin_group("zeta", QUBITS3)
        from ggm.states import zeta
        basis = [zeta(i) for i in range(1, 5)]
        ok, dev = verify_preimage(group, basis, [0.4, 0.2, 0.3, 0.1], random_draws=20)
        assert ok and dev < 1e-9

    def test_broken_preimage_detected(self):
        # rotate one basis state by a non-group local unitary
        n = 3
        shape = SystemShape((2,) * n)
        group = builtin_group("parity", shape)
        theta = 0.3
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        full = np.kron(np.kron(rot, np.eye(2)), np.eye(2))
        even = uniform_sector_state(shape, 2, 0)
        rotated = PureState(shape, full @ even.amplitudes)
        odd = uniform_sector_state(shape, 2, 1)
        ok, dev = verify_preimage(group, [rotated, odd], [0.5, 0.5], random_draws=5)
        assert not ok
        assert dev > 1e-3


class TestGroupKindsExported:
    def test_all_four_kinds(self):
        assert set(GROUP_KINDS) == {"parity", "omega", "zeta", "qudit"}

    def test_twirl_is_the_submodule(self):
        assert isinstance(ggm.twirl, types.ModuleType)
        assert ggm.twirl.verify_preimage is ggm.verify_preimage


# ---------------------------------------------------------------------------
# Factored verification against the dense full-matrix reference

AXIOM_GROUPS = [
    builtin_group("parity", QUBITS3),
    builtin_group("omega", SystemShape((2,) * 5)),
    builtin_group("zeta", QUBITS3),
    builtin_group("qudit", SystemShape((3, 3, 3))),
    builtin_group("qudit", SystemShape((2, 4))),
    builtin_group("qudit", SystemShape((2, 3))),
    ghz_mixture(3).group,
]


def factored_match(a, b):
    """Factored decision for one pair of factor tuples."""
    dim = int(np.prod([f.shape[0] for f in b]))
    return bool(_factors_equal_up_to_phase(list(a), list(b), dim))


def near_unitary(d, eps, seed):
    """exp(i eps H) for a seeded Hermitian H of unit max-entry norm."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (x + x.conj().T) / 2
    h /= np.max(np.abs(h))
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(1j * eps * lam)) @ vec.conj().T


class TestFactoredAxioms:
    @pytest.mark.parametrize("group", AXIOM_GROUPS, ids=lambda g: str(g.shape.dims))
    def test_decisions_equal_reference_on_builtin_groups(self, group):
        factors = [el.factors for el in group.elements]
        full = [kron_all(fi) for fi in factors]
        eye = tuple(np.eye(d) for d in group.shape.dims)
        for fi, mi in zip(factors, full):
            assert factored_match(fi, eye) == _equal_up_to_phase(mi, np.eye(len(mi)))
            inv = tuple(f.conj().T for f in fi)
            for fk, mk in zip(factors, full):
                assert factored_match(inv, fk) == _equal_up_to_phase(mi.conj().T, mk)
                for fj, mj in zip(factors, full):
                    prod = tuple(x @ y for x, y in zip(fi, fj))
                    assert factored_match(prod, fk) == _equal_up_to_phase(mi @ mj, mk)

    @given(group_index=st.integers(0, 2), element=st.integers(0, 3),
           party=st.integers(0, 2), exponent=st.floats(-11.0, -7.0),
           seed=st.integers(0, 2**16))
    def test_never_accepts_where_full_check_rejects(self, group_index, element,
                                                    party, exponent, seed):
        group = AXIOM_GROUPS[group_index]
        b = group.elements[element % group.order].factors
        a = list(b)
        a[party] = a[party] @ near_unitary(2, 10.0 ** exponent, seed)
        if factored_match(a, b):
            assert _equal_up_to_phase(kron_all(a), kron_all(b))

    @pytest.mark.parametrize("kind,element", [("zeta", 1), ("parity", 1)])
    def test_perturbation_sweep_brackets_the_tolerance(self, kind, element):
        # both checks accept far below GROUP_TOL and reject far above it; in
        # between, on a fine sweep, the factored check may only be stricter
        b = builtin_group(kind, QUBITS3).elements[element].factors
        scales = np.concatenate([np.geomspace(1e-3, 1e3, 25), np.linspace(0.5, 3.0, 101)])
        decisions = []
        for scale in scales:
            for seed in range(3):
                a = (b[0], b[1] @ near_unitary(2, scale * GROUP_TOL, seed), b[2])
                fact, ref = factored_match(a, b), _equal_up_to_phase(kron_all(a), kron_all(b))
                assert ref or not fact, f"factored accepts at scale {scale}, seed {seed}"
                decisions.append((scale, fact, ref))
        assert all(f and r for s, f, r in decisions if s <= 1e-2)
        assert not any(f or r for s, f, r in decisions if s >= 1e2)

    def test_per_factor_phases(self):
        eye = (np.eye(2), np.eye(2))
        for a in [(1j * np.eye(2), -1j * np.eye(2)), (1j * np.eye(2), np.eye(2)),
                  (np.exp(0.7j) * SIGMA_Z, np.exp(-0.2j) * np.eye(2))]:
            assert factored_match(a, eye) == _equal_up_to_phase(kron_all(a), kron_all(eye))
        assert factored_match((1j * np.eye(2), -1j * np.eye(2)), eye)
        assert not factored_match((np.exp(0.7j) * SIGMA_Z, np.eye(2)), eye)

    def test_inverse_branch(self):
        c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
        r60 = np.array([[c, -s], [s, c]])
        shape = SystemShape((2, 2))
        with pytest.raises(VerificationError, match="inverse"):
            UnitaryGroup(shape, (LocalUnitaryElement(shape, (np.eye(2),) * 2),
                                 LocalUnitaryElement(shape, (r60, np.eye(2)))))

    def test_closure_violation_names_the_pair(self):
        # closed under inverse (every element is its own), not under products
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        shape = SystemShape((2, 2))
        with pytest.raises(VerificationError, match=r"composition \(elements 1, 2\)"):
            UnitaryGroup(shape, tuple(LocalUnitaryElement(shape, (f, np.eye(2)))
                                      for f in (np.eye(2), sigma_x, SIGMA_Z)))


def dense_residual(group, rows, coeff, weights):
    """Dense ||twirl(|psi><psi|) - sum_k w_k |b_k><b_k|||, Frobenius and max-entry."""
    target = (rows.T * weights) @ rows.conj()
    psi = coeff @ rows
    diff = dense_twirl(group, np.outer(psi, psi.conj())) - target
    return np.linalg.norm(diff), np.max(np.abs(diff))


def broken_family():
    """Trivial group on GHZ/W: fixes the mixture, not its superpositions."""
    shape = QUBITS3
    trivial = UnitaryGroup(shape, (LocalUnitaryElement(shape, (np.eye(2),) * 3),))
    return trivial, np.stack([ghz(3).amplitudes, dicke(3, 1).amplitudes]), np.array([0.3, 0.7])


def family_cases():
    cases = []
    for name, builder in FAMILY_BUILDERS.items():
        fam = builder()
        cases.append((name, fam.group, np.stack([b.amplitudes for b in fam.basis]),
                      np.asarray(fam.weights)))
    return cases + [("broken", *broken_family())]


class TestFactoredResidual:
    @pytest.mark.parametrize("name,group,rows,weights", family_cases(),
                             ids=[c[0] for c in family_cases()])
    def test_preimage_residual_matches_dense(self, name, group, rows, weights):
        phases = np.random.default_rng(23).uniform(0.0, 2.0 * np.pi, (6, len(weights)))
        coeffs = np.sqrt(weights) * np.exp(1j * phases)
        factored = _twirl_residuals(_moved_r(group, rows), group.order,
                                    coeffs[:, :, None], weights)
        dense = np.array([dense_residual(group, rows, c, weights) for c in coeffs])
        assert np.max(np.abs(factored - dense[:, 0])) <= 1e-12
        # Frobenius >= max-entry, up to rounding of the two computations
        assert np.all(factored >= dense[:, 1] - 1e-15)
        if name == "broken":
            assert np.all(factored >= dense[:, 1]) and factored.min() > 1e-3
        basis = [PureState(group.shape, r) for r in rows]
        batched = verify_preimage(group, basis, weights, phases=list(phases))
        assert abs(batched.max_deviation - dense[:, 0].max()) <= 1e-12

    @pytest.mark.parametrize("name,group,rows,weights", family_cases(),
                             ids=[c[0] for c in family_cases()])
    def test_mixture_invariance_matches_dense(self, name, group, rows, weights):
        basis = [PureState(group.shape, r) for r in rows]
        rho = DensityMatrix.mixture(basis, weights)
        diff = dense_twirl(group, rho.entries) - rho.entries
        result = verify_mixture_invariance(group, basis, weights)
        assert abs(result.max_deviation - np.linalg.norm(diff)) <= 1e-12
        assert result.max_deviation >= verify_invariance(group, rho).max_deviation - 1e-15
        assert result.ok

    @pytest.mark.parametrize("name,group,rows,weights", family_cases(),
                             ids=[c[0] for c in family_cases()])
    def test_moved_rows_match_full_matrices(self, name, group, rows, weights):
        dense = np.stack([rows @ kron_all(el.factors).T for el in group.elements])
        assert np.max(np.abs(_moved(group.stacks, rows) - dense)) <= 1e-14

    @pytest.mark.parametrize("name,group,rows,weights", family_cases(),
                             ids=[c[0] for c in family_cases()])
    def test_verify_invariance_matches_dense(self, name, group, rows, weights):
        # the family target at seeded weights, then a random projector, which
        # no group but the trivial one fixes
        rng = np.random.default_rng(31)
        basis = [PureState(group.shape, r) for r in rows]
        targets = [DensityMatrix.mixture(basis, w)
                   for w in rng.dirichlet(np.ones(len(weights)), size=5)]
        amps = rng.standard_normal(rows.shape[1]) + 1j * rng.standard_normal(rows.shape[1])
        projector = PureState(group.shape, amps / np.linalg.norm(amps)).projector()
        for rho in targets + [projector]:
            dense = np.max(np.abs(dense_twirl(group, rho.entries) - rho.entries))
            result = verify_invariance(group, rho)
            assert abs(result.max_deviation - dense) <= 1e-15
            assert result.ok == (rho is not projector or name == "broken")
        if name != "broken":
            assert result.max_deviation > 1e-3

    def test_moved_rows_on_mixed_dimensions(self, monkeypatch):
        # powers of a non-diagonal generator of order 6 on a 2 x 3 x 4 system
        shape = SystemShape((2, 3, 4))
        gen = (np.eye(2)[::-1], np.roll(np.eye(3), 1, axis=0), np.eye(4)[[1, 0, 3, 2]])
        group = UnitaryGroup(shape, tuple(
            LocalUnitaryElement(shape, tuple(np.linalg.matrix_power(f, k) for f in gen))
            for k in range(6)))
        rng = np.random.default_rng(29)
        rows = rng.standard_normal((3, 24)) + 1j * rng.standard_normal((3, 24))
        dense = np.stack([rows @ kron_all(el.factors).T for el in group.elements])
        whole = _moved(group.stacks, rows)
        assert np.max(np.abs(whole - dense)) <= 1e-14
        # element blocks of 4 and 2, then one element at a time
        for entries in (4 * rows.size, 1):
            monkeypatch.setattr(ggm.twirl, "_CLOSURE_BLOCK", entries)
            assert np.array_equal(_moved(group.stacks, rows), whole)

    def test_invariance_failure_matches_dense(self):
        group = builtin_group("parity", QUBITS3)
        basis = [ghz(3), dicke(3, 1)]
        rho = DensityMatrix.mixture(basis, [0.5, 0.5])
        result = verify_mixture_invariance(group, basis, [0.5, 0.5])
        dense = verify_invariance(group, rho)
        assert not result.ok and not dense.ok
        assert result.max_deviation >= dense.max_deviation

    def test_default_draws_are_the_per_draw_maximum(self):
        group, rows, weights = broken_family()
        basis = [PureState(group.shape, r) for r in rows]
        rng = np.random.default_rng(12345)
        phases = [np.zeros(2)] + [np.array([0.0, a]) for a in
                                  np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)[1:]]
        for _ in range(20):
            vec = rng.uniform(0.0, 2.0 * np.pi, size=2)
            vec[0] = 0.0
            phases.append(vec)
        per_draw = max(dense_residual(group, rows, np.sqrt(weights) * np.exp(1j * p),
                                      weights)[0] for p in phases)
        assert abs(verify_preimage(group, basis, weights).max_deviation - per_draw) <= 1e-12

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_construction_moves_the_basis_once(self, name, monkeypatch):
        calls = []
        original = ggm.twirl._moved

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(ggm.twirl, "_moved", counting)
        family = FAMILY_BUILDERS[name]()
        assert len(calls) == 1
        # the shared R gives the deviations of the two separate checks, bit for bit
        separate = (verify_mixture_invariance(family.group, family.basis, family.weights),
                    verify_preimage(family.group, family.basis, family.weights))
        assert len(calls) == 3
        assert _verify_family(family.group, family.basis, family.weights) == separate

    def test_large_family_builds_no_dense_matrix(self, monkeypatch):
        built = []
        original = hilbert.DensityMatrix.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(hilbert.DensityMatrix, "__post_init__", counting)
        rank3_ghz_dicke(10)
        assert built == []
