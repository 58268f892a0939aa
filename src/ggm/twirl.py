"""Finite local-unitary groups and the twirl channel.

A group element is a tensor product of per-party unitaries; a group is a
finite set of such elements closed under composition and inverse, where
element equality is tested on the full tensor product up to a global phase
(the asymmetric three-qubit group closes only modulo phases, and the twirl
channel cannot see them). The twirl averages conjugation over the group,
so it is idempotent and fixes exactly the operators commuting with every
element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import DensityMatrix, PureState, SystemShape
from .states import superpose

__all__ = [
    "LocalUnitaryElement",
    "UnitaryGroup",
    "apply_local_unitary",
    "twirl",
    "builtin_group",
    "verify_invariance",
    "verify_preimage",
    "InvarianceResult",
    "PreimageResult",
    "VerificationError",
    "GROUP_KINDS",
    "PREIMAGE_SEED",
]

UNITARY_TOL = 1e-10
GROUP_TOL = 1e-9
GROUP_KINDS = ("parity", "omega", "zeta", "qudit")

# Fixed seed for the random phase draws of the preimage check; the property
# is phase-independent, so sampling is a sanity net rather than a proof.
PREIMAGE_SEED = 12345


class VerificationError(ValueError):
    """A group axiom or a family's symmetry premise fails its tolerance check."""


@dataclass(frozen=True, eq=False)
class LocalUnitaryElement:
    """Tensor product U_1 (x) ... (x) U_N of per-party unitaries."""

    shape: SystemShape
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.factors) != self.shape.party_count:
            raise ValueError("need one factor per party")
        frozen = []
        for d, factor in zip(self.shape.dims, self.factors):
            mat = np.asarray(factor, dtype=complex)
            if mat.shape != (d, d):
                raise ValueError(f"factor shape {mat.shape} does not match dimension {d}")
            dev = np.max(np.abs(mat.conj().T @ mat - np.eye(d)))
            if dev > UNITARY_TOL:
                raise ValueError(f"factor is not unitary (deviation {dev:.3e})")
            mat = mat.copy()
            mat.setflags(write=False)
            frozen.append(mat)
        object.__setattr__(self, "factors", tuple(frozen))

    def full_matrix(self) -> np.ndarray:
        out = np.ones((1, 1), dtype=complex)
        for factor in self.factors:
            out = np.kron(out, factor)
        return out

    def compose(self, other: "LocalUnitaryElement") -> "LocalUnitaryElement":
        if other.shape != self.shape:
            raise ValueError("shape mismatch in composition")
        return LocalUnitaryElement(
            self.shape, tuple(a @ b for a, b in zip(self.factors, other.factors))
        )

    def dagger(self) -> "LocalUnitaryElement":
        return LocalUnitaryElement(self.shape, tuple(f.conj().T for f in self.factors))


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = GROUP_TOL) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return bool(np.max(np.abs(a)) <= tol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - phase * b)) <= tol)


@dataclass(frozen=True, eq=False)
class UnitaryGroup:
    """Finite set of local-unitary elements, validated as a group."""

    shape: SystemShape
    elements: tuple[LocalUnitaryElement, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a unitary group needs at least one element")
        for el in self.elements:
            if el.shape != self.shape:
                raise ValueError("all elements must share the group's shape")
        object.__setattr__(self, "elements", tuple(self.elements))
        mats = tuple(el.full_matrix() for el in self.elements)
        object.__setattr__(self, "_full", mats)
        eye = np.eye(self.shape.total_dim)
        if not any(_equal_up_to_phase(m, eye) for m in mats):
            raise VerificationError("group does not contain the identity")
        for i, a in enumerate(mats):
            if not any(_equal_up_to_phase(a.conj().T, m) for m in mats):
                raise VerificationError(f"group is not closed under inverse (element {i})")
            for j, b in enumerate(mats):
                prod = a @ b
                if not any(_equal_up_to_phase(prod, m) for m in mats):
                    raise VerificationError(
                        f"group is not closed under composition (elements {i}, {j})"
                    )

    @property
    def order(self) -> int:
        return len(self.elements)

    def full_matrices(self) -> tuple[np.ndarray, ...]:
        return self._full


def apply_local_unitary(element: LocalUnitaryElement, target):
    """Act with a tensor-product unitary on a PureState or DensityMatrix."""
    if target.shape != element.shape:
        raise ValueError("shape mismatch between unitary and target")
    full = element.full_matrix()
    if isinstance(target, PureState):
        return PureState(target.shape, full @ target.amplitudes)
    if isinstance(target, DensityMatrix):
        return DensityMatrix(target.shape, full @ target.entries @ full.conj().T)
    raise TypeError(f"cannot apply a local unitary to {type(target).__name__}")


def twirl(group: UnitaryGroup, operator):
    """Uniform group average (1/|G|) sum_g g A g^dagger.

    Accepts a DensityMatrix or PureState (returned as a DensityMatrix) or a
    raw matrix such as a cross term, returned as a plain array.
    """
    if isinstance(operator, PureState):
        if operator.shape != group.shape:
            raise ValueError("shape mismatch between group and state")
        return DensityMatrix(group.shape, _twirl_vector(group, operator.amplitudes))
    if isinstance(operator, DensityMatrix):
        if operator.shape != group.shape:
            raise ValueError("shape mismatch between group and operator")
        return DensityMatrix(group.shape, _twirl_matrix(group, operator.entries))
    mat = np.asarray(operator, dtype=complex)
    expected = (group.shape.total_dim,) * 2
    if mat.shape != expected:
        raise ValueError(f"operator shape {mat.shape} does not match {expected}")
    return _twirl_matrix(group, mat)


def _twirl_vector(group, amplitudes):
    vecs = np.stack([m @ amplitudes for m in group.full_matrices()])
    return vecs.T @ vecs.conj() / group.order


def _twirl_matrix(group, mat):
    acc = np.zeros_like(mat)
    for m in group.full_matrices():
        acc += m @ mat @ m.conj().T
    return acc / group.order


def _phase_group(shape: SystemShape, order: int) -> UnitaryGroup:
    """Diagonal group whose q-th element phases |j1..jN> by e^{2 pi i q (sum j)/order}.

    Every factor uses the order-th root of unity, so the group grades the
    basis by the digit sum modulo ``order`` and its twirl kills every
    cross-sector term exactly.
    """
    elements = []
    for q in range(order):
        factors = tuple(
            np.diag(np.exp(2j * np.pi * q * np.arange(d) / order)) for d in shape.dims
        )
        elements.append(LocalUnitaryElement(shape, factors))
    return UnitaryGroup(shape, tuple(elements))


def _zeta_group() -> UnitaryGroup:
    shape = SystemShape.uniform(3, 2)
    eye = np.eye(2)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    h_prime = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
    elements = (
        LocalUnitaryElement(shape, (eye, eye, eye)),
        LocalUnitaryElement(shape, (1j * sigma_y, h_prime, h_prime)),
        LocalUnitaryElement(shape, (eye, sigma_y, sigma_y)),
        LocalUnitaryElement(shape, (-1j * sigma_y, h_prime.T, h_prime.T)),
    )
    return UnitaryGroup(shape, elements)


def builtin_group(kind: str, shape: SystemShape) -> UnitaryGroup:
    """One of the built-in groups: 'parity', 'omega', 'zeta', or 'qudit'.

    parity
        {I, sigma_z} applied to every qubit; order 2.
    omega
        Diagonal qubit phases in steps of 2 pi/N (N = party count); order N.
    zeta
        The fixed asymmetric three-qubit group of order 4.
    qudit
        Powers of the tensor product of generalized-sigma_z factors; order
        lcm of the local dimensions, with every factor built on the lcm-th
        root of unity so that digit-sum sectors are graded consistently.
    """
    if kind == "parity":
        if any(d != 2 for d in shape.dims):
            raise ValueError("parity group requires qubits")
        return _phase_group(shape, 2)
    if kind == "omega":
        if any(d != 2 for d in shape.dims):
            raise ValueError("omega group requires qubits")
        return _phase_group(shape, shape.party_count)
    if kind == "zeta":
        if shape.dims != (2, 2, 2):
            raise ValueError("zeta group requires exactly three qubits")
        return _zeta_group()
    if kind == "qudit":
        return _phase_group(shape, math.lcm(*shape.dims))
    raise ValueError(f"unknown group kind {kind!r}; expected one of {GROUP_KINDS}")


class InvarianceResult(NamedTuple):
    ok: bool
    max_deviation: float


class PreimageResult(NamedTuple):
    ok: bool
    max_deviation: float


def verify_invariance(group: UnitaryGroup, rho: DensityMatrix,
                      tol: float = GROUP_TOL) -> InvarianceResult:
    """Check that the twirl fixes ``rho`` to within ``tol`` (max-entry norm)."""
    if rho.shape != group.shape:
        raise ValueError("shape mismatch between group and state")
    dev = float(np.max(np.abs(_twirl_matrix(group, rho.entries) - rho.entries)))
    return InvarianceResult(dev <= tol, dev)


def verify_preimage(group: UnitaryGroup, basis, weights, *, tol: float = GROUP_TOL,
                    random_draws: int = 20, grid_points: int = 8,
                    seed: int = PREIMAGE_SEED,
                    phases: list | None = None) -> PreimageResult:
    """Check that phased superpositions of ``basis`` twirl onto the mixture.

    Every member sqrt(w_k) e^{i phi_k}|basis_k> must twirl to
    sum_k w_k |basis_k><basis_k| regardless of the phases. Sampled phase
    assignments are an axis-aligned grid of ``grid_points`` values per free
    phase plus ``random_draws`` joint uniform draws from a fixed seed; pass
    ``phases`` (a list of full-length phase vectors) to override.
    """
    basis = list(basis)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    n = len(basis)
    if weights.size != n:
        raise ValueError("weights length does not match basis length")
    target = DensityMatrix.mixture(basis, weights).entries

    if phases is None:
        phases = [np.zeros(n)]
        for coord in range(1, n):
            for angle in np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)[1:]:
                vec = np.zeros(n)
                vec[coord] = angle
                phases.append(vec)
        rng = np.random.default_rng(seed)
        for _ in range(random_draws):
            vec = rng.uniform(0.0, 2.0 * np.pi, size=n)
            vec[0] = 0.0
            phases.append(vec)

    # An average of unitary conjugates of a unit vector is already a density
    # matrix, so the twirled members are compared raw, without re-validation.
    worst = 0.0
    for vec in phases:
        member = superpose(basis, weights, vec)
        twirled = _twirl_vector(group, member.amplitudes)
        worst = max(worst, float(np.max(np.abs(twirled - target))))
    return PreimageResult(worst <= tol, worst)
