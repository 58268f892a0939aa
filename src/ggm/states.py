"""Constructors for the pure-state families used across the package.

Bitstring conventions: a qubit basis index is read as a bitstring with
party 0 as the most significant bit; weight-k bitstrings are enumerated in
ascending order of their integer value, which fixes the coefficient
addressing of generalized Dicke states.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import NORM_TOL, PureState, SystemShape

__all__ = [
    "ghz",
    "gghz",
    "dicke",
    "generalized_dicke",
    "sector_state",
    "uniform_sector_state",
    "zeta",
    "superpose",
    "weight_k_indices",
    "sector_indices",
]


def weight_k_indices(n_parties: int, k: int) -> list[int]:
    """Qubit basis indices with exactly k ones, ascending."""
    if not 0 <= k <= n_parties:
        raise ValueError(f"excitation count {k} out of range [0, {n_parties}]")
    return [i for i in range(2**n_parties) if i.bit_count() == k]


def sector_indices(shape: SystemShape, modulus: int, k: int) -> list[int]:
    """Basis indices whose digit sum is congruent to k modulo ``modulus``."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not 0 <= k < modulus:
        raise ValueError(f"residue {k} out of range [0, {modulus})")
    return [
        i for i in range(shape.total_dim)
        if sum(shape.digits_of(i)) % modulus == k
    ]


def ghz(n_parties: int, d: int = 2, sign: int = 1) -> PureState:
    """(|0...0> +/- |1...1>)/sqrt(2), embedded in d-dimensional local spaces."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    shape = SystemShape.uniform(n_parties, d)
    amps = np.zeros(shape.total_dim, dtype=complex)
    amps[0] = 1 / math.sqrt(2)
    amps[shape.index_of((1,) * n_parties)] = sign / math.sqrt(2)
    return PureState(shape, amps)


def gghz(n_parties: int, alpha: float) -> PureState:
    """alpha|0...0> + sqrt(1 - alpha^2)|1...1> on qubits, 0 <= alpha <= 1."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    shape = SystemShape.uniform(n_parties, 2)
    amps = np.zeros(shape.total_dim, dtype=complex)
    amps[0] = alpha
    amps[-1] = math.sqrt(1.0 - alpha * alpha)
    return PureState(shape, amps)


def dicke(n_parties: int, k: int) -> PureState:
    """Uniform superposition of all weight-k bitstrings."""
    idx = weight_k_indices(n_parties, k)
    amps = np.zeros(2**n_parties, dtype=complex)
    amps[idx] = 1 / math.sqrt(len(idx))
    return PureState(SystemShape.uniform(n_parties, 2), amps)


def _unit_coefficients(values, label: str) -> np.ndarray:
    """``values`` as a flat complex vector, rejecting a norm off 1."""
    values = np.asarray(values, dtype=complex).reshape(-1)
    norm = np.linalg.norm(values)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"{label} norm {norm!r} deviates from 1")
    return values


def generalized_dicke(n_parties: int, k: int, b) -> PureState:
    """Dicke state with arbitrary coefficients per weight-k bitstring.

    ``b[j]`` multiplies the j-th weight-k bitstring in ascending integer
    order; the vector must be unit norm.
    """
    idx = weight_k_indices(n_parties, k)
    size = np.size(b)
    if size != len(idx):
        raise ValueError(f"need {len(idx)} coefficients, got {size}")
    amps = np.zeros(2**n_parties, dtype=complex)
    amps[idx] = _unit_coefficients(b, "coefficient")
    return PureState(SystemShape.uniform(n_parties, 2), amps)


def sector_state(shape: SystemShape, modulus: int, k: int, q) -> PureState:
    """Pure state with support only on one digit-sum residue sector.

    ``q`` holds the coefficients over the sector's basis states, listed in
    ascending order of the full-space basis index; it must be unit norm.
    """
    support = sector_indices(shape, modulus, k)
    size = np.size(q)
    if size != len(support):
        raise ValueError(
            f"sector (mod {modulus}, k={k}) has {len(support)} basis "
            f"states, got {size} coefficients"
        )
    amps = np.zeros(shape.total_dim, dtype=complex)
    amps[support] = _unit_coefficients(q, "sector coefficient")
    return PureState(shape, amps)


def uniform_sector_state(shape: SystemShape, modulus: int, k: int) -> PureState:
    """Uniform superposition over one digit-sum residue class."""
    support = sector_indices(shape, modulus, k)
    if not support:
        raise ValueError(f"sector k={k} (mod {modulus}) is empty for {shape.dims}")
    q = np.full(len(support), 1 / math.sqrt(len(support)), dtype=complex)
    return sector_state(shape, modulus, k, q)


# Three-qubit basis of the rank-4 asymmetric family; amplitudes are exact
# quarters so the states are orthonormal by construction.
_ZETA_TERMS = {
    1: {0b001: 0.5, 0b010: 0.5, 0b100: -0.5, 0b111: 0.5},
    2: {0b000: -0.5j, 0b011: -0.5j, 0b100: 0.5, 0b111: 0.5},
    3: {0b000: 0.5j, 0b011: 0.5j, 0b100: 0.5, 0b111: 0.5},
    4: {0b001: 0.5, 0b010: 0.5, 0b100: 0.5, 0b111: -0.5},
}


def zeta(i: int) -> PureState:
    """The i-th (1..4) member of the orthonormal three-qubit zeta basis."""
    if i not in _ZETA_TERMS:
        raise ValueError(f"zeta index must be 1..4, got {i}")
    amps = np.zeros(8, dtype=complex)
    for idx, val in _ZETA_TERMS[i].items():
        amps[idx] = val
    return PureState(SystemShape.uniform(3, 2), amps)


def superpose(basis, weights, phases=None) -> PureState:
    """sum_k sqrt(w_k) exp(i phi_k) |basis_k> over an orthonormal basis.

    Parameters
    ----------
    basis : sequence of PureState
        Pairwise orthonormal within 1e-8, all on the same shape.
    weights : array_like
        Probability vector over the basis (sums to 1 within 1e-10).
    phases : array_like, optional
        One angle per basis element; defaults to all zeros.
    """
    basis = list(basis)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if phases is None:
        phases = np.zeros(len(basis))
    phases = np.asarray(phases, dtype=float).reshape(-1)
    if not len(basis) == weights.size == phases.size:
        raise ValueError("basis, weights, and phases must have equal lengths")
    if not np.all(weights >= -NORM_TOL):
        raise ValueError(f"weights {weights} must be nonnegative")
    if not abs(weights.sum() - 1.0) <= NORM_TOL:
        raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"phases {phases} must be finite")
    shape = basis[0].shape
    if any(b.shape != shape for b in basis):
        raise ValueError("all basis states must share a shape")
    mat = np.stack([b.amplitudes for b in basis])
    gram_dev = np.max(np.abs(mat @ mat.conj().T - np.eye(len(basis))))
    if gram_dev > 1e-8:
        raise ValueError(f"basis is not orthonormal (deviation {gram_dev:.3e})")
    coeff = np.sqrt(np.clip(weights, 0.0, None)) * np.exp(1j * phases)
    return PureState(shape, coeff @ mat)
