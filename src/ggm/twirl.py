"""Finite local-unitary groups and the twirl channel.

A group element is a tensor product of per-party unitaries; a group is a
finite set of such elements closed under composition and inverse, where
element equality means equality of the full tensor products up to a global
phase (the asymmetric three-qubit group closes only modulo phases, and the
twirl channel cannot see them). The twirl averages conjugation over the
group, so it is idempotent and fixes exactly the operators commuting with
every element.

Construction-time checks work on the per-party factors and never form a
D x D matrix: group axioms compare factor by factor, and a family's twirl
residuals are bounded by the group's characters on its basis, at every
mixing weight at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hilbert import DensityMatrix, SystemShape

__all__ = [
    "LocalUnitaryElement",
    "UnitaryGroup",
    "builtin_group",
    "verify_invariance",
    "verify_preimage",
    "CheckResult",
    "VerificationError",
    "GROUP_KINDS",
]

UNITARY_TOL = 1e-10
GROUP_TOL = 1e-9
GROUP_KINDS = ("parity", "omega", "zeta", "qudit")

# Entries in one block of the closure check (block x |G| x |G| x N x d^2) and
# of the moved rows (block x rows x D).
_CLOSURE_BLOCK = 1 << 16


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
            if not dev <= UNITARY_TOL:
                raise ValueError(f"factor is not unitary (deviation {dev:.3e})")
            mat = mat.copy()
            mat.setflags(write=False)
            frozen.append(mat)
        object.__setattr__(self, "factors", tuple(frozen))


def _factors_equal_up_to_phase(a, b, total_dim: int, tol: float = GROUP_TOL) -> np.ndarray:
    """Whether tensor products of unitary factors agree up to a global phase.

    ``a`` and ``b`` hold one (..., d, d) stack per party; the leading axes
    broadcast and the result has their shape. Each factor is aligned by its
    own phase c_p = a_p[k] / b_p[k] at the largest entry k of b_p, leaving
    the factor deviation e_p = max|a_p - c_p b_p| and the modulus deviation
    m_p = ||c_p| - 1|. With M = prod(1 + m_p) and E = M sum e_p, the full
    products differ from each other by at most E entrywise after the phase
    prod c_p. The full-matrix reference ``equal_up_to_phase`` of
    ``tests/helpers.py`` realigns the full matrices at the largest entry of
    b, which is at least 1/sqrt(D), so its residual is at most 2 E and its
    phase modulus within (M - 1) + sqrt(D) E of 1. A match is accepted only
    when both bounds are within ``tol``, so it is never accepted where the
    full-matrix check rejects.
    """
    # Factors are flattened side by side, zero-padded to the largest d^2:
    # a zero entry is never the largest of b_p and adds nothing to e_p.
    lead = np.broadcast_shapes(*(x.shape[:-2] for x in (*a, *b)))
    size = max(x.shape[-1] for x in b) ** 2
    flat_a = np.zeros(lead + (len(a), size), dtype=complex)
    flat_b = np.zeros_like(flat_a)
    for p, (fa, fb) in enumerate(zip(a, b)):
        flat_a[..., p, :fa.shape[-1] ** 2] = fa.reshape(fa.shape[:-2] + (-1,))
        flat_b[..., p, :fb.shape[-1] ** 2] = fb.reshape(fb.shape[:-2] + (-1,))
    k = np.argmax(np.abs(flat_b), axis=-1)[..., None]
    phase = np.take_along_axis(flat_a, k, -1) / np.take_along_axis(flat_b, k, -1)
    dev = np.max(np.abs(flat_a - phase * flat_b), axis=-1).sum(axis=-1)
    growth = np.prod(1.0 + np.abs(np.abs(phase[..., 0]) - 1.0), axis=-1)
    bound = growth * dev
    return (2.0 * bound <= tol) & ((growth - 1.0) + math.sqrt(total_dim) * bound <= tol)


@dataclass(frozen=True, eq=False)
class UnitaryGroup:
    """Finite set of local-unitary elements, validated as a group.

    ``stacks`` holds one (|G|, d, d) array of factors per party. The axioms
    are checked on it by :func:`_factors_equal_up_to_phase` and the group
    acts through it, so no D x D matrix is formed.
    """

    shape: SystemShape
    elements: tuple[LocalUnitaryElement, ...]
    stacks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a unitary group needs at least one element")
        for el in self.elements:
            if el.shape != self.shape:
                raise ValueError("all elements must share the group's shape")
        object.__setattr__(self, "elements", tuple(self.elements))
        stacks = tuple(np.stack([el.factors[p] for el in self.elements])
                       for p in range(self.shape.party_count))
        object.__setattr__(self, "stacks", stacks)
        dim = self.shape.total_dim
        if not _factors_equal_up_to_phase(
                stacks, [np.eye(d) for d in self.shape.dims], dim).any():
            raise VerificationError("group does not contain the identity")

        def found(factors):
            # factors[p] has shape (K, 1, d, d): K operators against every element
            return _factors_equal_up_to_phase(
                factors, [f[None] for f in stacks], dim).any(axis=-1)

        inverse = found([f.conj().swapaxes(-1, -2)[:, None] for f in stacks])
        step = max(1, _CLOSURE_BLOCK // (
            self.order ** 2 * self.shape.party_count * max(self.shape.dims) ** 2))
        closed = np.concatenate([
            found([(f[lo:lo + step, None] @ f[None]).reshape((-1, 1) + f.shape[1:])
                   for f in stacks])
            for lo in range(0, self.order, step)]).reshape(self.order, self.order)
        bad = ~inverse | ~closed.all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            if not inverse[i]:
                raise VerificationError(f"group is not closed under inverse (element {i})")
            raise VerificationError(
                f"group is not closed under composition "
                f"(elements {i}, {int(np.argmin(closed[i]))})"
            )

    @property
    def order(self) -> int:
        return len(self.elements)


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


class CheckResult(NamedTuple):
    """Outcome of a verification: whether the deviation is within its
    tolerance, and the deviation measured."""

    ok: bool
    max_deviation: float


def verify_invariance(group: UnitaryGroup, rho: DensityMatrix,
                      tol: float = GROUP_TOL) -> CheckResult:
    """Check that the twirl fixes ``rho`` to within ``tol`` (max-entry norm).

    Works for an arbitrary density matrix, on the doubled system: the
    row-major vec(g rho g^dagger) is (g (x) conj(g)) vec(rho), so the twirl
    is the mean of the one D^2-long row vec(rho) moved by the stacks of g
    and of conj(g) on dims + dims, and no D x D matrix is formed per
    element. The moved rows are summed block by block of elements, so a
    few copies of rho are held at once, not one per element. The mixtures
    of an orthonormal basis are checked at every weight at once by
    :func:`_verify_family`.
    """
    if rho.shape != group.shape:
        raise ValueError("shape mismatch between group and state")
    doubled = group.stacks + tuple(stack.conj() for stack in group.stacks)
    row = rho.entries.reshape(1, -1)
    total = np.zeros_like(row)
    for elements in _element_blocks(group.order, row):
        total += _moved_block(doubled, row, elements).sum(axis=0)
    total /= group.order
    dev = float(np.max(np.abs(total.reshape(rho.entries.shape) - rho.entries)))
    return CheckResult(dev <= tol, dev)


def _element_blocks(order: int, rows: np.ndarray) -> list[slice]:
    """Blocks of the elements of a group of ``order`` that move ``rows`` in
    about ``_CLOSURE_BLOCK`` entries, one element at least."""
    step = max(1, _CLOSURE_BLOCK // rows.size)
    return [slice(lo, lo + step) for lo in range(0, order, step)]


def _moved_block(stacks: tuple[np.ndarray, ...], rows: np.ndarray,
                 elements: slice) -> np.ndarray:
    """g|v> for the ``elements`` g of ``stacks`` and every row v: shape
    (elements, len(rows), D).

    ``stacks`` holds one (|G|, d, d) stack of factors per party, as
    :attr:`UnitaryGroup.stacks` does. Each party's stack acts on its own
    tensor axis, moved last: one batched product per party, and no D x D
    matrix.
    """
    dims = tuple(stack.shape[-1] for stack in stacks)
    vec = rows.reshape((1, len(rows)) + dims)
    for axis, stack in enumerate(stacks, start=2):
        last = np.moveaxis(vec, axis, -1)
        factors = stack[elements].swapaxes(-1, -2)
        moved = last.reshape(len(last), -1, last.shape[-1]) @ factors
        vec = np.moveaxis(moved.reshape((len(moved),) + last.shape[1:]), -1, axis)
    return vec.reshape((len(vec),) + rows.shape)


def verify_preimage(group: UnitaryGroup, basis, *, tol: float = GROUP_TOL) -> CheckResult:
    """Check that phased superpositions of ``basis`` twirl onto their mixture.

    Every member sum_k sqrt(w_k) e^{i phi_k}|basis_k> must twirl to
    sum_k w_k |basis_k><basis_k|, whatever its weights and phases. The
    deviation is the bound of :func:`_verify_family` on the Frobenius norm
    of that twirl residual, so the check holds on the whole mixing simplex
    and for all phases at once; it is 0 exactly when the property holds.
    """
    return _verify_family(group, basis, tol=tol)[1]


def _verify_family(group: UnitaryGroup, basis, *, tol: float = GROUP_TOL
                   ) -> tuple[CheckResult, CheckResult, tuple[str, str]]:
    """Invariance of every mixture of ``basis`` and :func:`verify_preimage`,
    read from the characters of the group on the basis, with no weights.

    Each element g moves the basis once (one block of elements at a time),
    giving the character chi_k(g) = <b_k|g b_k> and the residual
    e_gk = ||g b_k - chi_k(g) b_k||, taken as the norm of that vector (as
    1 - |chi|^2 it would cancel and resolve only about 1e-8). Then
    ||g|b_k><b_k|g^dagger - |b_k><b_k|||_F = sqrt(2) e_gk, so the invariance
    deviation sqrt(2) max e bounds ||T(rho_w) - rho_w||_F at every weight
    vector w, and from above the max-entry norm of :func:`verify_invariance`.
    The twirl of a cross term |b_k><b_l| is c_kl |b_k><b_l| up to 2e + e^2,
    with c_kl = (1/|G|) sum_g chi_k(g) conj(chi_l(g)), whose modulus is the
    character overlap k_kl, and these terms are orthonormal, so the preimage
    deviation sqrt(2) e + max_{k != l} k_kl + (n - 1)(2e + e^2) bounds the
    twirl residual of every member at every weight and phase. Both are 0
    exactly when the property holds on the whole simplex (Vollbrecht &
    Werner, PRA 64, 062307 (2001)). Also returns two texts naming the
    culprits: the element and basis state of the largest e, and the pair of
    the largest overlap.
    """
    basis = list(basis)
    if any(b.shape != group.shape for b in basis):
        raise ValueError("shape mismatch between group and state")
    rows = np.stack([b.amplitudes for b in basis])
    gram_dev = np.max(np.abs(rows.conj() @ rows.T - np.eye(len(rows))))
    if gram_dev > 1e-8:
        raise ValueError(f"basis is not orthonormal (deviation {gram_dev:.3e})")
    chars = np.empty((group.order, len(rows)), dtype=complex)
    residuals = np.empty(chars.shape)
    for elements in _element_blocks(group.order, rows):
        moved = _moved_block(group.stacks, rows, elements)
        chars[elements] = np.einsum("gkd,kd->gk", moved, rows.conj())
        moved -= chars[elements, :, None] * rows
        residuals[elements] = np.linalg.norm(moved, axis=-1)
    overlaps = np.abs(chars.T @ chars.conj()) / group.order
    np.fill_diagonal(overlaps, 0.0)
    g, state = np.unravel_index(np.argmax(residuals), residuals.shape)
    k, l = np.unravel_index(np.argmax(overlaps), overlaps.shape)
    eps = float(residuals[g, state])
    inv = math.sqrt(2.0) * eps
    pre = inv + float(overlaps[k, l]) + (len(rows) - 1) * (2.0 * eps + eps * eps)
    return CheckResult(inv <= tol, inv), CheckResult(pre <= tol, pre), (
        f"element {g} moves basis state {state} off its ray by {eps:.3e}",
        f"basis pair ({k}, {l}) has character overlap {overlaps[k, l]:.3e}")
