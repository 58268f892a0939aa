"""Finite local-unitary groups and the twirl channel.

A group element is a tensor product of per-party unitaries; a group is a
finite set of such elements closed under composition and inverse, where
element equality means equality of the full tensor products up to a global
phase (the asymmetric three-qubit group closes only modulo phases, and the
twirl channel cannot see them). The twirl averages conjugation over the
group, so it is idempotent and fixes exactly the operators commuting with
every element.

Construction-time checks work on the per-party factors and never form a
D x D matrix: group axioms compare factor by factor, and twirl residuals of
mixtures are Frobenius norms taken through a thin QR of the moved vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hilbert import NORM_TOL, DensityMatrix, SystemShape

__all__ = [
    "LocalUnitaryElement",
    "UnitaryGroup",
    "builtin_group",
    "verify_invariance",
    "verify_mixture_invariance",
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

# Entries in one block of the closure check (block x |G| x |G| x N x d^2), of
# the moved rows (block x rows x D) and of the residuals (block x r x r).
_CLOSURE_BLOCK = 1 << 16
_RESIDUAL_BLOCK = 1 << 12

# Default phase sample of the preimage check: a fixed seed for its random
# draws, their count, and the grid points per free phase. The property is
# phase-independent, so sampling is a sanity net rather than a proof.
PREIMAGE_SEED = 12345
PREIMAGE_DRAWS = 20
PREIMAGE_GRID_POINTS = 8


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


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = GROUP_TOL) -> bool:
    """Full-matrix equality up to a global phase: the reference that
    :func:`_factors_equal_up_to_phase` is never looser than."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return bool(np.max(np.abs(a)) <= tol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - phase * b)) <= tol)


def _factors_equal_up_to_phase(a, b, total_dim: int, tol: float = GROUP_TOL) -> np.ndarray:
    """Whether tensor products of unitary factors agree up to a global phase.

    ``a`` and ``b`` hold one (..., d, d) stack per party; the leading axes
    broadcast and the result has their shape. Each factor is aligned by its
    own phase c_p = a_p[k] / b_p[k] at the largest entry k of b_p, leaving
    the factor deviation e_p = max|a_p - c_p b_p| and the modulus deviation
    m_p = ||c_p| - 1|. With M = prod(1 + m_p) and E = M sum e_p, the full
    products differ from each other by at most E entrywise after the phase
    prod c_p. ``_equal_up_to_phase`` realigns the full matrices at the
    largest entry of b, which is at least 1/sqrt(D), so its residual is at
    most 2 E and its phase modulus within (M - 1) + sqrt(D) E of 1. A match
    is accepted only when both bounds are within ``tol``, so it is never
    accepted where the full-matrix check rejects.
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


class InvarianceResult(NamedTuple):
    ok: bool
    max_deviation: float


class PreimageResult(NamedTuple):
    ok: bool
    max_deviation: float


def verify_invariance(group: UnitaryGroup, rho: DensityMatrix,
                      tol: float = GROUP_TOL) -> InvarianceResult:
    """Check that the twirl fixes ``rho`` to within ``tol`` (max-entry norm).

    Works for an arbitrary density matrix, on the doubled system: the
    row-major vec(g rho g^dagger) is (g (x) conj(g)) vec(rho), so the twirl
    is the mean of the one D^2-long row vec(rho) moved by the stacks of g
    and of conj(g) on dims + dims, and no D x D matrix is formed per
    element. The moved rows are summed block by block of elements, so a
    few copies of rho are held at once, not one per element. A mixture of
    an orthonormal basis is checked in factored form by
    :func:`verify_mixture_invariance`.
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
    return InvarianceResult(dev <= tol, dev)


def _mixture_rows(group: UnitaryGroup, basis, weights) -> tuple[np.ndarray, np.ndarray]:
    """Validated amplitude rows and weights of sum_k w_k |basis_k><basis_k|.

    Raises the errors that building the mixture as a DensityMatrix (one
    shape, unit trace, no negative eigenvalue; for an orthonormal basis the
    eigenvalues are the weights) and superposing the basis (orthonormal
    within 1e-8) would raise, without forming the D x D matrix.
    """
    basis = list(basis)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != len(basis):
        raise ValueError("weights length does not match basis length")
    if any(b.shape != basis[0].shape for b in basis):
        raise ValueError("all states in a mixture must share a shape")
    if basis[0].shape != group.shape:
        raise ValueError("shape mismatch between group and state")
    rows = np.stack([b.amplitudes for b in basis])
    gram = rows.conj() @ rows.T
    trace_dev = abs(weights @ gram.diagonal().real - 1.0)
    if trace_dev > NORM_TOL:
        raise ValueError(f"trace deviates from 1 by {trace_dev:.3e}")
    if weights.min() < -NORM_TOL:
        raise ValueError(f"matrix has negative eigenvalue {weights.min():.3e}")
    gram_dev = np.max(np.abs(gram - np.eye(len(basis))))
    if gram_dev > 1e-8:
        raise ValueError(f"basis is not orthonormal (deviation {gram_dev:.3e})")
    return rows, weights


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


def _moved(stacks: tuple[np.ndarray, ...], rows: np.ndarray) -> np.ndarray:
    """g|v> for every element g and row v: shape (|G|, len(rows), D), by
    blocks of elements (:func:`_moved_block`)."""
    out = np.empty((len(stacks[0]),) + rows.shape, dtype=complex)
    for elements in _element_blocks(len(out), rows):
        out[elements] = _moved_block(stacks, rows, elements)
    return out


def _moved_r(group: UnitaryGroup, rows: np.ndarray) -> np.ndarray:
    """R of the thin QR V = QR of the columns V = [g v_a for every g, a; v_b].

    The columns run over the rows v_a of ``rows``, first moved by every
    element g (g-major), then unmoved; every twirl residual of mixtures of
    these rows is read from R by :func:`_twirl_residuals`.
    """
    n_moved = group.order * len(rows)
    stacked = np.concatenate([_moved(group.stacks, rows).reshape(n_moved, -1), rows])
    return np.linalg.qr(stacked.T, mode="r")


def _twirl_residuals(r: np.ndarray, order: int, factors: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Frobenius norms ||(1/|G|) sum_g g X_k g^dagger - Y||_F, one per X_k.

    X_k = sum_j |x_kj><x_kj| with x_kj = sum_a factors[k, a, j] v_a, and
    Y = sum_b w_b |v_b><v_b|, over the rows v_a behind ``r`` (the output of
    :func:`_moved_r` for a group of ``order`` elements). Each difference
    is V C_k V^dagger for the columns V of :func:`_moved_r` and a
    block-diagonal C_k, so with V = QR its norm is ||R C_k R^dagger||_F.
    The norm is read from that small matrix and never expanded into
    traces, whose cancellation would resolve it only to about 1e-8.
    """
    n_moved = order * len(weights)
    r_moved = r[:, :n_moved].reshape(len(r), order, len(weights))
    r_target = r[:, n_moved:]
    target = (r_target * weights) @ r_target.conj().T
    out = np.empty(len(factors))
    step = max(1, _RESIDUAL_BLOCK // len(r) ** 2)
    for lo in range(0, len(factors), step):
        # R g x_kj for every element g and term j, as the columns of one matrix per k
        moved = np.einsum("rga,kaj->krgj", r_moved, factors[lo:lo + step])
        moved = moved.reshape(len(moved), len(r), -1)
        diff = moved @ moved.conj().swapaxes(-1, -2)
        diff /= order
        diff -= target
        out[lo:lo + step] = np.linalg.norm(diff, axis=(1, 2))
    return out


def _invariance(r: np.ndarray, order: int, weights: np.ndarray,
                tol: float) -> InvarianceResult:
    terms = np.diag(np.sqrt(np.clip(weights, 0.0, None)))[None]
    dev = float(_twirl_residuals(r, order, terms, weights)[0])
    return InvarianceResult(dev <= tol, dev)


def _preimage(r: np.ndarray, order: int, weights: np.ndarray, phases: np.ndarray,
              tol: float) -> PreimageResult:
    coeffs = np.sqrt(np.clip(weights, 0.0, None)) * np.exp(1j * phases)
    worst = float(_twirl_residuals(r, order, coeffs[:, :, None], weights).max(initial=0.0))
    return PreimageResult(worst <= tol, worst)


def _sampled_phases(n: int, random_draws: int, grid_points: int,
                    seed: int) -> np.ndarray:
    """Phase vectors of the preimage check, one row each, phase 0 fixed at 0.

    Zero phases, an axis-aligned grid of ``grid_points`` values per free
    phase, then ``random_draws`` joint uniform draws from ``seed``.
    """
    angles = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)[1:]
    grid = np.kron(np.eye(n)[1:], angles[:, None])
    draws = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(random_draws, n))
    draws[:, 0] = 0.0
    return np.concatenate([np.zeros((1, n)), grid, draws])


def verify_mixture_invariance(group: UnitaryGroup, basis, weights, *,
                              tol: float = GROUP_TOL) -> InvarianceResult:
    """Check that the twirl fixes sum_k w_k |basis_k><basis_k| within ``tol``.

    The deviation is the Frobenius norm of the twirl residual, computed on
    the factors; it bounds the max-entry norm of :func:`verify_invariance`
    from above, so this check is never the looser one.
    """
    rows, weights = _mixture_rows(group, basis, weights)
    return _invariance(_moved_r(group, rows), group.order, weights, tol)


def verify_preimage(group: UnitaryGroup, basis, weights, *, tol: float = GROUP_TOL,
                    random_draws: int = PREIMAGE_DRAWS,
                    grid_points: int = PREIMAGE_GRID_POINTS,
                    seed: int = PREIMAGE_SEED,
                    phases: list | None = None) -> PreimageResult:
    """Check that phased superpositions of ``basis`` twirl onto the mixture.

    Every member sqrt(w_k) e^{i phi_k}|basis_k> must twirl to
    sum_k w_k |basis_k><basis_k| regardless of the phases. Sampled phase
    assignments are an axis-aligned grid of ``grid_points`` values per free
    phase plus ``random_draws`` joint uniform draws from a fixed seed; pass
    ``phases`` (a list of full-length phase vectors) to override. The basis
    and weights are validated once; all assignments then share one thin QR
    of the moved basis, and the deviation is the largest Frobenius norm of
    a twirl residual (see :func:`verify_mixture_invariance`).
    """
    rows, weights = _mixture_rows(group, basis, weights)
    n = len(rows)
    if phases is None:
        phases = _sampled_phases(n, random_draws, grid_points, seed)
    elif any(np.size(vec) != n for vec in phases):
        raise ValueError("basis, weights, and phases must have equal lengths")
    phases = np.asarray(phases, dtype=float).reshape(-1, n)
    return _preimage(_moved_r(group, rows), group.order, weights, phases, tol)


def _verify_family(group: UnitaryGroup, basis, weights, *, tol: float = GROUP_TOL,
                   seed: int = PREIMAGE_SEED) -> tuple[InvarianceResult, PreimageResult]:
    """:func:`verify_mixture_invariance` and :func:`verify_preimage` at
    ``tol`` and ``seed`` (their other arguments at the defaults), read from
    one moved basis and one thin QR.

    Both deviations are bit-identical to those of the two separate calls,
    which compute the same R.
    """
    rows, weights = _mixture_rows(group, basis, weights)
    r = _moved_r(group, rows)
    return (_invariance(r, group.order, weights, tol),
            _preimage(r, group.order, weights,
                      _sampled_phases(len(rows), PREIMAGE_DRAWS, PREIMAGE_GRID_POINTS,
                                      seed),
                      tol))
