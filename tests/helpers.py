"""Test-side references, independent of the code they check.

The dense twirl builds each group element as the Kronecker product of its
factors, party 0 most significant, and averages g A g^dagger over the
elements; ``equal_up_to_phase`` compares such full matrices up to a global
phase. ``two_qubit_ggm`` is the geometric measure of a two-qubit state from
Wootters' concurrence. ``hessian_report`` drives the library's
central-difference Hessian on a plain function of simplex points, as
``ggm_mixed`` drives it on a surface. ``reference_probe`` is the one-phase
probe of the Gram pencil as it was before its P, S and T were stored
component-major: interleaved Gram reals per row, the closed forms of
``reference_eigmax_packed`` on them, and the outer-product reals of
``reference_outer_reals``. ``reference_minimize_phases`` is the phase
minimizer without its bracket test or its stop: golden section on every
row and free phase of every cycle of a fixed budget.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from ggm import (PureState, SystemShape, TwirledFamily, UnitaryGroup, _batch, builtin_group,
                 roof, sector_state)
from ggm.twirl import GROUP_TOL

TWO_QUBITS = SystemShape((2, 2))


def kron_all(factors):
    return functools.reduce(np.kron, factors, np.ones((1, 1), dtype=complex))


def dense_twirl(group, operator):
    """(1/|G|) sum_g g A g^dagger over full matrices, for a D x D array A."""
    fulls = [kron_all(el) for el in group.elements]
    return sum(m @ operator @ m.conj().T for m in fulls) / group.order


def equal_up_to_phase(a, b, tol=GROUP_TOL):
    """Full-matrix equality up to a global phase: the reference that
    ``twirl._factors_equal_up_to_phase`` is never looser than."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return bool(np.max(np.abs(a)) <= tol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - phase * b)) <= tol)


def two_qubit_ggm(rho):
    """(1 - sqrt(1 - C^2)) / 2 for a 4 x 4 two-qubit density matrix, with C
    Wootters' concurrence (PRL 80, 2245 (1998); Wei & Goldbart, PRA 68,
    042307 (2003)).

    C = max(0, s_1 - s_2 - s_3 - s_4) over the singular values s_i of
    A^T (sigma_y (x) sigma_y) A, for any factor rho = A A^dagger; singular
    values keep the vanishing ones near 0, where the square roots of the
    eigenvalues of rho rho~ would resolve them only to about 1e-8.
    """
    lam, vec = np.linalg.eigh(rho)
    factor = vec * np.sqrt(np.clip(lam, 0.0, None))
    yy = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])
    s = np.linalg.svd(factor.T @ yy @ factor, compute_uv=False)
    concurrence = max(0.0, s[0] - s[1:].sum())
    return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - concurrence**2)))


def seeded_sector_family(seed):
    """omega(3) family of the three charge sectors of 3 qubits, each a
    seeded complex superposition of its basis states: unlike the built-in
    families, its minimizing phases move with the weights."""
    rng = np.random.default_rng(seed)
    shape = SystemShape((2, 2, 2))
    basis = []
    for k, size in enumerate((2, 3, 3)):
        q = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        basis.append(sector_state(shape, 3, k, q / np.linalg.norm(q)))
    return TwirledFamily(group=builtin_group("omega", shape), basis=tuple(basis))


def seeded_two_qubit_basis(seed=0):
    """Two orthonormal two-qubit states: the columns of a seeded complex QR."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
    return tuple(PureState(TWO_QUBITS, q[:, i]) for i in range(2))


def trivial_group(shape):
    """The one-element group on a system of qubits."""
    return UnitaryGroup(shape, [(np.eye(2),) * shape.party_count])


def swapping_group():
    """{I, X(x)X, Z(x)I, ZX(x)X}, a group up to phases whose X(x)X swaps
    |00> and |11>."""
    eye, x, z = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    return UnitaryGroup(TWO_QUBITS, [(eye, eye), (x, x), (z, eye), (z @ x, x)])


class HessianReport(NamedTuple):
    min_eigenvalues: np.ndarray
    skipped: np.ndarray
    flagged: np.ndarray


def hessian_report(f, points, h=roof.HESSIAN_STEP):
    """Minimum Hessian eigenvalue of ``f`` at each of the (K, arity) ``points``.

    ``f`` maps a vector of free simplex coordinates to a value. Points closer
    than ``2 h`` to the simplex boundary are skipped, keep a NaN eigenvalue,
    and ``f`` is called neither at them nor at their stencils; an evaluated
    point is flagged when its eigenvalue falls below ``-NONCONVEX_TOL``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))

    def apply(pts):
        return np.array([f(p) for p in pts], dtype=float)

    min_eig = roof._hessian_min_eig(points, h, lambda rows: apply(points[rows]),
                                    lambda stencil, _owners: apply(stencil))
    skipped = ~roof._interior(points, h)
    return HessianReport(min_eig, skipped, ~skipped & (min_eig < -roof.NONCONVEX_TOL))


def reference_outer_reals(coeff):
    """|c_k|^2, then Re and Im of c_k conj(c_l) for k < l, of each row of
    ``coeff``, the pairs gathered by index from the row-major views."""
    n = coeff.shape[1]
    first, second = np.triu_indices(n, 1)
    re, im = coeff.real, coeff.imag
    re_k, im_k, re_l, im_l = re[:, first], im[:, first], re[:, second], im[:, second]
    reals = np.empty((coeff.shape[0], n * n))
    reals[:, :n] = np.square(re) + np.square(im)
    reals[:, n::2] = re_k * re_l + im_k * im_l
    reals[:, n + 1::2] = im_k * re_l - re_k * im_l
    return reals


def reference_eigmax_packed(gram):
    """Top eigenvalue of a stack of packed Grams of 1, 2 or 3 rows (1, 4 or
    9 reals), by the closed forms on strided views of the packed reals."""
    size = gram.shape[-1]
    if size == 1:
        return gram[..., 0]
    if size == 4:
        top = gram[..., 0] + gram[..., 1]
        top *= 0.5
        disc = gram[..., 0] - gram[..., 1]
        disc *= 0.5
        disc *= disc
        off = np.abs(gram[..., 2:].view(complex)[..., 0])
        off *= off
        disc += off
        top += np.sqrt(disc, out=disc)
        return top
    d0, d1, d2 = (gram[..., i] for i in range(3))
    q = (d0 + d1 + d2) / 3.0
    d0, d1, d2 = d0 - q, d1 - q, d2 - q
    off = gram[..., 3:].view(complex)
    a01, a12, a02 = off[..., 0], off[..., 1], off[..., 2]
    s01, s02, s12 = (a.real * a.real + a.imag * a.imag for a in (a01, a02, a12))
    p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (s01 + s02 + s12)) / 6.0
    det = (d0 * d1 * d2 - d0 * s12 - d1 * s02 - d2 * s01
           + 2.0 * (a01 * a12 * a02.conj()).real)
    p = np.sqrt(p2)
    denom = 2.0 * p * p2
    r = np.divide(det, denom, out=np.zeros_like(det), where=denom > 0.0)
    np.clip(r, -1.0, 1.0, out=r)
    top = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
    near = r < _batch._DOUBLE_TOP_GUARD - 1.0
    if near.any():
        top[near] = np.linalg.eigvalsh(_batch._unpack(gram[near]))[:, -1]
    return top


def reference_probe(objective, roots, phases, coord):
    """``objective.pencil(roots, phases, coord)`` with P, S and T in the
    Gram layout of ``_batch._gram``, row by row; its probe takes angles (K,)
    or (K, m), one row of angles per pencil row."""
    n, count = len(objective.basis), len(roots)
    first, second = np.triu_indices(n, 1)
    turned = n + np.flatnonzero(np.repeat((first == coord) | (second == coord), 2))
    coeff = roots * np.exp(1j * phases)
    coeff[:, coord] = roots[:, coord]
    reals = np.zeros((3, count, n * n))  # O_P, O_S, O_T
    reals[0] = reference_outer_reals(coeff)
    reals[1][:, turned] = reals[0][:, turned]
    reals[0][:, turned] = 0.0
    coeff[:, coord] = 1j * roots[:, coord]
    reals[2][:, turned] = reference_outer_reals(coeff)[:, turned]
    reals = reals.reshape(3 * count, n * n)
    pencils = [_batch._combine(reals, table).reshape(
                   3, count, 1, columns.size, table.shape[1] // columns.size)
               for columns, table in objective.tables]

    def probe(angles):
        angles = np.asarray(angles, dtype=float)
        flat = angles.reshape(count, math.prod(angles.shape[1:]))
        top = np.empty(flat.shape)
        step = max(1, _batch._BLOCK_ENTRIES // (flat.shape[1] * objective.row_entries))
        for start in range(0, flat.shape[0], step):
            rows = slice(start, start + step)
            block = flat[rows, :, None, None]
            cos, sin = np.cos(block), np.sin(block)
            best = None
            for p, s, t in pencils:
                gram = cos * s[rows]
                gram += p[rows]
                gram += sin * t[rows]
                tops = (reference_eigmax_packed(gram) if gram.shape[-1] <= 9
                        else _batch._tops(gram, best)).max(axis=-1)
                best = tops if best is None else np.maximum(best, tops)
            top[rows] = best
        return 1.0 - np.clip(top, 0.0, 1.0, out=top).reshape(angles.shape)

    return probe


def reference_minimize_phases(objective, weights, init_phases=None,
                              cycles=_batch.PHASE_CYCLES):
    """``_batch.minimize_phases`` without its bracket test or its stop: each
    of ``cycles`` cycles refines every free phase of every row by golden
    section, and one full evaluation follows the last."""
    weights = np.asarray(weights, dtype=float)
    k, n = weights.shape
    roots = np.sqrt(np.clip(weights, 0.0, None))
    active = weights > 0.0
    gauge = np.argmax(active, axis=1)
    cold_start = init_phases is None
    phases = np.zeros((k, n)) if cold_start else np.array(init_phases, dtype=float)
    phases[~active] = 0.0
    phases[np.arange(k), gauge] = 0.0
    if cold_start:
        values = objective.values(roots, phases)
        _batch._apply_joint_seeds(objective, roots, phases, values, active, gauge)
    step = max(1, _batch._BLOCK_ENTRIES // objective.row_entries)
    for _ in range(cycles):
        for coord in range(n):
            rows = np.flatnonzero(active[:, coord] & (gauge != coord))
            for start in range(0, rows.size, step):
                block = rows[start:start + step]
                _batch._golden_refine(objective.pencil(roots[block], phases[block], coord),
                                      phases, coord, block)
    values = objective.values(roots, phases)
    phases = np.mod(phases + np.pi, 2.0 * np.pi) - np.pi
    phases[~active] = 0.0
    phases[np.arange(k), gauge] = 0.0
    return values, phases
