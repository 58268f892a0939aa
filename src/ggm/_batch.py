"""Vectorized evaluation kernels shared by the pure and mixed pipelines.

Everything here operates on raw complex arrays; validation and the public
contracts live in the calling modules. Batches are processed in fixed row
blocks so memory stays bounded and results are independent of blocking.

Cuts are bitmasks of their canonical side I (bit i set when party i is on
side I, so bit 0 is always set), in the order of
:func:`~ggm.hilbert.enumerate_bipartitions`.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .hilbert import SystemShape, enumerate_bipartitions

_CHUNK = 1 << 16

# Gathered complex amplitudes per row block of the Schmidt kernel. With
# 2^19 the generic-states benchmark's peak RSS rose from 90 to 105 MB, and
# 2^20 ran 25-30% slower than 2^16 on 16k-64k unreduced rows of 3-5 parties.
_BLOCK_ENTRIES = 1 << 16

# Phase minimizer settings, shared by every caller: the scan grid per free
# phase (its spacing is also the golden-section bracket), the bracket width
# at which refinement stops, the per-cycle improvement below which cycles
# stop, and the cycle budgets of cold (seeded and scanned) and warm
# (refinement only) starts.
PHASE_GRID_POINTS = 32
PHASE_STEP_TOL = 1e-4
PHASE_VALUE_TOL = 1e-9
COLD_CYCLES = 8
WARM_CYCLES = 3


@functools.lru_cache(maxsize=None)
def canonical_cut_masks(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Bitmasks of every canonical cut of ``dims``, in enumeration order."""
    return tuple(sum(1 << i for i in cut.side_I)
                 for cut in enumerate_bipartitions(SystemShape(dims)))


class _GramGroup:
    """Cuts sharing one Gram shape (dim_small, dim_big), gathered at once.

    ``index[m, r, c]`` is the flat amplitude index of entry (r, c) of cut
    m's matricization, rows on its smaller side (side I on a tie).
    """

    __slots__ = ("columns", "index")

    def __init__(self, columns, index):
        # Cached and shared by every caller, so frozen.
        self.columns = np.array(columns)
        self.index = np.stack(index)
        self.columns.setflags(write=False)
        self.index.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _gram_groups(dims: tuple[int, ...], masks: tuple[int, ...]) -> tuple[_GramGroup, ...]:
    flat = np.arange(math.prod(dims)).reshape(dims)
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for column, mask in enumerate(masks):
        side_i = tuple(p for p in range(len(dims)) if mask >> p & 1)
        side_l = tuple(p for p in range(len(dims)) if not mask >> p & 1)
        d_i = math.prod(dims[p] for p in side_i)
        d_l = math.prod(dims[p] for p in side_l)
        small, big = (side_i, side_l) if d_i <= d_l else (side_l, side_i)
        shape = (min(d_i, d_l), max(d_i, d_l))
        columns, index = groups.setdefault(shape, ([], []))
        columns.append(column)
        index.append(flat.transpose(small + big).reshape(shape))
    return tuple(_GramGroup(c, i) for c, i in groups.values())


def _eigmax_herm(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of a stack of small Hermitian matrices (d >= 2)."""
    if mats.shape[-1] == 2:
        # Analytic form; much faster than LAPACK for 2x2 stacks.
        half_tr = 0.5 * (mats[..., 0, 0].real + mats[..., 1, 1].real)
        half_diff = 0.5 * (mats[..., 0, 0].real - mats[..., 1, 1].real)
        disc = np.sqrt(half_diff * half_diff + np.abs(mats[..., 0, 1]) ** 2)
        return half_tr + disc
    return np.linalg.eigvalsh(mats)[..., -1]


def schmidt_sq_matrix(amps: np.ndarray, dims: tuple[int, ...],
                      masks: tuple[int, ...] | None = None) -> np.ndarray:
    """Top squared Schmidt coefficient of every row across every cut.

    ``amps`` has shape (K, total_dim); ``masks`` selects the cuts (all
    canonical cuts by default). Returns shape (K, n_cuts), clipped to
    [0, 1]. Each row is computed on its own, so the result does not depend
    on how rows are blocked.
    """
    dims = tuple(dims)
    if masks is None:
        masks = canonical_cut_masks(dims)
    groups = _gram_groups(dims, tuple(masks))
    k = amps.shape[0]
    out = np.empty((k, len(masks)))
    step = max(1, _BLOCK_ENTRIES // (len(masks) * amps.shape[1]))
    for start in range(0, k, step):
        block = amps[start:start + step]
        for group in groups:
            mats = block[:, group.index]
            gram = mats @ mats.conj().swapaxes(-1, -2)
            out[start:start + step, group.columns] = _eigmax_herm(gram)
    return np.clip(out, 0.0, 1.0, out=out)


def max_schmidt_sq_batch(amps: np.ndarray, dims: tuple[int, ...],
                         masks: tuple[int, ...] | None = None) -> np.ndarray:
    """Per-state maximum squared Schmidt coefficient over the given cuts.

    ``amps`` has shape (K, total_dim); returns shape (K,).
    """
    return schmidt_sq_matrix(amps, dims, masks).max(axis=1)


def ggm_batch(amps: np.ndarray, dims: tuple[int, ...],
              masks: tuple[int, ...] | None = None) -> np.ndarray:
    return 1.0 - max_schmidt_sq_batch(amps, dims, masks)


def fixing_transpositions(basis: np.ndarray,
                          dims: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Party swaps (i, j), d_i == d_j, that leave every basis row unchanged.

    Equality is exact, so a swap found here fixes every superposition of
    the rows too.
    """
    tensors = basis.reshape((basis.shape[0],) + tuple(dims))
    return tuple(
        (i, j) for i, j in itertools.combinations(range(len(dims)), 2)
        if dims[i] == dims[j]
        and np.array_equal(np.swapaxes(tensors, i + 1, j + 1), tensors))


def orbit_representatives(n_parties: int, masks: tuple[int, ...],
                          swaps) -> tuple[int, ...]:
    """First cut of each orbit under the group generated by ``swaps``.

    ``masks`` lists every canonical cut, so each swap maps it onto itself.
    Orbits are the connected components of the graph joining each cut to
    its image under each swap, so the group itself is never enumerated.
    """
    column = {mask: c for c, mask in enumerate(masks)}
    parent = list(range(len(masks)))

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    full = (1 << n_parties) - 1
    for c, mask in enumerate(masks):
        for i, j in swaps:
            if (mask >> i ^ mask >> j) & 1:
                image = mask ^ (1 << i | 1 << j)
                if not image & 1:
                    image ^= full
                a, b = root(c), root(column[image])
                parent[max(a, b)] = min(a, b)
    return tuple(mask for c, mask in enumerate(masks) if root(c) == c)


class PhaseObjective:
    """GGM of sum_k sqrt(w_k) e^{i phi_k} |basis_k> as a function of phases.

    Evaluates whole batches of (weights, phases) rows at once; one instance
    is reused across an entire surface computation. Only one cut per orbit
    of the party swaps fixing every basis state is evaluated: such a swap
    fixes every phased superposition too, so a cut and its image have the
    same Schmidt spectrum.
    """

    def __init__(self, basis_matrix: np.ndarray, dims: tuple[int, ...]):
        self.basis = np.asarray(basis_matrix, dtype=complex)  # (n_basis, D)
        self.dims = tuple(dims)
        self.masks = orbit_representatives(
            len(self.dims), canonical_cut_masks(self.dims),
            fixing_transpositions(self.basis, self.dims))

    @property
    def n_basis(self) -> int:
        return self.basis.shape[0]

    def values(self, roots: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """GGM for rows of sqrt-weights ``roots`` and ``phases``, both (K, n)."""
        coeff = roots * np.exp(1j * phases)
        return ggm_batch(coeff @ self.basis, self.dims, self.masks)


def _golden_refine(objective, roots, phases, coord, rows, half_width, step_tol):
    """Lockstep golden-section refinement of one phase coordinate.

    Only ``rows`` participate; the rest keep their phase. Brackets shrink
    until narrower than ``step_tol`` radians.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = phases[rows, coord] - half_width
    hi = phases[rows, coord] + half_width

    def probe(vals):
        p = phases[rows].copy()
        p[:, coord] = vals
        return objective.values(roots[rows], p)

    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = probe(c), probe(d)
    while np.max(hi - lo) > step_tol:
        left = fc < fd
        old_c, old_d, old_fc, old_fd = c, d, fc, fd
        hi = np.where(left, old_d, hi)
        lo = np.where(left, lo, old_c)
        width = hi - lo
        c = np.where(left, hi - invphi * width, old_d)
        d = np.where(left, old_c, lo + invphi * width)
        fresh = probe(np.where(left, c, d))
        fc = np.where(left, fresh, old_fd)
        fd = np.where(left, old_fc, fresh)
    phases[rows, coord] = 0.5 * (lo + hi)


def _joint_seed_size(n_free: int) -> int:
    # Joint seeding guards against coordinate descent stalling in a local
    # minimum when several phases must move together; sizes keep the
    # Cartesian budget flat across arities.
    if n_free <= 1:
        return 0
    return 8 if n_free <= 3 else 4


def _apply_joint_seeds(objective, roots, phases, values, active, gauge):
    """Replace each row's starting phases by its best Cartesian seed.

    Rows are grouped by their pattern of active (weight > 0) coordinates so
    that seeds only range over genuinely free phases.
    """
    groups: dict[tuple, list[int]] = {}
    for row in range(active.shape[0]):
        groups.setdefault(
            (active[row].tobytes(), int(gauge[row])), []).append(row)
    for (active_key, g), members in groups.items():
        mask = np.frombuffer(active_key, dtype=bool)
        free = [c for c in range(mask.size) if mask[c] and c != g]
        size = _joint_seed_size(len(free))
        if size == 0:
            continue
        rows = np.array(members)
        angles = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
        combos = np.array(list(itertools.product(angles, repeat=len(free))))
        per_call = max(1, _CHUNK // rows.size)
        for start in range(0, combos.shape[0], per_call):
            block = combos[start:start + per_call]
            cand = np.repeat(phases[rows][:, None, :], block.shape[0], axis=1)
            cand[:, :, free] = block[None, :, :]
            cand = cand.reshape(-1, phases.shape[1])
            vals = objective.values(
                np.repeat(roots[rows], block.shape[0], axis=0), cand
            ).reshape(rows.size, block.shape[0])
            best = np.argmin(vals, axis=1)
            improved = vals[np.arange(rows.size), best] < values[rows]
            hit = rows[improved]
            values[hit] = vals[improved, best[improved]]
            phases[hit] = cand.reshape(rows.size, block.shape[0], -1)[
                improved, best[improved]]


def minimize_phases(
    objective: PhaseObjective,
    weights: np.ndarray,
    init_phases: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-descent phase minimization for a batch of weight rows.

    Each row minimizes over the phases of its strictly positive weights;
    the first active element is gauged to phase 0. A cold start (no
    ``init_phases``) is seeded with the best point of a joint Cartesian
    phase lattice, then per cycle every free coordinate is scanned on a
    ``PHASE_GRID_POINTS`` grid and refined by golden section to below
    ``PHASE_STEP_TOL`` radians, for up to ``COLD_CYCLES`` cycles. A warm
    start from ``init_phases`` only refines, for up to ``WARM_CYCLES``
    cycles. Cycles stop early once no row improves by more than
    ``PHASE_VALUE_TOL``.

    Returns (values, phases), shapes (K,) and (K, n_basis).
    """
    weights = np.asarray(weights, dtype=float)
    k, n = weights.shape
    roots = np.sqrt(np.clip(weights, 0.0, None))
    active = weights > 0.0
    gauge = np.argmax(active, axis=1)

    cold_start = init_phases is None
    phases = np.zeros((k, n)) if cold_start else np.array(init_phases, dtype=float)
    phases[~active] = 0.0
    phases[np.arange(k), gauge] = 0.0

    grid = np.linspace(0.0, 2.0 * np.pi, PHASE_GRID_POINTS, endpoint=False)
    half_width = 2.0 * np.pi / PHASE_GRID_POINTS
    values = objective.values(roots, phases)
    if cold_start:
        _apply_joint_seeds(objective, roots, phases, values, active, gauge)

    for _ in range(COLD_CYCLES if cold_start else WARM_CYCLES):
        cycle_start = values.copy()
        for coord in range(n):
            rows = np.flatnonzero(active[:, coord] & (gauge != coord))
            if rows.size == 0:
                continue
            if cold_start:
                cand_phases = np.repeat(phases[rows], PHASE_GRID_POINTS, axis=0)
                cand_phases[:, coord] = np.tile(grid, rows.size)
                cand = objective.values(
                    np.repeat(roots[rows], PHASE_GRID_POINTS, axis=0), cand_phases
                ).reshape(rows.size, PHASE_GRID_POINTS)
                best = np.argmin(cand, axis=1)
                better = cand[np.arange(rows.size), best] < values[rows]
                phases[rows[better], coord] = grid[best[better]]
            _golden_refine(objective, roots, phases, coord, rows, half_width,
                           PHASE_STEP_TOL)
        values = objective.values(roots, phases)
        if np.max(cycle_start - values) <= PHASE_VALUE_TOL:
            break
    phases = np.mod(phases + np.pi, 2.0 * np.pi) - np.pi
    phases[~active] = 0.0
    phases[np.arange(k), gauge] = 0.0
    return values, phases
