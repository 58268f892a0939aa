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

# Matrix entries per row block of the Schmidt kernel. With 2^19 the
# generic-states benchmark's peak RSS rose from 90 to 105 MB, and 2^20 ran
# 25-30% slower than 2^16 on 16k-64k unreduced rows of 3-5 parties.
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
    others = [1 << p for p in range(1, len(dims))]
    return tuple(1 | sum(combo) for k in range(len(dims) - 1)
                 for combo in itertools.combinations(others, k))


@functools.lru_cache(maxsize=None)
def _gram_groups(dims: tuple[int, ...], masks: tuple[int, ...]) -> tuple[tuple, ...]:
    """``masks`` grouped by matricization shape, for :func:`_support_groups`.

    ``(shape, columns, index)`` per shape (dim_small, dim_big), in
    increasing order of shape: ``columns`` are the positions in ``masks`` of
    the shape's cuts and ``index[m, r, c]`` is the flat amplitude index of
    entry (r, c) of cut m's matricization, rows on its smaller side (side I
    on a tie).
    """
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
    return tuple((shape, _frozen(np.array(columns)), _frozen(np.stack(index)))
                 for shape, (columns, index) in sorted(groups.items()))


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, read-only: cached tables are shared by every caller."""
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=None)
def _reduced_plan(dims: tuple[int, ...]) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """How :func:`schmidt_sq_matrix` forms the Gram of every canonical cut.

    A cut's Gram on its smaller side S (side I on a tie) is the reduced
    state rho_S of the row, and rho_S = Tr_p rho_{S + p} for every party p
    outside S. Sides are planned from the largest dimension down: a side
    with a planned one-party superset is traced from it, over the party of
    smallest dimension (the lowest one on a tie), and any other side is a
    root, gathered from the amplitudes.

    Returns ``(groups, order)``. A group is ``(rows, columns, parent,
    index)``: its cuts sit at ``columns`` of :func:`canonical_cut_masks`
    and their Grams have ``rows`` rows, in the layout of :func:`_gram`. A
    root group (``parent`` None) holds its sides' matricizations,
    ``index[m, r, c]`` being the flat amplitude index of entry (r, c) of
    cut m's, rows on S. A traced group takes its Grams from the group at
    position ``parent``, whose Grams all have ``rows * d_p`` rows (more
    than 3, so they are the real views of full complex matrices): the
    Grams are the sum over the traced party's values a of the gathers
    ``index[a]`` (see :func:`_trace_index`). Parents precede their
    children, and ``order`` lists the groups in increasing Gram rows.
    """
    n, total = len(dims), math.prod(dims)

    def size(side):
        return math.prod(dims[p] for p in range(n) if side >> p & 1)

    sides = [mask if size(mask) ** 2 <= total else mask ^ ((1 << n) - 1)
             for mask in canonical_cut_masks(dims)]
    columns = {side: column for column, side in enumerate(sides)}
    flat = np.arange(total).reshape(dims)
    keys: dict[tuple, int] = {}
    groups: list[tuple[int, list, int | None, list]] = []
    placed: dict[int, tuple[int, int]] = {}  # side -> (group, position in it)
    # sorted is stable: sides of one size keep the enumeration order
    for side in sorted(sides, key=size, reverse=True):
        rows = size(side)
        outside = [p for p in range(n) if not side >> p & 1]
        traced = [(dims[p], p) for p in outside if side | 1 << p in placed]
        if traced:
            d_p, party = min(traced)
            parent, position = placed[side | 1 << party]
            key = (parent, rows, d_p)
            entry = _trace_index(dims, side, party, position)
        else:
            key = (None, rows, None)
            inside = [p for p in range(n) if side >> p & 1]
            entry = flat.transpose(inside + outside).reshape(rows, -1)
        if key not in keys:
            keys[key] = len(groups)
            groups.append((rows, [], key[0], []))
        group = groups[keys[key]]
        placed[side] = (keys[key], len(group[1]))
        group[1].append(columns[side])
        group[3].append(entry)
    plan = tuple((rows, _frozen(np.array(members)), parent,
                  _frozen(np.stack(entries, axis=0 if parent is None else 1)))
                 for rows, members, parent, entries in groups)
    return plan, tuple(sorted(range(len(plan)), key=lambda g: plan[g][0]))


def _trace_index(dims: tuple[int, ...], side: int, party: int,
                 position: int) -> np.ndarray:
    """Gather index of the Gram of ``side`` from the one of ``side`` plus
    ``party``, at ``position`` in a stack of such Grams: shape (d_party,
    entries), row a for ``party`` at value a.

    A Gram of more than 3 rows is gathered as complex entries from the
    stack's complex view, row-major (the real view of the result is its
    layout, and a complex gather is about twice as fast as gathering its
    reals); a packed one as its reals (see :func:`_packed_reals`) from the
    stack's real view.
    """
    parties = [p for p in range(len(dims)) if (side | 1 << party) >> p & 1]
    rows_t = math.prod(dims[p] for p in parties)
    parent_rows = np.arange(rows_t).reshape([dims[p] for p in parties])
    index = []
    for a in range(dims[party]):
        t = parent_rows.take(a, axis=parties.index(party)).reshape(-1)
        entry = (position * rows_t * rows_t + t[:, None] * rows_t + t).reshape(-1)
        if t.size <= 3:
            entry = (2 * entry[:, None] + np.arange(2)).reshape(-1)[_packed_reals(t.size)]
        index.append(entry)
    return np.stack(index)


def _eigmax_herm(gram: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of a stack of Grams laid out as :func:`_gram` lays
    them out, chosen by their length.

    Grams of up to 3 rows (1, 4 or 9 reals) take closed forms, much faster
    than LAPACK's per-matrix calls at these sizes; a 1-row Gram is its own
    eigenvalue. Larger ones take ``eigvalsh`` on their complex view.
    """
    size = gram.shape[-1]
    if size == 1:
        return gram[..., 0]
    if size == 4:
        # 0.5 (g00 + g11) + sqrt((0.5 (g00 - g11))^2 + |g01|^2), in place
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
    if size == 9:
        return _eigmax_herm3(gram)
    return np.linalg.eigvalsh(_unpack(gram))[..., -1]


@functools.lru_cache(maxsize=None)
def _packed_reals(rows: int) -> np.ndarray:
    """Where a packed Gram's reals (see :func:`_gram`) sit in the real view
    of the row-major complex matrix: the diagonal's real parts, then the
    real and imaginary parts of (0, 1), (1, 2), ..., (0, 2), ..."""
    index = np.array([2 * i * (rows + 1) for i in range(rows)]
                     + [2 * (i * rows + i + d) + part for d in range(1, rows)
                        for i in range(rows - d) for part in (0, 1)])
    return _frozen(index)


def _pack(full: np.ndarray) -> np.ndarray:
    """Gram layout (see :func:`_gram`) of a stack of full complex matrices:
    of more than 3 rows, their real view."""
    reals = full.view(float).reshape(full.shape[:-2] + (-1,))
    if full.shape[-1] > 3:
        return reals
    # take, not an index: an index on the last axis leaves it non-contiguous
    return np.take(reals, _packed_reals(full.shape[-1]), axis=-1)


def _unpack(gram: np.ndarray) -> np.ndarray:
    """Full Hermitian matrices of a stack of Grams (see :func:`_gram`); of
    more than 3 rows (2d^2 reals, at least 32), their complex view."""
    size = gram.shape[-1]
    if size > 9:
        rows = math.isqrt(size // 2)
        return gram.view(complex).reshape(gram.shape[:-1] + (rows, rows))
    rows = math.isqrt(size)
    full = np.zeros(gram.shape[:-1] + (rows, rows), dtype=complex)
    full.view(float).reshape(gram.shape[:-1] + (-1,))[..., _packed_reals(rows)] = gram
    return full + np.triu(full, 1).conj().swapaxes(-1, -2)


# Rows of _eigmax_herm3 with r < -1 + _DOUBLE_TOP_GUARD, where the top two
# eigenvalues nearly meet, go to LAPACK: the closed form's error grows as
# eps * q / sqrt(1 + r) there. Measured against eigvalsh on 200k random
# unitary rotations of unit-trace spectra: unguarded, an exactly double
# top pair erred by 4.1e-9; with 1e-3, random spectra erred by at most
# 1.8e-15 and spectra just past the guard (r = -1 + 1.0001e-3) by 3.1e-15.
# The guard catches about 0.01% of rank-5 sampler rows and 1% of qutrit ones.
_DOUBLE_TOP_GUARD = 1e-3


def _eigmax_herm3(packed: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of a stack of packed 3x3 Hermitian matrices.

    With q = tr A / 3, p^2 = tr (A - qI)^2 / 6 and r = det(A - qI) / (2p^3),
    the eigenvalues are q + 2p cos((acos r + 2 pi k) / 3), k = 0 the largest
    (Kopp, IJMPC 19 (2008) 523, arXiv:physics/0610206). p^2 is a sum of
    squares, so it has no cancellation; a triple root (p = 0) gives q.
    Every row is computed on its own, element by element or by one LAPACK
    call per guarded matrix (rebuilt in full), so no result depends on the
    stack around it.
    """
    d0, d1, d2 = (packed[..., i] for i in range(3))
    q = (d0 + d1 + d2) / 3.0
    d0, d1, d2 = d0 - q, d1 - q, d2 - q
    off = packed[..., 3:].view(complex)
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
    near = r < _DOUBLE_TOP_GUARD - 1.0
    if near.any():
        top[near] = np.linalg.eigvalsh(_unpack(packed[near]))[:, -1]
    return top


def _combine(block: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``block @ flat``: sum_k c_k B_k for coefficient rows c over flattened
    basis blocks B_k (the envelope's plane values take it too).

    BLAS's matrix-vector product, which numpy takes for a one-row block,
    rounds differently from its matrix-matrix product, so such a block is
    given a second row to keep every row's bits independent of the blocking.
    """
    if block.shape[0] == 1:
        return (np.repeat(block, 2, axis=0) @ flat)[:1]
    return block @ flat


def _gram(mats: np.ndarray) -> np.ndarray:
    """Hermitian Gram M M^dag of each matrix M of a stack.

    Up to 3 rows, the Gram is formed one diagonal at a time, packed: a real
    array whose last axis holds the ``rows`` diagonal entries, then the
    real and imaginary parts of the entries above the diagonal, diagonal by
    diagonal (see :func:`_packed_reals`), ``rows**2`` reals in all. The
    lower triangle, the conjugate of the upper one, is not stored. Diagonal
    d is one ``einsum`` of rows i and the conjugates of rows i + d. A
    stacked ``matmul`` makes one BLAS call per matrix: on blocks of
    thousands of such matrices it is 1.5-5x slower. ``einsum`` sums every
    entry over its columns in order, so no entry depends on the stack
    around it (a ``sum`` over the last axis does not give that). Larger
    Grams take ``matmul`` and are kept as the real view of the row-major
    complex matrix, ``2 * rows**2`` reals (at least 32): every Gram is one
    real vector, and its length tells its layout.
    """
    rows = mats.shape[-2]
    if rows > 3:
        return _pack(mats @ mats.conj().swapaxes(-1, -2))
    conj = mats.conj()
    packed = np.empty(mats.shape[:-2] + (rows * rows,))
    packed[..., :rows] = np.einsum("...ik,...ik->...i", mats, conj).real
    at = rows
    for d in range(1, rows):
        packed[..., at:at + 2 * (rows - d)].view(complex)[...] = np.einsum(
            "...ik,...ik->...i", mats[..., :rows - d, :], conj[..., d:, :])
        at += 2 * (rows - d)
    return packed


# A Gram of more than 3 rows whose Frobenius norm falls below the row's
# running maximum by more than this skips the top eigenvalue (see
# _store_tops). It exceeds pure.TIE_TOL plus the rounding of the bound and
# of eigvalsh, a few d * eps for a unit-trace Gram of d rows, so no cut
# within TIE_TOL of the maximum is skipped.
_PRUNE_SLACK = 1e-8


def _tops(gram: np.ndarray, best: np.ndarray | None) -> np.ndarray:
    """Top eigenvalue of each Gram of a (..., cuts, reals) stack.

    With a running maximum ``best`` (...), a Gram of more than 3 rows whose
    Frobenius norm falls below its row's ``best - _PRUNE_SLACK`` skips the
    top eigenvalue and holds that norm instead. Only there is the norm one
    dot product of the Gram's reals, the real view of the full matrix; a
    packed Gram holds one triangle, so the same dot would fall short of
    ||G||_F and skip cuts that reach the maximum. A correct bound for 2 or
    3 rows would let about 70% of the rank-5 sampler's 3x3 closed forms be
    skipped, but the norm and the subset cost as much as the closed form
    (55.1 against 55.2 ms per sampler bound), so those sizes are never
    skipped.
    """
    if best is None or gram.shape[-1] <= 9:
        return _eigmax_herm(gram)
    # ||G||_F^2 as one dot product of G's reals with themselves
    tops = np.sqrt((gram[..., None, :] @ gram[..., :, None])[..., 0, 0])
    live = tops >= best[..., None] - _PRUNE_SLACK
    if live.all():
        return _eigmax_herm(gram)
    if live.any():
        tops[live] = _eigmax_herm(gram[live])
    return tops


def _store_tops(out: np.ndarray, grams, max_only: bool) -> None:
    """Write the top eigenvalue of each ``(columns, gram)`` of ``grams``, in
    order, into ``out[:, columns]``.

    With ``max_only`` the caller reads only the row maximum and the cuts
    within ``pure.TIE_TOL`` of it. The Grams come in increasing order of
    rows, so the closed forms of 2 and 3 rows set a running maximum
    ``best`` per row first. A Gram G of more than 3 rows is PSD, so its top
    eigenvalue obeys lambda_max^2 <= sum_i lambda_i^2 = ||G||_F^2; a cut
    with ||G||_F < best - ``_PRUNE_SLACK`` cannot reach the maximum and
    skips ``eigvalsh``, its entry holding the bound ||G||_F instead. A cut
    within ``TIE_TOL`` of the maximum has ||G||_F >= max - TIE_TOL - (a few
    d * eps of rounding) > best - ``_PRUNE_SLACK``, so it is evaluated as
    without ``max_only``, by the same per-matrix LAPACK call on a subset of
    the stack (on the stack itself when nothing is skipped): the maximum
    and the cuts that attain it keep their bits (see :func:`_tops`).
    """
    best = None
    for columns, gram in grams:
        tops = _tops(gram, best)
        out[:, columns] = tops
        if max_only:
            top = tops.max(axis=1)
            best = top if best is None else np.maximum(best, top)


def _top_squares(coeff: np.ndarray, groups: tuple[tuple, ...], *,
                 max_only: bool = False) -> np.ndarray:
    """Top squared Schmidt coefficient per coefficient row and per cut,
    clipped to [0, 1].

    ``groups`` holds the ``(shape, columns, operand)`` of
    :func:`_support_groups`, in increasing order of shape: a row block's
    matrices of a group are ``_combine(block, operand)``, and output column
    ``columns[m]`` holds the group's cut m. Rows are blocked by
    ``_BLOCK_ENTRIES`` matrix entries (one row at least) and each is
    computed on its own, so the result does not depend on the blocking.
    ``max_only`` is that of :func:`_store_tops`.
    """
    out = np.empty((coeff.shape[0], sum(columns.size for _, columns, _ in groups)))
    row_entries = sum(columns.size * math.prod(shape) for shape, columns, _ in groups)
    step = max(1, _BLOCK_ENTRIES // row_entries)
    for start in range(0, coeff.shape[0], step):
        block = coeff[start:start + step]
        _store_tops(out[start:start + step], (
            (columns, _gram(_combine(block, operand).reshape(
                (block.shape[0], columns.size) + shape)))
            for shape, columns, operand in groups), max_only)
    return np.clip(out, 0.0, 1.0, out=out)


def _root_grams(block: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Grams of a root group (see :func:`_reduced_plan`) of the amplitude
    rows ``block``.

    The matricizations are gathered in chunks of about ``_BLOCK_ENTRIES /
    4`` entries (one cut at least), so the temporaries stay small even where
    one row holds more (a 10-qubit row gathers 129,024 amplitudes), and
    their Grams are written into one array. On the benchmark's 10-qubit
    states, chunks of ``_BLOCK_ENTRIES``, or chunk Grams concatenated at the
    end, made many calls page-fault about 900 times each, as the heap grew
    and was trimmed again, and such calls took up to twice as long.
    """
    step = max(1, (_BLOCK_ENTRIES >> 2) // (block.shape[0] * index[0].size))
    rows = index.shape[1]
    out = np.empty((block.shape[0], len(index), rows * rows * (1 if rows <= 3 else 2)))
    for lo in range(0, len(index), step):
        # np.take, about twice as fast as an index on the second axis
        out[:, lo:lo + step] = _gram(np.take(block, index[lo:lo + step], axis=1))
    return out


def _traced_grams(parent: np.ndarray, index: np.ndarray, rows: int) -> np.ndarray:
    """Grams of ``rows`` rows of a traced group (see :func:`_reduced_plan`)
    from its parent group's Grams ``parent`` (rows, cuts, reals): one
    gather per value of the traced party, summed in order by explicit adds
    (a ``sum`` over a short axis is many times slower)."""
    source = parent.reshape(parent.shape[0], -1)
    if rows > 3:
        source = source.view(complex)
    gram = np.take(source, index[0], axis=1)
    for part in index[1:]:
        gram += np.take(source, part, axis=1)
    return gram.view(float)


def schmidt_sq_matrix(amps: np.ndarray, dims: tuple[int, ...], *,
                      max_only: bool = False) -> np.ndarray:
    """Top squared Schmidt coefficient of every row across every cut.

    ``amps`` has shape (K, total_dim); returns shape (K, n_cuts), clipped
    to [0, 1], columns in enumeration order. A cut's Gram on its smaller
    side is the row's reduced state there, so only the root sides of
    :func:`_reduced_plan` are gathered from the amplitudes
    (:func:`_root_grams`); every other side is a partial trace of a larger
    side's Gram (:func:`_traced_grams`). Rows are blocked by
    ``_BLOCK_ENTRIES`` gathered amplitudes (one row at least), and every
    step is per row, so the result does not depend on the blocking. With
    ``max_only``, only the row maximum and the cuts within ``pure.TIE_TOL``
    of it are exact; see :func:`_store_tops`.
    """
    groups, order = _reduced_plan(tuple(dims))
    out = np.empty((amps.shape[0], sum(columns.size for _, columns, _, _ in groups)))
    gathered = sum(index.size for _, _, parent, index in groups if parent is None)
    step = max(1, _BLOCK_ENTRIES // gathered)
    for start in range(0, amps.shape[0], step):
        block = amps[start:start + step]
        grams = []
        for rows, _, parent, index in groups:
            grams.append(_root_grams(block, index) if parent is None
                         else _traced_grams(grams[parent], index, rows))
        _store_tops(out[start:start + step], ((groups[g][1], grams[g]) for g in order),
                    max_only)
    return np.clip(out, 0.0, 1.0, out=out)


# Singular values of a cut's joint support at or below this are dropped.
# Unit-norm basis rows make them absolute; see _support_groups for the bound.
_SUPPORT_TOL = 1e-13


def _support_groups(basis: np.ndarray, dims: tuple[int, ...],
                    masks: tuple[int, ...]) -> tuple[tuple, ...]:
    """Groups of the (n_basis, cuts * r1 * r2) compressed blocks of
    ``basis`` on ``masks``, for :func:`_combine`, in increasing order of
    (r1, r2).

    Rows of :func:`_combine` are coefficient vectors c over the rows |b_k>
    of ``basis`` (n_basis, D), which should be orthonormal. On every cut the
    matricization of sum_k c_k |b_k> is M(c) = sum_k c_k B_k. Two SVDs give
    orthonormal bases U of the joint column span and V of the joint row
    span of the B_k, and the group stores A_k = U^dag B_k V. Then
    M(c) = U A(c) V^dag with A(c) = sum_k c_k A_k, which has the singular
    values of M(c), so a row costs n_basis * r1 * r2 and touches no D-sized
    array. Where r1 > r2 the plain transpose A_k^T is stored:
    sum_k c_k A_k^T = A(c)^T keeps the singular values, while the conjugate
    transpose would conjugate c.

    Directions with singular value at most ``_SUPPORT_TOL`` are dropped.
    With P the projector onto the dropped column directions,
    M^dag M = (UU^dag M)^dag (UU^dag M) + (PM)^dag (PM), so dropping them
    lowers the top square by at most ||PM||^2 <= |c|^2 * sum sigma_dropped^2,
    and likewise on the row side. For a unit c the result is never above
    the exact value and falls short by at most the dropped squares of both
    sides, well inside the 2 * sqrt(sum sigma_dropped^2) that perturbing
    the singular values gives. Keeping a small direction is exact, so any
    basis is accepted.
    """
    n = basis.shape[0]
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for _, columns, index in _gram_groups(dims, masks):
        for column, cut in zip(columns, index):
            blocks = basis[:, cut]
            u, s, _ = np.linalg.svd(blocks.transpose(1, 0, 2).reshape(cut.shape[0], -1),
                                    full_matrices=False)
            u = u[:, s > _SUPPORT_TOL]
            _, s, vh = np.linalg.svd(blocks.reshape(-1, cut.shape[1]), full_matrices=False)
            v = vh[s > _SUPPORT_TOL].conj().T
            compressed = u.conj().T @ blocks @ v
            if compressed.shape[1] > compressed.shape[2]:
                compressed = compressed.swapaxes(1, 2)
            members, stacks = groups.setdefault(compressed.shape[1:], ([], []))
            members.append(column)
            stacks.append(compressed)
    return tuple((shape, np.array(members), np.stack(stacks, axis=1).reshape(n, -1))
                 for shape, (members, stacks) in sorted(groups.items()))


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
    Transpositions generate the product of the symmetric groups of the
    connected components C_j of the swap graph on the parties, so a side
    S can be sent to exactly those sides with the same counts |S ∩ C_j|.
    Two cuts therefore share an orbit exactly when the smaller of the count
    vectors of a side and of its complement agree, and the group itself is
    never enumerated.
    """
    component = list(range(n_parties))
    for i, j in swaps:
        old, new = sorted((component[i], component[j]), reverse=True)
        component = [new if c == old else c for c in component]
    bits = {}
    for p, c in enumerate(component):
        bits[c] = bits.get(c, 0) | 1 << p
    sizes = [m.bit_count() for m in bits.values()]
    firsts = {}
    for mask in masks:
        counts = tuple((mask & m).bit_count() for m in bits.values())
        key = min(counts, tuple(s - c for s, c in zip(sizes, counts)))
        firsts.setdefault(key, mask)
    return tuple(firsts.values())


class PhaseObjective:
    """GGM of superpositions sum_k c_k |basis_k>, by coefficient rows or as
    a function of phases (c_k = sqrt(w_k) e^{i phi_k}).

    Evaluates batches of rows on the compressed blocks of
    :func:`_support_groups`; one instance serves a whole surface or a whole
    decomposition sampler. Only one cut per orbit of the party swaps fixing
    every basis state is evaluated: such a swap fixes every superposition
    too, so a cut and its image have the same Schmidt spectrum.
    """

    def __init__(self, basis_matrix: np.ndarray, dims: tuple[int, ...]):
        self.basis = np.asarray(basis_matrix, dtype=complex)  # (n_basis, D)
        self.dims = tuple(dims)
        self.masks = orbit_representatives(
            len(self.dims), canonical_cut_masks(self.dims),
            fixing_transpositions(self.basis, self.dims))
        self._groups = _support_groups(self.basis, self.dims, self.masks)
        # Compressed block entries per row: a pencil of ``_BLOCK_ENTRIES //
        # row_entries`` rows keeps B, P, S and T within that many entries.
        self.row_entries = sum(columns.size * math.prod(shape)
                               for shape, columns, _ in self._groups)

    def measure(self, coeff: np.ndarray) -> np.ndarray:
        """GGM of each row of unit coefficient rows ``coeff`` (K, n_basis).

        The result does not depend on how rows are blocked.
        """
        return 1.0 - _top_squares(coeff, self._groups, max_only=True).max(axis=1)

    def values(self, roots: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """GGM for rows of sqrt-weights ``roots`` and ``phases``, both (K, n)."""
        return self.measure(roots * np.exp(1j * phases))

    def pencil(self, roots: np.ndarray, phases: np.ndarray, coord: int):
        """Probe of the rows' GGM as a function of phase ``coord`` alone.

        With B the block combination of a row without coefficient ``coord``
        (its phase there is ignored), A = A_coord and r = roots[:, coord],
        each cut's Gram at angle theta is the Hermitian pencil
        G(theta) = P + cos(theta) S + sin(theta) T with P = BB^dag + r^2 AA^dag,
        Q = r AB^dag, S = Q + Q^dag and T = i(Q - Q^dag). They are built once
        here (the caller bounds the rows: B has ``row_entries`` per row), in
        the layout of :func:`_gram`, so a probe's scaled adds touch the
        Gram's reals, and as in :meth:`values` a cut whose Frobenius bound
        cannot reach the probe's maximum so far skips the top eigenvalue.
        The returned ``probe(angles)``, angles (K,) or (K, m), gives the GGM
        at each angle, of the same shape. Every step is elementwise per row
        or the kernel's own, so no row depends on the rows around it.
        """
        coeff = roots * np.exp(1j * phases)
        coeff[:, coord] = 0.0
        r = roots[:, coord, None, None]
        pencils = []
        for shape, columns, operand in self._groups:
            b = _combine(coeff, operand).reshape((len(coeff), columns.size) + shape)
            a = operand[coord].reshape((columns.size,) + shape)
            # Q = r A B^dag one column at a time, in order, so it is elementwise.
            b_conj = b.conj()
            q = a[..., :, None, 0] * b_conj[..., None, :, 0]
            for k in range(1, shape[1]):
                q += a[..., :, None, k] * b_conj[..., None, :, k]
            q *= r[..., None]
            q_dag = q.conj().swapaxes(-1, -2)
            mats = _gram(b) + r * r * _gram(a), _pack(q + q_dag), _pack(1j * (q - q_dag))
            pencils.append(tuple(m[:, None] for m in mats))

        def probe(angles: np.ndarray) -> np.ndarray:
            angles = np.asarray(angles, dtype=float)
            flat = angles.reshape(len(coeff), -1)
            top = np.empty(flat.shape)
            step = max(1, _BLOCK_ENTRIES // (flat.shape[1] * self.row_entries))
            for start in range(0, flat.shape[0], step):
                rows = slice(start, start + step)
                block = flat[rows, :, None, None]
                cos, sin = np.cos(block), np.sin(block)
                best = None
                for p, s, t in pencils:
                    gram = cos * s[rows]
                    gram += p[rows]
                    gram += sin * t[rows]
                    tops = _tops(gram, best).max(axis=-1)
                    best = tops if best is None else np.maximum(best, tops)
                top[rows] = best
            return 1.0 - np.clip(top, 0.0, 1.0, out=top).reshape(angles.shape)

        return probe


def _golden_refine(probe, phases, coord, rows, half_width, step_tol):
    """Lockstep golden-section refinement of one phase coordinate.

    Only ``rows`` participate, ``probe`` giving their values at angles of
    ``coord``; the rest keep their phase. Brackets shrink until narrower
    than ``step_tol`` radians.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = phases[rows, coord] - half_width
    hi = phases[rows, coord] + half_width
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


def _first_near_min(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``vals``, the first column within ``PHASE_VALUE_TOL`` of
    the row minimum, and its value.

    Tied candidates (a symmetric family has many) differ only in their last
    bits, which ``argmin`` would follow; the first of them does not move
    when those bits change.
    """
    best = np.argmax(vals <= vals.min(axis=1, keepdims=True) + PHASE_VALUE_TOL, axis=1)
    return best, vals[np.arange(vals.shape[0]), best]


def _lattice_values(objective, roots, phases, free, angles):
    """GGM of each row at every point of the lattice ``angles`` ^ len(free)
    over the coordinates ``free``, in ``itertools.product`` order: (K, m).

    The last free phase varies fastest, so each row and lattice prefix (the
    other free phases) is one pencil (see :meth:`PhaseObjective.pencil`)
    probed at every angle; pencils are built in blocks of
    ``_BLOCK_ENTRIES // row_entries`` (row, prefix) pairs. Coordinates
    outside ``free`` keep the rows' phases.
    """
    prefixes = np.array(list(itertools.product(angles, repeat=len(free) - 1)))
    pairs = len(roots) * len(prefixes)
    out = np.empty((pairs, angles.size))
    step = max(1, _BLOCK_ENTRIES // objective.row_entries)
    for start in range(0, pairs, step):
        row, prefix = np.divmod(np.arange(start, min(start + step, pairs)), len(prefixes))
        cand = phases[row]
        cand[:, free[:-1]] = prefixes[prefix]
        probe = objective.pencil(roots[row], cand, free[-1])
        out[start:start + row.size] = probe(np.broadcast_to(angles, (row.size, angles.size)))
    return out.reshape(len(roots), -1)


def _apply_joint_seeds(objective, roots, phases, values, active, gauge):
    """Replace each row's starting phases by its best Cartesian seed.

    Rows are grouped by their pattern of active (weight > 0) coordinates so
    that seeds only range over genuinely free phases. Each row takes one
    point of the whole lattice, by the tie rule of :func:`minimize_phases`,
    so its seed does not depend on the rows it is grouped with; the lattice
    values come from pencil probes (:func:`_lattice_values`), for blocks of
    rows at a time.
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
        # Rows choose independently; blocks of rows bound the values held.
        row_step = max(1, _BLOCK_ENTRIES // combos.shape[0])
        for first in range(0, rows.size, row_step):
            block = rows[first:first + row_step]
            lattice = _lattice_values(objective, roots[block], phases[block], free, angles)
            best, best_vals = _first_near_min(lattice)
            improved = best_vals < values[block] - PHASE_VALUE_TOL
            hit = block[improved]
            values[hit] = best_vals[improved]
            phases[np.ix_(hit, free)] = combos[best[improved]]


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

    The seed and the scan make their discrete choices by one tie rule:
    take the first candidate (in lattice or grid order) within
    ``PHASE_VALUE_TOL`` of the row's minimum, and move only if it beats
    the current value by more than ``PHASE_VALUE_TOL``. Symmetric families
    have tied argmins whose values differ in the last bits; the rule keeps
    a last-bit change in the objective (a Gram formed another way, say)
    from switching a point, or the warm-started Hessian stencil around it,
    to another branch.

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
            # One pencil per row block serves the scan and the refinement:
            # neither moves the other coordinates.
            step = max(1, _BLOCK_ENTRIES // objective.row_entries)
            for start in range(0, rows.size, step):
                block = rows[start:start + step]
                probe = objective.pencil(roots[block], phases[block], coord)
                if cold_start:
                    cand = probe(np.broadcast_to(grid, (block.size, grid.size)))
                    best, best_vals = _first_near_min(cand)
                    better = best_vals < values[block] - PHASE_VALUE_TOL
                    phases[block[better], coord] = grid[best[better]]
                _golden_refine(probe, phases, coord, block, half_width, PHASE_STEP_TOL)
        values = objective.values(roots, phases)
        if np.max(cycle_start - values) <= PHASE_VALUE_TOL:
            break
    phases = np.mod(phases + np.pi, 2.0 * np.pi) - np.pi
    phases[~active] = 0.0
    phases[np.arange(k), gauge] = 0.0
    return values, phases
