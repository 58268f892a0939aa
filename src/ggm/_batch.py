"""Vectorized evaluation kernels shared by the pure and mixed pipelines.

Everything here operates on raw complex arrays; validation and the public
contracts live in the calling modules. Batches are processed in fixed row
blocks so memory stays bounded. Results are independent of blocking, but
for the last bits of the Gram-table product (see :func:`_combine`).

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

# Phase minimizer settings, shared by every caller: the seed lattice of a
# row with one free phase (its spacing is also the golden-section half
# width), the bracket width at which refinement stops (half of the width
# golden section stops at is also the step of the bracket test that decides
# whether a row needs refining), the per-cycle improvement below which
# cycles stop, and the cycle budgets of cold (seeded) and warm starts.
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

    Grams of up to 3 rows (1, 4 or 9 reals) take the closed forms of
    :func:`_eigmax_closed` on strided views of their components, much
    faster than LAPACK's per-matrix calls at these sizes. Larger ones take
    ``eigvalsh`` on their complex view.
    """
    if gram.shape[-1] > 9:
        return np.linalg.eigvalsh(_unpack(gram))[..., -1]
    return _eigmax_closed(*_components(gram)).T


def _components(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strided views of packed Grams of r <= 3 rows (see :func:`_gram`) as
    components, the stack's axes reversed (``.T`` is the cheapest view):
    ``diag`` (r, ...) and ``off`` (r(r-1)/2, ...), the complex entries (0, 1),
    (1, 2), ..., (0, 2), ... above the diagonal."""
    rows = math.isqrt(gram.shape[-1])
    return gram[..., :rows].T, gram[..., rows:].view(complex).T


def _eigmax_closed(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of stacked Hermitian matrices of r <= 3 rows given
    by their components (see :func:`_components`): ``diag`` (r, ...) real,
    ``off`` (r(r-1)/2, ...) complex, contiguous or strided alike.

    A 1-row matrix is its own eigenvalue, a 2-row one is
    0.5 (g00 + g11) + sqrt((0.5 (g00 - g11))^2 + |g01|^2), and 3 rows take
    :func:`_eigmax_herm3`. Each element gets the same operations in the
    same order in any layout (``np.abs`` of a complex entry has the same
    bits strided or contiguous), so ``measure`` and the pencil's probes
    agree bit for bit.
    """
    if len(diag) == 1:
        return diag[0]
    if len(diag) == 3:
        return _eigmax_herm3(diag, off)
    # in place: out-of-place temporaries took a third longer on stacks of
    # thousands, more than numpy's in-place overlap checks cost on one Gram
    top = diag[0] + diag[1]
    top *= 0.5
    disc = diag[0] - diag[1]
    disc *= 0.5
    disc *= disc
    square = np.abs(off[0])
    square *= square
    disc += square
    top += np.sqrt(disc, out=disc)
    return top


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


def _eigmax_herm3(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of stacked 3x3 Hermitian matrices given by their
    components (see :func:`_eigmax_closed`).

    With q = tr A / 3, p^2 = tr (A - qI)^2 / 6 and r = det(A - qI) / (2p^3),
    the eigenvalues are q + 2p cos((acos r + 2 pi k) / 3), k = 0 the largest
    (Kopp, IJMPC 19 (2008) 523, arXiv:physics/0610206). p^2 is a sum of
    squares, so it has no cancellation; a triple root (p = 0) gives q. The
    centred diagonals, their squares and the off-diagonal squares are each
    one expression over the stacked components, out of place: in place,
    numpy's overlap check doubles an operation's cost on a one-row probe.
    Each row is computed on its own, element by element or by one LAPACK
    call per guarded matrix, so no result depends on the stack around it.
    """
    # contiguous, so that the stacked temporaries are (measure's are strided)
    diag, off = np.ascontiguousarray(diag), np.ascontiguousarray(off)
    q = (diag[0] + diag[1] + diag[2]) / 3.0
    centred = diag - q
    squares = off.real * off.real + off.imag * off.imag
    d0, d1, d2 = centred[0], centred[1], centred[2]
    s01, s12, s02 = squares[0], squares[1], squares[2]
    p2 = centred * centred
    p2 = (p2[0] + p2[1] + p2[2] + 2.0 * (s01 + s02 + s12)) / 6.0
    det = (d0 * d1 * d2 - d0 * s12 - d1 * s02 - d2 * s01
           + 2.0 * (off[0] * off[1] * off[2].conj()).real)
    twice = 2.0 * np.sqrt(p2)
    denom = twice * p2
    r = np.divide(det, denom, out=np.zeros(det.shape), where=denom > 0.0)
    r = np.minimum(np.maximum(r, -1.0), 1.0)
    top = q + twice * np.cos(np.arccos(r) / 3.0)
    near = r < _DOUBLE_TOP_GUARD - 1.0
    if np.count_nonzero(near):
        # the guarded matrices in full, from their packed reals
        packed = np.concatenate((diag[:, near].T, off[:, near].T.copy().view(float)), axis=1)
        top[near] = np.linalg.eigvalsh(_unpack(packed))[:, -1]
    return top


def _combine(block: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``block @ flat``: sum_k c_k B_k for coefficient rows c over flattened
    basis blocks B_k (the envelope's plane values take it too).

    BLAS's matrix-vector product, which numpy takes for a one-row block,
    rounds differently from its matrix-matrix product, so such a block is
    given a second row. The matrix-matrix product can still round a row by
    the block's row count: on real Gram tables (a 16 x 9 one, say) a row
    can differ in its last bit between blocks of 1-3 rows and one of 13.
    ``einsum`` keeps each row's bits but is 2-14x slower on the table shapes.
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
    3 rows (one product of the squared reals with the weights 1 on the
    diagonal, 2 off it) would skip 51% of the sampler's 3x3 closed forms,
    but with Grams from the tables of :func:`_gram_tables` the norm and the
    subset cost more than the closed forms they save: 48.5 against 45.5 ms
    per rank-5 sampler bound of 2,000 samples, 16.2 against 16.1 ms per
    qutrit one. So those sizes are never skipped, and neither is a stack of
    one 4-row Gram (a one-row probe of ``rank3_ghz_dicke(6)`` or ``(7)``):
    its ``eigvalsh`` (about 7.5 us) costs no more than the bound (7-14 us).
    A single larger Gram keeps the bound, which skips most of them on
    generic states. The row maximum and the cuts at it keep their bits.
    """
    if best is None or gram.shape[-1] <= 9 or gram.size == 32:
        return _eigmax_herm(gram)
    # ||G||_F^2 as one dot product of G's reals with themselves
    tops = np.sqrt((gram[..., None, :] @ gram[..., :, None])[..., 0, 0])
    live = tops >= best[..., None] - _PRUNE_SLACK
    if live.all():
        return _eigmax_herm(gram)
    if live.any():
        tops[live] = _eigmax_herm(gram[live])
    return tops


def _store_tops(out: np.ndarray, grams, max_only: bool) -> np.ndarray | None:
    """Write the top eigenvalue of each ``(columns, gram)`` of ``grams``, in
    order, into ``out[:, columns]``; with ``max_only``, return the row
    maxima of ``out``.

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
            top = _max_over_cuts(tops.T)
            best = top if best is None else np.maximum(best, top)
    return best


def _max_over_cuts(stack: np.ndarray) -> np.ndarray:
    """Maximum over the first axis (the cuts) of ``stack``: one layer as a
    view, else one reduction over the first axis of a contiguous copy, which
    numpy runs as maxima of whole layers (a max is exact). numpy reduces a
    short trailing axis at about 60 ns per row (188 against 12 us for 3,120
    rows of 3 cuts), and a Python fold of ``np.maximum`` costs a call per
    cut (264 against 3 us for the 127 cuts of one 8-qubit state)."""
    if len(stack) == 1:
        return stack[0]
    return np.ascontiguousarray(stack).max(axis=0)


# hjw_upper_bound reads members of eigenbases of at most this many states
# by a PhaseObjective (the Gram tables of _gram_tables), larger ones by
# pure.ggm_values on their amplitudes. Timing PhaseObjective.measure against
# ggm_values on the combined amplitudes, on 10,000 random unit rows over
# random orthonormal bases of n states (2-vCPU host, BLAS on one thread,
# median of 5, then of 3 runs), the tables took this share of the pure
# kernel's time:
#
#   dims   n=3   5     8     12    16
#   2^4    0.42  0.45  0.64  1.02  1.73
#   2^5    0.20  0.25  0.38  0.55  1.07
#   3^3    0.32  0.47  0.77  1.38  5.20
#   2^6    0.36  0.49  0.82  1.21  1.92
#
# A table has n^2 rows, so it loses on large generic bases. A family's
# objective keeps its tables at any size: orbit pruning leaves a symmetric
# family few cuts (ghz_dicke_mixture(9) has 9 states and 4 orbit cuts).
_TABLE_MAX_BASIS = 8


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> np.ndarray:
    """The pairs k < l, ``np.triu_indices(n, 1)`` as one array, once per n."""
    return _frozen(np.array(np.triu_indices(n, 1)))


def _outer_reals(coeff: np.ndarray) -> np.ndarray:
    """The n^2 reals of each row's outer product c c^dag, in the row order
    of :func:`_gram_tables`: |c_k|^2 for every k, then the real and
    imaginary parts of c_k conj(c_l) for each pair k < l of :func:`_pairs`.

    Formed from contiguous rows of each coefficient's real and imaginary
    parts (:func:`_rows_last`) into column slices of the result, the pairs
    (k, l > k) of one k at a time, so every operation runs along the rows;
    gathering the pairs by index from row-major views loops over a few
    pairs per row and took 1.5-2x as long on 5,041 rows of 3 or 5 states."""
    n = coeff.shape[1]
    re, im = _rows_last(coeff)
    reals = np.empty((len(coeff), n * n))
    np.add(np.square(re), np.square(im), out=reals[:, :n].T)
    at = n
    for k in range(n - 1):
        end = at + 2 * (n - 1 - k)
        _pair_reals(re[k], im[k], re[k + 1:], im[k + 1:],
                    reals[:, at:end:2].T, reals[:, at + 1:end:2].T)
        at = end
    return reals


def _rows_last(coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of coefficient rows ``coeff`` (K, n),
    each as a contiguous (n, K) array."""
    return np.ascontiguousarray(coeff.real.T), np.ascontiguousarray(coeff.imag.T)


def _pair_reals(re_k, im_k, re_l, im_l, out_re, out_im) -> None:
    """Write the real and imaginary parts of c_k conj(c_l), rows last, into
    ``out_re`` and ``out_im``, by real products and sums: numpy's complex
    product rounds some elements of a long block differently from the same
    elements alone, so it would tie a row's bits to its block."""
    np.add(re_k * re_l, im_k * im_l, out=out_re)
    np.subtract(im_k * re_l, re_k * im_l, out=out_im)


def _phased(roots: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Coefficient rows roots * e^{i phases} from real ``cos`` and ``sin``:
    the bits of ``roots * np.exp(1j * phases)`` but for the sign of a zero."""
    coeff = np.empty(roots.shape, dtype=complex)
    np.multiply(roots, np.cos(phases), out=coeff.real)
    np.multiply(roots, np.sin(phases), out=coeff.imag)
    return coeff


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
# Unit-norm basis rows make them absolute; see _gram_tables for the bound.
_SUPPORT_TOL = 1e-13


def _gram_tables(basis: np.ndarray, dims: tuple[int, ...],
                 masks: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``(columns, table)`` per group of the cuts ``masks`` of ``basis``
    (n_basis, D), whose rows should be orthonormal: ``_outer_reals(c) @
    table`` are the Grams of the coefficient row c on the cuts at
    ``columns`` of ``masks``, laid out as :func:`_gram` lays them out.

    On a cut the matricization of sum_k c_k |b_k> is M(c) = sum_k c_k B_k,
    rows on the smaller side (side I on a tie); the B_k are one transpose of
    the (n_basis, *dims) basis tensor. Two SVDs give orthonormal bases U
    and V of the joint column and row spans of the B_k, and the compressed
    blocks A_k = U^dag B_k V give M(c) = U A(c) V^dag with the singular
    values of A(c) = sum_k c_k A_k. Where r1 > r2 the plain transpose A_k^T
    is taken (sum_k c_k A_k^T = A(c)^T; the conjugate transpose would
    conjugate c). Cuts are grouped by the shape (r1, r2) of their A_k, in
    increasing order, each group in the order of ``masks``.

    The Gram is G(c) = sum_kl c_k conj(c_l) M_kl with M_kl = A_k A_l^dag,
    the blocks of one Gram of the A_k stacked. The table's rows follow
    :func:`_outer_reals`: M_kk, then for each pair k < l of :func:`_pairs`
    M_kl + M_lk and i (M_kl - M_lk), the multipliers of Re and Im of
    c_k conj(c_l), each symmetrized to be Hermitian to the bit and packed
    by :func:`_pack`, so every product is too.

    Directions with singular value at most ``_SUPPORT_TOL`` are dropped.
    With P the projector onto the dropped column directions,
    M^dag M = (UU^dag M)^dag (UU^dag M) + (PM)^dag (PM), so dropping them
    lowers the top square by at most ||PM||^2 <= |c|^2 * sum sigma_dropped^2,
    and likewise on the row side: for a unit c the result is never above
    the exact value and falls short by at most the dropped squares of both
    sides. Keeping a small direction is exact, so any basis is accepted.
    """
    n, total = basis.shape[0], math.prod(dims)
    tensor = basis.reshape((n,) + dims)
    cuts = []
    for column, mask in enumerate(masks):
        rows = math.prod(d for p, d in enumerate(dims) if mask >> p & 1)
        side = mask if rows * rows <= total else ~mask  # the smaller; side I on a tie
        parties = sorted(range(len(dims)), key=lambda p: not side >> p & 1)
        cuts.append((min(rows, total // rows), column, parties))
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    # by matricization shape, then in enumeration order (sorted is stable)
    for rows, column, parties in sorted(cuts, key=lambda cut: cut[0]):
        blocks = tensor.transpose([0] + [p + 1 for p in parties]).reshape(n, rows, -1)
        u, s, _ = np.linalg.svd(blocks.transpose(1, 0, 2).reshape(rows, -1),
                                full_matrices=False)
        u = u[:, s > _SUPPORT_TOL]
        _, s, vh = np.linalg.svd(blocks.reshape(-1, blocks.shape[2]), full_matrices=False)
        v = vh[s > _SUPPORT_TOL].conj().T
        compressed = u.conj().T @ blocks @ v
        if compressed.shape[1] > compressed.shape[2]:
            compressed = compressed.swapaxes(1, 2)
        members, stacks = groups.setdefault(compressed.shape[1:], ([], []))
        members.append(column)
        stacks.append(compressed.reshape(-1, compressed.shape[2]))  # A_k stacked
    first, second = _pairs(n)
    tables = []
    for (r1, _), (members, stacks) in sorted(groups.items()):
        stacked = np.stack(stacks)  # (cuts, n * r1, r2)
        products = (stacked @ stacked.conj().swapaxes(-1, -2)).reshape(
            len(members), n, r1, n, r1).transpose(1, 3, 0, 2, 4)  # M_kl at [k, l]
        upper, lower = products[first, second], products[second, first]
        rows = np.empty((n * n, len(members), r1, r1), dtype=complex)
        rows[:n] = products[np.arange(n), np.arange(n)]
        rows[n::2] = upper + lower
        rows[n + 1::2] = 1j * (upper - lower)
        rows = 0.5 * (rows + rows.conj().swapaxes(-1, -2))
        tables.append((_frozen(np.array(members)), _frozen(_pack(rows).reshape(n * n, -1))))
    return tuple(tables)


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

    Holds the Gram tables of :func:`_gram_tables`, built here: every Gram
    of :meth:`measure`, :meth:`values` and :meth:`pencil` is a product of
    the rows' outer-product reals with them, at any basis size. One
    instance serves a whole surface or a whole sampler. Only one cut per
    orbit of the party swaps fixing every basis state is evaluated: such a
    swap fixes every superposition too, so a cut and its image have the
    same Schmidt spectrum.
    """

    def __init__(self, basis_matrix: np.ndarray, dims: tuple[int, ...]):
        self.basis = np.asarray(basis_matrix, dtype=complex)  # (n_basis, D)
        self.dims = tuple(dims)
        self.masks = orbit_representatives(
            len(self.dims), canonical_cut_masks(self.dims),
            fixing_transpositions(self.basis, self.dims))
        self.tables = _gram_tables(self.basis, self.dims, self.masks)
        # outer and table reals per row: a pencil holds three times that
        self.row_entries = len(self.basis) ** 2 + sum(
            table.shape[1] for _, table in self.tables)

    def _grams(self, block: np.ndarray):
        """``(columns, grams)`` per table, lazily: the Grams (rows, cuts,
        reals) of coefficient rows ``block`` on the cuts at ``columns``, one
        ``_combine`` of the rows' :func:`_outer_reals` with the table."""
        reals = _outer_reals(block)
        return ((columns, _combine(reals, table).reshape(len(block), columns.size, -1))
                for columns, table in self.tables)

    def measure(self, coeff: np.ndarray) -> np.ndarray:
        """GGM of each row of unit coefficient rows ``coeff`` (K, n_basis).

        Rows are blocked by ``_BLOCK_ENTRIES`` table reals (one row at
        least), and each row's maximum is the one :func:`_store_tops`
        returns with ``max_only``. The blocking changes no bit but where
        the table product rounds a row by the block's row count (see
        :func:`_combine`), in the last bit.
        """
        top = np.empty(len(coeff))
        step = max(1, _BLOCK_ENTRIES // sum(table.shape[1] for _, table in self.tables))
        for start in range(0, len(coeff), step):
            block = coeff[start:start + step]
            top[start:start + step] = _store_tops(
                np.empty((len(block), len(self.masks))), self._grams(block), max_only=True)
        # the running maximum of _store_tops: clipping commutes with the max
        return 1.0 - np.clip(top, 0.0, 1.0, out=top)

    def values(self, roots: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """GGM for rows of sqrt-weights ``roots`` and ``phases``, both (K, n)."""
        return self.measure(_phased(roots, phases))

    def pencil(self, roots: np.ndarray, phases: np.ndarray, coord: int):
        """Probe of the rows' GGM as a function of phase ``coord`` alone.

        With c_coord = r e^{i theta} (r = roots[:, coord]; the phase there is
        ignored), a row's :func:`_outer_reals` are o(theta) = O_P + cos(theta)
        O_S + sin(theta) O_T: O_S the reals of the pairs with ``coord`` at
        theta = 0, O_T those at theta = pi/2 (formed on those pairs only),
        O_P the rest (r^2 included). Grams are linear in o, so each cut's
        Gram is the Hermitian pencil P + cos(theta) S + sin(theta) T, whose
        P, S and T are built here (the caller bounds the rows by
        ``row_entries``) as one product of O_P, O_S and O_T with each table.
        Tables of one Gram size are stacked along the cuts and stored
        component-major: for up to 3 rows, the diagonal reals as one
        (r, cuts, rows) array and the real and imaginary parts of the entries
        above it as one (2, pairs, cuts, rows) array, so a probe's scaled
        adds run along contiguous rows and write each probed Gram's entries
        into one (pairs, cuts, m, rows) complex array for the closed forms
        of :func:`_eigmax_closed`. Larger Grams keep the layout of
        :func:`_gram` that ``eigvalsh`` reads, and as in :meth:`values` a
        cut whose Frobenius bound cannot reach the probe's maximum so far
        skips the top eigenvalue.

        The returned ``probe(angles)`` gives the GGM at angles (K,) or
        (K, m), a row of angles per pencil row, or (1, m), angles every row
        shares, whose cos and sin are then taken once; the result has shape
        (K,) or (K, m). It computes cos(theta) S + P, then adds sin(theta) T,
        element by element, into arrays the pencil keeps while the probes'
        shape stays the same. Every step is per row but the table product,
        which can round a row by its block's rows (:func:`_combine`).
        """
        n, count = len(self.basis), len(roots)
        first, second = _pairs(n)
        turned = n + np.flatnonzero(np.repeat((first == coord) | (second == coord), 2))
        coeff = _phased(roots, phases)
        coeff[:, coord] = roots[:, coord]
        reals = np.zeros((3, count, n * n))  # O_P, O_S, O_T
        reals[0] = _outer_reals(coeff)
        reals[1][:, turned] = reals[0][:, turned]
        reals[0][:, turned] = 0.0
        # O_T, with c_coord = i r, on the pairs (k, coord) for k < coord and
        # then (coord, l) for l > coord, the order of _pairs
        coeff[:, coord] = 1j * roots[:, coord]
        re, im = _rows_last(coeff)
        o_t = reals[2]
        for k, at in enumerate(turned[:2 * coord:2]):
            _pair_reals(re[k], im[k], re[coord], im[coord], o_t[:, at], o_t[:, at + 1])
        if coord < n - 1:
            at, end = turned[2 * coord], turned[-1] + 1
            _pair_reals(re[coord], im[coord], re[coord + 1:], im[coord + 1:],
                        o_t[:, at:end:2].T, o_t[:, at + 1:end:2].T)
        reals = reals.reshape(3 * count, n * n)
        # one stack per Gram size, tables of one size (blocks of different
        # column support) side by side along the cuts: a probe's maximum
        # over the cuts does not depend on their order
        sizes: dict[int, list] = {}
        for columns, table in self.tables:
            size = table.shape[1] // columns.size
            sizes.setdefault(size, []).append(
                _combine(reals, table).reshape(3, count, columns.size, size))
        groups = []
        for size, stacks in sizes.items():
            pst = stacks[0] if len(stacks) == 1 else np.concatenate(stacks, axis=2)
            if size > 9:
                groups.append(pst)
                continue
            rows = math.isqrt(size)
            pairs = pst[..., rows:].reshape(3, count, pst.shape[2], (size - rows) // 2, 2)
            groups.append((np.ascontiguousarray(pst[..., :rows].transpose(0, 3, 2, 1)),
                           np.ascontiguousarray(pairs.transpose(0, 4, 3, 2, 1))))
        scratch: dict = {}

        def probe(angles: np.ndarray) -> np.ndarray:
            angles = np.asarray(angles, dtype=float)
            m = math.prod(angles.shape[1:])
            # angle-major, (m, rows) or (m, 1) for angles every row shares
            flat = (angles.reshape(m, 1) if len(angles) == 1
                    else np.ascontiguousarray(angles.reshape(count, m).T))
            cos, sin = np.cos(flat), np.sin(flat)
            shared = flat.shape[1] == 1
            tops = []
            step = max(1, _BLOCK_ENTRIES // (m * self.row_entries))
            for start in range(0, count, step):
                stop = min(start + step, count)
                rows = slice(start, stop)
                c, s = (cos, sin) if shared else (cos[:, rows], sin[:, rows])
                shape = (m, stop - start)
                best = None
                for g, group in enumerate(groups):
                    if isinstance(group, tuple):
                        diag, off = group
                        diag = _scaled(_scratch(scratch, (g, 0), diag.shape[1:3] + shape),
                                       c, s, diag[..., None, rows])
                        arrays = _scratch(scratch, (g, 1), off.shape[1:4] + shape, split=True)
                        _scaled(arrays, c, s, off[..., None, rows])
                        top = _max_over_cuts(_eigmax_closed(diag, arrays[3]))
                    else:
                        gram = _scaled(_scratch(scratch, g, shape + group.shape[2:]),
                                       c[..., None, None], s[..., None, None],
                                       group[:, None, rows])
                        top = _max_over_cuts(_tops(gram, best).T).T
                    best = top if best is None else np.maximum(best, top)
                # np.clip's bits, without its Python wrappers
                tops.append(np.minimum(np.maximum(best, 0.0), 1.0))
            top = 1.0 - (tops[0] if len(tops) == 1
                         else np.concatenate(tops or [np.empty((m, 0))], axis=1))
            return top.T.reshape((count,) + angles.shape[1:])

        return probe


def _scratch(scratch: dict, key, shape: tuple[int, ...],
             split: bool = False) -> tuple[np.ndarray, ...]:
    """Three real arrays of ``shape``, kept in ``scratch[key]`` while the
    shape stays the same (a pencil's golden-section probes). With ``split``
    the shape is (2, ...), real and imaginary parts: the third array views
    those of a complex array of shape[1:], returned fourth."""
    arrays = scratch.get(key)
    if arrays is None or arrays[0].shape != shape:
        if split:
            entries = np.empty(shape[1:], dtype=complex)
            parts = np.moveaxis(entries.view(float).reshape(shape[1:] + (2,)), -1, 0)
            arrays = np.empty(shape), np.empty(shape), parts, entries
        else:
            arrays = np.empty(shape), np.empty(shape), np.empty(shape)
        scratch[key] = arrays
    return arrays


def _scaled(arrays: tuple[np.ndarray, ...], cos: np.ndarray, sin: np.ndarray,
            pst: np.ndarray) -> np.ndarray:
    """cos S + P + sin T for ``pst`` = (P, S, T), broadcast, in that order,
    into the arrays of :func:`_scratch`, the third holding the result. No
    output is also an input, whose overlap check would double the cost of
    an operation on a one-row probe."""
    scaled, shifted, out = arrays[:3]
    np.add(np.multiply(cos, pst[1], scaled), pst[0], shifted)
    return np.add(shifted, np.multiply(sin, pst[2], scaled), out)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(probe, phases, coord, rows):
    """Lockstep golden-section refinement of one phase coordinate.

    Only ``rows`` participate, ``probe`` giving their values at angles of
    ``coord``; the rest keep their phase. Brackets start one spacing of the
    ``PHASE_GRID_POINTS`` lattice either side of the phase and shrink until
    narrower than ``PHASE_STEP_TOL`` radians, at :func:`_golden_stop_width`;
    each row takes its final bracket's midpoint. :func:`minimize_phases`
    calls it only for rows that fail :func:`_bracketed`.
    """
    half_width = 2.0 * np.pi / PHASE_GRID_POINTS
    lo = phases[rows, coord] - half_width
    hi = phases[rows, coord] + half_width
    width = hi - lo
    c = hi - _INVPHI * width
    d = lo + _INVPHI * width
    fc, fd = probe(c), probe(d)
    while np.max(width) > PHASE_STEP_TOL:
        # a row that keeps [lo, d] probes a new c, one that keeps [c, hi] a new d
        left = fc < fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        width = hi - lo
        step = _INVPHI * width
        angle = np.where(left, hi - step, lo + step)
        c, d = np.where(left, angle, d), np.where(left, c, angle)
        fresh = probe(angle)
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
    phases[rows, coord] = 0.5 * (lo + hi)


def _golden_stop_width() -> float:
    """Bracket width at which :func:`_golden_refine` stops: its starting
    width, two lattice spacings, shrunk by the golden ratio until no wider
    than ``PHASE_STEP_TOL`` (6.80e-5 rad at the module's settings)."""
    width = 4.0 * np.pi / PHASE_GRID_POINTS
    while width > PHASE_STEP_TOL:
        width *= _INVPHI
    return width


def _bracketed(probe, theta: np.ndarray, delta: float) -> np.ndarray:
    """Which pencil rows already bracket a minimum at their phase ``theta``.

    One (K, 3) probe at theta - delta, theta and theta + delta; a row whose
    middle value is no larger than both neighbours has a minimum in
    [theta - delta, theta + delta] (ties included, so a flat direction keeps
    its phase), and needs no golden section.
    """
    around = probe(theta[:, None] + np.array([-delta, 0.0, delta]))
    return (around[:, 1] <= around[:, 0]) & (around[:, 1] <= around[:, 2])


def _joint_seed_size(n_free: int) -> int:
    # The lattice is the optimizer's only discrete search. Jointly it guards
    # against coordinate descent stalling in a local minimum when several
    # phases must move together; sizes keep the Cartesian budget flat
    # across arities. One free phase takes the finer PHASE_GRID_POINTS.
    if n_free == 0:
        return 0
    if n_free == 1:
        return PHASE_GRID_POINTS
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
        out[start:start + row.size] = probe(angles[None, :])
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
    ``init_phases``) is seeded with the best point of a phase lattice over
    its free phases (:func:`_apply_joint_seeds`), ``PHASE_GRID_POINTS``
    angles for one free phase and a coarser joint lattice for more; that
    is the only discrete search. A warm start begins at ``init_phases``.
    Either way every cycle takes each free coordinate in turn, for up to
    ``COLD_CYCLES`` cycles of a cold start and ``WARM_CYCLES`` of a warm
    one. A row whose value at its phase is no larger than at the phase plus
    or minus half the width at which golden section stops
    (:func:`_bracketed`) already brackets a minimum that tightly and keeps
    its phase exactly, ties included; only the other rows are refined by
    golden section to below ``PHASE_STEP_TOL`` radians
    (:func:`_golden_refine`). Cycles stop once no row enters golden section,
    since then no phase moved and the values are the cycle's start values,
    or once no row improves by more than ``PHASE_VALUE_TOL``.

    The seed makes its discrete choice by one tie rule: take the first
    lattice point (in lattice order) within ``PHASE_VALUE_TOL`` of the
    row's minimum, and move only if it beats the current value by more
    than ``PHASE_VALUE_TOL``. Symmetric families have tied argmins whose
    values differ in the last bits; the rule keeps a last-bit change in the
    objective (a Gram formed another way, say) from switching a point, or
    the warm-started Hessian stencil around it, to another branch.

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

    values = objective.values(roots, phases)
    if cold_start:
        _apply_joint_seeds(objective, roots, phases, values, active, gauge)

    # a kept phase is located as tightly as golden section's midpoint
    delta = 0.5 * _golden_stop_width()
    step = max(1, _BLOCK_ENTRIES // objective.row_entries)
    for _ in range(COLD_CYCLES if cold_start else WARM_CYCLES):
        refined = False
        for coord in range(n):
            rows = np.flatnonzero(active[:, coord] & (gauge != coord))
            for start in range(0, rows.size, step):
                block = rows[start:start + step]
                probe = objective.pencil(roots[block], phases[block], coord)
                loose = ~_bracketed(probe, phases[block, coord], delta)
                if not loose.any():
                    continue
                if not loose.all():
                    # a pencil of the loose rows is cheaper than golden
                    # section over the block's; freed first, as peak memory
                    # follows the lifetime of such temporaries
                    del probe
                    block = block[loose]
                    probe = objective.pencil(roots[block], phases[block], coord)
                _golden_refine(probe, phases, coord, block)
                refined = True
        if not refined:
            break  # no phase moved, so the values are the cycle's start values
        cycle_start = values
        values = objective.values(roots, phases)
        if np.max(cycle_start - values) <= PHASE_VALUE_TOL:
            break
    phases = np.mod(phases + np.pi, 2.0 * np.pi) - np.pi
    phases[~active] = 0.0
    phases[np.arange(k), gauge] = 0.0
    return values, phases
