"""The batched Schmidt kernel shared by the pure and mixed pipelines, its
symmetry reduction for twirled families, and the kernel invariants."""

import functools
import itertools
import math

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given
from hypothesis import strategies as st

from ggm import _batch, pure, roof
from ggm.families import (
    FAMILY_BUILDERS,
    ghz_dicke_mixture,
    qutrit_sector_family,
    rank3_gghz,
    rank3_ghz_dicke,
    rank3_ghz_w,
    rank5_five_qubit,
    zeta_slice_family,
)
from ggm.hilbert import PureState, SystemShape, enumerate_bipartitions
from ggm.pure import ggm_pure, max_schmidt_sq
from ggm.roof import HESSIAN_STEP, ggm_mixed, hjw_upper_bound, min_phase_ggm, simplex_grid
from ggm.states import dicke, ghz, superpose, uniform_sector_state
from helpers import (reference_eigmax_packed, reference_minimize_phases, reference_outer_reals,
                     reference_probe, seeded_sector_family)

GENERIC_SHAPES = [(2,) * 6, (2,) * 8, (2,) * 10, (3,) * 4, (3,) * 6, (2, 3, 4, 5)]


def random_amplitudes(rng, dims, rows=None):
    size = (math.prod(dims),) if rows is None else (rows, math.prod(dims))
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def smaller_side_first(dims, mask):
    """The parties of cut ``mask``, its smaller side first (side I on a
    tie), and the shape of its matricization with rows on that side."""
    side_i = [p for p in range(len(dims)) if mask >> p & 1]
    side_l = [p for p in range(len(dims)) if not mask >> p & 1]
    d_i = math.prod(dims[p] for p in side_i)
    d_l = math.prod(dims[p] for p in side_l)
    parties = side_i + side_l if d_i <= d_l else side_l + side_i
    return parties, (min(d_i, d_l), max(d_i, d_l))


def matricization_indices(dims):
    """Per matricization shape, in increasing order, the flat amplitude
    index ``index[m, r, c]`` of entry (r, c) of the shape's canonical cut m,
    rows on its smaller side (side I on a tie)."""
    flat = np.arange(math.prod(dims)).reshape(dims)
    shapes = {}
    for mask in _batch.canonical_cut_masks(dims):
        parties, shape = smaller_side_first(dims, mask)
        shapes.setdefault(shape, []).append(flat.transpose(parties).reshape(shape))
    return [(shape, np.stack(index)) for shape, index in sorted(shapes.items())]


def random_phased_rows(family, rows, seed):
    rng = np.random.default_rng(seed)
    n = len(family.basis)
    roots = np.sqrt(rng.dirichlet(np.ones(n), size=rows))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(rows, n))
    return roots, phases


class TestKernelAgainstPerCutReference:
    @pytest.mark.parametrize("dims", GENERIC_SHAPES, ids=str)
    def test_random_states(self, dims):
        rng = np.random.default_rng(sum(dims))
        for _ in range(3):
            psi = PureState(SystemShape(dims), random_amplitudes(rng, dims))
            report = ggm_pure(psi)
            assert len(report.per_cut) == 2 ** (len(dims) - 1) - 1
            for cut, value in report.per_cut.items():
                assert abs(value - max_schmidt_sq(psi, cut)) < 1e-12

    @pytest.mark.parametrize("psi", [
        ghz(3), ghz(6), ghz(8), dicke(4, 1), dicke(7, 1),
        uniform_sector_state(SystemShape((3, 3, 3)), 3, 0),
        uniform_sector_state(SystemShape((3,) * 4), 3, 1),
    ], ids=lambda psi: str(psi.shape.dims))
    def test_degenerate_states(self, psi):
        for cut, value in ggm_pure(psi).per_cut.items():
            assert abs(value - max_schmidt_sq(psi, cut)) < 1e-12

    @pytest.mark.parametrize("dims", [(3, 2), (2, 2, 3), (4, 2, 2), (5, 2, 2), (2, 3, 4, 5),
                                      (3,) * 4, (3,) * 6] + [(2,) * n for n in range(3, 11)],
                             ids=str)
    def test_reduced_states_on_unequal_and_tied_sides(self, dims):
        # roots and traced sides of every size, traced parties of unequal
        # dimension, and sides that tie with their complement
        shape = SystemShape(dims)
        amps = random_amplitudes(np.random.default_rng([len(dims), *dims]), dims, rows=2)
        matrix = _batch.schmidt_sq_matrix(amps, dims)
        for row in range(2):
            psi = PureState(shape, amps[row])
            reference = [max_schmidt_sq(psi, cut) for cut in enumerate_bipartitions(shape)]
            assert np.max(np.abs(matrix[row] - reference)) < 1e-13

    def test_matrix_columns_follow_enumeration_order(self):
        rng = np.random.default_rng(4)
        dims = (2, 3, 2, 2)
        amps = random_amplitudes(rng, dims, rows=5)
        matrix = _batch.schmidt_sq_matrix(amps, dims)
        cuts = enumerate_bipartitions(SystemShape(dims))
        assert matrix.shape == (5, len(cuts))
        for row in range(5):
            psi = PureState(SystemShape(dims), amps[row])
            for col, cut in enumerate(cuts):
                assert abs(matrix[row, col] - max_schmidt_sq(psi, cut)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cut_masks_follow_enumeration_order(self, n):
        dims = tuple(2 + (3 * p) % 4 for p in range(n))  # 2, 5, 4, 3, 2, ...
        masks = tuple(sum(1 << p for p in cut.side_I)
                      for cut in enumerate_bipartitions(SystemShape(dims)))
        assert _batch.canonical_cut_masks(dims) == masks


class TestRowBlocking:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2,) * 5, (3, 3, 3), (2, 3, 4), (2,) * 8,
                                      (2, 3, 4, 5), (5, 2, 2)], ids=str)
    def test_bit_identical_whatever_the_blocking(self, dims, monkeypatch):
        amps = random_amplitudes(np.random.default_rng(8), dims, rows=700)
        results = []
        for entries in (1 << 10, 1 << 16):
            monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
            results.append(_batch.schmidt_sq_matrix(amps, dims))
        results.append(np.concatenate(
            [_batch.schmidt_sq_matrix(amps[i:i + 1], dims) for i in range(amps.shape[0])]))
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    @pytest.mark.parametrize("dims", [(2,) * 10, (2,) * 8, (2,) * 6, (3,) * 6], ids=str)
    def test_cut_table_chunks_change_no_bit(self, dims, monkeypatch):
        # The pure kernel gathers its root matricizations in chunks of about
        # _BLOCK_ENTRIES / 4 entries per row block (a 10-qubit row gathers
        # about 2x 2^16), so at 2^6 every root is gathered alone.
        amps = random_amplitudes(np.random.default_rng(10), dims, rows=3)
        groups, _ = _batch._reduced_plan(dims)
        roots = [index for _, _, parent, index in groups if parent is None]
        original = _batch._gram
        results, grams = [], []
        for entries in (1 << 16, 1 << 6):
            monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
            calls = []
            monkeypatch.setattr(_batch, "_gram", lambda mats: calls.append(1) or original(mats))
            results.append([_batch.schmidt_sq_matrix(amps, dims, max_only=only)
                            for only in (False, True)])
            grams.append(len(calls))
        # 2^6 / 4 entries hold less than one root matricization of these shapes
        assert all(index[0].size > (1 << 6) >> 2 for index in roots)
        assert grams[1] == 2 * 3 * sum(len(index) for index in roots) > grams[0]
        for chunked, whole in zip(*results):
            assert np.array_equal(chunked, whole)


class TestReducedPlan:
    """Which sides the pure kernel gathers and which it traces."""

    @pytest.mark.parametrize("dims, roots, traced", [
        ((2,) * 8, 35, 92), ((2,) * 10, 126, 385), ((3,) * 6, 10, 21), ((2, 3, 4, 5), 3, 4),
        ((2,) * 6, 10, 21), ((3,) * 4, 3, 4), ((5, 2, 2), 1, 2), ((2, 2, 3), 3, 0),
    ], ids=str)
    def test_roots_and_traced_sides(self, dims, roots, traced):
        groups, order = _batch._reduced_plan(dims)
        sizes = [(parent is None, columns.size) for _, columns, parent, _ in groups]
        assert sum(n for root, n in sizes if root) == roots
        assert sum(n for root, n in sizes if not root) == traced
        columns = np.concatenate([columns for _, columns, _, _ in groups])
        assert sorted(columns) == list(range(len(_batch.canonical_cut_masks(dims))))
        for g, (rows, _, parent, index) in enumerate(groups):
            if parent is None:
                assert index.shape[1:] == (rows, math.prod(dims) // rows)
            else:
                assert parent < g and groups[parent][0] == rows * index.shape[0]
        assert [groups[g][0] for g in order] == sorted(rows for rows, _, _, _ in groups)

    def test_gathered_amplitudes(self):
        # every root gathers the whole row: 35 x 256 and 126 x 1024
        for dims, gathered in (((2,) * 8, 8960), ((2,) * 10, 129024)):
            groups, _ = _batch._reduced_plan(dims)
            assert sum(index.size for _, _, parent, index in groups if parent is None) == gathered

    def test_traced_over_the_smallest_party(self):
        # on 2 x 3 x 4 x 5 the side {0} has the planned supersets {0, 1},
        # {0, 2} and {0, 3}, and is traced from {0, 1} over party 1 (d = 3)
        groups, _ = _batch._reduced_plan((2, 3, 4, 5))
        (child,) = [g for g in groups if 0 in g[1]]
        assert child[0] == 2 and child[3].shape[0] == 3
        assert 1 in groups[child[2]][1]


def bell_pairs(n, pairs, extra=None):
    """Bell pairs (|00> + |11>)/sqrt(2) on ``pairs`` of n qubits; every
    other qubit in |0>, or in ``extra`` (a one-qubit amplitude vector)."""
    tensor = np.zeros((2,) * n, dtype=complex)
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        index = [0] * n
        for (i, j), b in zip(pairs, bits):
            index[i] = index[j] = b
        tensor[tuple(index)] = 1.0
    tensor /= np.linalg.norm(tensor)
    if extra is not None:
        paired = {p for pair in pairs for p in pair}
        for q in range(n):
            if q not in paired:
                tensor = np.moveaxis(np.tensordot(np.asarray(extra, dtype=complex),
                                                  tensor.take(0, axis=q), axes=0), 0, q)
    return PureState(SystemShape((2,) * n), tensor.reshape(-1))


def gram_rows(cut):
    side = math.prod(cut.shape.dims[p] for p in cut.side_I)
    return min(side, math.prod(cut.shape.dims) // side)


def packed_positions(rows):
    """(i, j) of each entry of a packed Gram: the diagonal, then the
    entries above it diagonal by diagonal."""
    return [(i, i + d) for d in range(rows) for i in range(rows - d)]


def pack(mats):
    """Packed form of a stack of Hermitian matrices of up to 3 rows: the
    real diagonal, then real and imaginary parts above the diagonal."""
    rows = mats.shape[-1]
    parts = [mats[..., i, i].real for i in range(rows)]
    for i, j in packed_positions(rows)[rows:]:
        parts += [mats[..., i, j].real, mats[..., i, j].imag]
    return np.stack(parts, axis=-1)


def unpack(packed):
    """Full Hermitian matrices of a stack of packed Grams."""
    rows = math.isqrt(packed.shape[-1])
    full = np.zeros(packed.shape[:-1] + (rows, rows), dtype=complex)
    for i in range(rows):
        full[..., i, i] = packed[..., i]
    for n, (i, j) in enumerate(packed_positions(rows)[rows:]):
        entry = packed[..., rows + 2 * n] + 1j * packed[..., rows + 2 * n + 1]
        full[..., i, j] = entry
        full[..., j, i] = entry.conj()
    return full


def rows_of(gram):
    """Rows of each Gram of a stack, read from its length: d^2 reals packed
    up to 3 rows, 2d^2 (the real view of the full matrix) beyond."""
    size = gram.shape[-1]
    return math.isqrt(size) if size <= 9 else math.isqrt(size // 2)


def every_square(objective, coeff):
    """Top squared Schmidt coefficient per coefficient row and per cut of
    ``objective``, clipped to [0, 1], from its Grams of ``coeff`` as one
    row block, with no cut pruned."""
    out = np.empty((len(coeff), len(objective.masks)))
    for columns, gram in objective._grams(coeff):
        out[:, columns] = _batch._eigmax_herm(gram)
    return np.clip(out, 0.0, 1.0, out=out)


def table_rows(tables):
    """Gram rows of each ``(columns, table)`` of ``_gram_tables``."""
    return [rows_of(table.reshape(len(table), columns.size, -1)) for columns, table in tables]


def support_objective(basis, dims):
    """A ``PhaseObjective`` of ``basis`` on every canonical cut."""
    dims = tuple(dims)
    objective = _batch.PhaseObjective(basis, dims)
    objective.masks = _batch.canonical_cut_masks(dims)
    objective.tables = _batch._gram_tables(objective.basis, dims, objective.masks)
    return objective


def support_squares(basis, dims, coeff):
    """Top squared Schmidt coefficient per coefficient row and per cut, read
    from the Gram tables of every canonical cut."""
    return every_square(support_objective(basis, dims), coeff)


def random_orthonormal_basis(rng, dims, n_basis):
    """``n_basis`` orthonormal complex rows on ``dims``."""
    return np.linalg.qr(random_amplitudes(rng, dims, rows=n_basis).T)[0].T


def objective_case(kind):
    """A ``PhaseObjective`` of a 5-state basis (``"table objective"``) or of
    a 12-state one, above ``_TABLE_MAX_BASIS``, and unit coefficient rows
    for it."""
    rng = np.random.default_rng(21)
    n_basis = {"table objective": 5, "12-state objective": 12}[kind]
    objective = _batch.PhaseObjective(random_orthonormal_basis(rng, (2,) * 4, n_basis), (2,) * 4)
    assert (n_basis > _batch._TABLE_MAX_BASIS) == (kind == "12-state objective")
    return objective, random_amplitudes(rng, (n_basis,), rows=64)


class TestCutPruning:
    """Max-only kernel callers skip the top eigenvalue of every cut whose
    Frobenius bound cannot reach the maximum; their results keep the bits
    of the full per-cut row."""

    @staticmethod
    def assert_matches_full_row(psi):
        report = ggm_pure(psi)
        full = _batch.schmidt_sq_matrix(psi.amplitudes[None], psi.shape.dims)[0].tolist()
        top = max(full)
        assert report.lambda_sq_max == top
        assert report.value == 1.0 - top
        assert report.maximizing_cuts == tuple(
            cut for cut, value in zip(enumerate_bipartitions(psi.shape), full)
            if value >= top - pure.TIE_TOL)
        return report

    @pytest.mark.parametrize("dims", GENERIC_SHAPES, ids=str)
    def test_random_states(self, dims):
        rng = np.random.default_rng(sum(dims) + 100)
        for _ in range(6):
            self.assert_matches_full_row(
                PureState(SystemShape(dims), random_amplitudes(rng, dims)))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_ghz_and_w(self, n):
        self.assert_matches_full_row(ghz(n))
        self.assert_matches_full_row(dicke(n, 1))

    @pytest.mark.parametrize("psi", [
        ghz(4), ghz(7), ghz(10), ghz(3, d=3), ghz(4, d=3),
        bell_pairs(6, [(0, 3), (1, 4), (2, 5)]), bell_pairs(8, [(0, 1), (2, 5), (3, 7), (4, 6)]),
        bell_pairs(7, [(0, 6), (1, 2)], extra=[0.6, 0.8]),
    ], ids=lambda psi: str(psi.shape.dims))
    def test_tied_cuts(self, psi):
        # many cuts tie at the maximum, so the bound skips none of them
        report = self.assert_matches_full_row(psi)
        assert len(report.maximizing_cuts) > 1

    @pytest.mark.parametrize("dims", [(2, 3, 4, 5), (5, 2, 2), (2,) * 8, (3,) * 4], ids=str)
    def test_product_states(self, dims):
        # every cut ties at 1
        rng = np.random.default_rng(sum(dims))
        amps = np.ones(1)
        for d in dims:
            amps = np.kron(amps, random_amplitudes(rng, (d,)))
        report = self.assert_matches_full_row(PureState(SystemShape(dims), amps))
        assert len(report.maximizing_cuts) == 2 ** (len(dims) - 1) - 1
        assert abs(report.value) < 1e-14

    @pytest.mark.parametrize("dims", [(5, 2, 2), (2, 2, 3), (4, 2, 2), (2,) * 9], ids=str)
    def test_random_states_of_more_shapes(self, dims):
        rng = np.random.default_rng(sum(dims) + 200)
        for _ in range(6):
            self.assert_matches_full_row(
                PureState(SystemShape(dims), random_amplitudes(rng, dims)))

    def test_maximum_only_on_a_four_row_gram(self):
        # Bell pairs on (0, 2) and (1, 3): only the cut {0, 2} | {1, 3} is
        # product, and its Gram has 4 rows, so the bound must not skip it.
        psi = bell_pairs(4, [(0, 2), (1, 3)])
        report = self.assert_matches_full_row(psi)
        assert [cut.side_I for cut in report.maximizing_cuts] == [(0, 2)]
        assert report.value == 0.0

    def test_tie_between_two_and_four_row_cuts(self):
        # With a fifth qubit in |+>, the cut {4} (2 rows) and the cuts
        # {0, 2} and {1, 3} of the other four (4 rows) all tie at 1, while
        # the 4-row cut {0, 1} | {2, 3, 4} (Gram I/4) is skipped and holds
        # its bound ||I/4||_F = 1/2.
        psi = bell_pairs(5, [(0, 2), (1, 3)], extra=[1.0, 1.0] / np.sqrt(2.0))
        report = self.assert_matches_full_row(psi)
        assert {cut.side_I for cut in report.maximizing_cuts} == {
            (0, 1, 2, 3), (0, 2), (0, 2, 4)}
        assert {gram_rows(cut) for cut in report.maximizing_cuts} == {2, 4}
        pruned = _batch.schmidt_sq_matrix(psi.amplitudes[None], psi.shape.dims,
                                          max_only=True)[0]
        column = [cut.side_I for cut in enumerate_bipartitions(psi.shape)].index((0, 1))
        assert abs(report.per_cut[enumerate_bipartitions(psi.shape)[column]] - 0.25) < 1e-15
        assert abs(pruned[column] - 0.5) < 1e-15

    def test_value_sends_no_balanced_gram_to_the_top_eigenvalue(self, monkeypatch):
        dims = (2,) * 8
        psi = PureState(SystemShape(dims), random_amplitudes(np.random.default_rng(1), dims))
        sizes = []
        original = _batch._eigmax_herm

        def recording(mats):
            sizes.append(rows_of(mats))
            return original(mats)

        monkeypatch.setattr(_batch, "_eigmax_herm", recording)
        report = ggm_pure(psi)
        assert 0.0 < report.value
        assert 2 in sizes and 16 not in sizes
        assert len(report.per_cut) == 127  # the full kernel, every cut
        assert 16 in sizes

    def test_per_cut_computed_on_first_access_by_the_full_kernel(self, monkeypatch):
        dims = (3, 3, 3, 3)
        psi = PureState(SystemShape(dims), random_amplitudes(np.random.default_rng(2), dims))
        calls = []
        original = _batch.schmidt_sq_matrix

        def counting(amps, dims, **kwargs):
            calls.append(kwargs.get("max_only", False))
            return original(amps, dims, **kwargs)

        monkeypatch.setattr(_batch, "schmidt_sq_matrix", counting)
        report = ggm_pure(psi)
        assert calls == [True]
        assert "per_cut" not in vars(report)
        per_cut = report.per_cut
        assert calls == [True, False]
        assert report.per_cut is per_cut
        assert calls == [True, False]
        full = original(psi.amplitudes[None], dims)[0].tolist()
        assert list(per_cut) == enumerate_bipartitions(psi.shape)
        assert list(per_cut.values()) == full
        with pytest.raises(TypeError):
            per_cut[enumerate_bipartitions(psi.shape)[0]] = 0.0

    @pytest.mark.parametrize("rows", range(4, 33))
    def test_skipped_cuts_hold_an_upper_bound(self, rows):
        # whatever _tops stores in place of a skipped top eigenvalue is at
        # least that eigenvalue, on random unit-trace PSD Grams of every rank
        rng = np.random.default_rng(rows)
        grams = []
        for rank in range(1, rows + 1, max(1, rows // 6)):
            mats = random_amplitudes(rng, (rows, rank), rows=8).reshape(8, rows, rank)
            grams.append(mats @ mats.conj().swapaxes(-1, -2))
        full = np.concatenate(grams)
        gram = _batch._pack(full / np.trace(full, axis1=1, axis2=2).real[:, None, None])
        exact = _batch._eigmax_herm(gram)
        skipped = 0
        for best in (0.05, 0.3, 0.6, 1.0):
            tops = _batch._tops(gram[None], np.array([best]))[0]
            kept = tops == exact
            skipped += np.count_nonzero(~kept)
            assert np.all(tops[~kept] >= exact[~kept])
        assert skipped > 0

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_packed_grams_are_never_skipped(self, rows):
        # a packed Gram holds one triangle, so the dot of its reals is no
        # bound on its Frobenius norm; _tops takes their top eigenvalue
        mats = random_amplitudes(np.random.default_rng(rows), (rows, 4), rows=50)
        gram = _batch._gram(mats.reshape(50, rows, 4))
        assert np.array_equal(_batch._tops(gram[None], np.array([1.0]))[0],
                              _batch._eigmax_herm(gram))

    def test_slack_exceeds_the_tie_tolerance(self):
        assert _batch._PRUNE_SLACK > pure.TIE_TOL

    @pytest.mark.parametrize("case", [(2,) * 6, (2,) * 8, (3,) * 4, (2, 3, 4, 5),
                                      "table objective", "12-state objective"], ids=str)
    def test_values_bit_identical_whatever_the_blocking(self, case, monkeypatch):
        # pure states by dims, and coefficient rows of a PhaseObjective of
        # each kind; pruned values against the full kernel's row maximum
        if isinstance(case, str):
            objective, rows = objective_case(case)
            pruned = objective.measure
            full = every_square(objective, rows)
        else:
            rows = random_amplitudes(np.random.default_rng(9), case, rows=64)
            pruned = functools.partial(pure.ggm_values, shape=SystemShape(case))
            full = _batch.schmidt_sq_matrix(rows, case)
        results = []
        for entries in (1, 1 << 8, 1 << 16):
            monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
            results.append(pruned(rows))
        results.append(1.0 - full.max(axis=1))
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    @pytest.mark.parametrize("family", [rank3_ghz_dicke(12), rank5_five_qubit(),
                                        qutrit_sector_family()],
                             ids=["rank3_ghz_dicke12", "rank5", "qutrit"])
    def test_objective_values_keep_the_full_maximum(self, family):
        # values prunes Grams formed from the tables: its maximum keeps the
        # bits of the same table path over every cut
        objective = family.objective
        assert objective.tables
        roots, phases = random_phased_rows(family, 300, seed=3)
        full = every_square(objective, roots * np.exp(1j * phases))
        assert np.array_equal(objective.values(roots, phases), 1.0 - full.max(axis=1))

    def test_groups_in_increasing_gram_rows(self):
        rng = np.random.default_rng(12)
        for dims in GENERIC_SHAPES:
            basis = random_orthonormal_basis(rng, dims, 3)
            rows = table_rows(_batch._gram_tables(basis, dims, _batch.canonical_cut_masks(dims)))
            assert rows == sorted(rows)
        rows = table_rows(rank3_ghz_dicke(12).objective.tables)
        assert rows == sorted(rows)
        assert rows[-1] == 4


class TestGram:
    """The kernel's packed Gram of up to 3 rows against the stacked matmul."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2,) * 5, (3, 3, 3), (2, 3, 4),
                                      (3, 3, 2, 2)], ids=str)
    def test_gathered_blocks(self, dims):
        amps = random_amplitudes(np.random.default_rng(11), dims, rows=300)
        shapes = []
        for shape, index in matricization_indices(dims):
            if shape[0] > 3:
                continue
            shapes.append(shape)
            mats = amps[:, index]
            # the same matrices gathered column-major: strided along each row
            strided = amps[:, index.swapaxes(-1, -2)].swapaxes(-1, -2)
            assert not strided.flags.c_contiguous
            gram = _batch._gram(mats)
            assert gram.dtype == float and gram.shape == mats.shape[:-2] + (shape[0] ** 2,)
            assert np.max(np.abs(unpack(gram) - mats @ mats.conj().swapaxes(-1, -2))) < 1e-12
            assert np.array_equal(_batch._gram(strided), gram)
            assert np.array_equal(_batch._gram(mats[:1]), gram[:1])
            assert np.array_equal(_batch._gram(mats[:, :1]), gram[:, :1])
        assert shapes

    def test_larger_grams_take_matmul(self):
        mats = random_amplitudes(np.random.default_rng(12), (4, 6), rows=50).reshape(50, 4, 6)
        gram = _batch._gram(mats)
        assert gram.dtype == float and gram.shape == (50, 32)
        assert np.array_equal(_batch._unpack(gram), mats @ mats.conj().swapaxes(-1, -2))

    def test_one_row_gram_is_its_top_eigenvalue(self):
        # rank-deficient compressed blocks have one row; LAPACK returns the
        # same bits for the 1x1 Gram
        mats = random_amplitudes(np.random.default_rng(13), (1, 7), rows=50).reshape(50, 1, 7)
        gram = _batch._gram(mats)
        assert gram.shape == (50, 1)
        assert np.array_equal(_batch._eigmax_herm(gram), gram[:, 0])
        assert np.array_equal(_batch._eigmax_herm(gram), np.linalg.eigvalsh(unpack(gram))[:, -1])
        assert np.max(np.abs(gram[:, 0] - np.sum(np.abs(mats[:, 0]) ** 2, axis=-1))) < 1e-14

    @pytest.mark.parametrize("rows", range(1, 7))
    def test_unpack_inverts_pack(self, rows):
        # every layout, packed up to 3 rows and the full real view beyond;
        # A + A^dag is Hermitian to the bit, as the packed form assumes
        raw = random_amplitudes(np.random.default_rng(rows), (rows, rows), rows=20)
        raw = raw.reshape(20, rows, rows)
        mats = raw + raw.conj().swapaxes(-1, -2)
        packed = _batch._pack(mats)
        assert packed.dtype == float
        assert packed.shape == (20, rows * rows * (1 if rows <= 3 else 2))
        assert rows_of(packed) == rows
        assert np.array_equal(_batch._unpack(packed), mats)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_unpacked_guard_matrices_are_the_gram(self, rows):
        # the 3x3 guard rebuilds full matrices for LAPACK from the packed
        # form, and the pencil packs full ones
        mats = random_amplitudes(np.random.default_rng(rows), (rows, 5), rows=20)
        gram = _batch._gram(mats.reshape(20, rows, 5))
        assert np.array_equal(_batch._unpack(gram), unpack(gram))
        assert np.array_equal(_batch._pack(_batch._unpack(gram)), gram)


def rotated_spectra(spectra, seed):
    """U diag(s) U^dag for each row s of ``spectra`` (K, 3), U Haar-random."""
    rng = np.random.default_rng(seed)
    unitaries = np.stack([random_unitary(rng, 3) for _ in range(len(spectra))])
    return (unitaries * spectra[:, None, :]) @ unitaries.conj().swapaxes(-1, -2)


def assert_top_eigenvalues_match(packed):
    """The kernel's top eigenvalues of packed Grams meet LAPACK's on the
    full matrices within 1e-12, and no floating-point warning is raised on
    the way."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        top = _batch._eigmax_herm(packed)
    assert top.shape == packed.shape[:-1]
    assert np.max(np.abs(top - np.linalg.eigvalsh(unpack(packed))[..., -1])) < 1e-12


def recorded_grams(evaluate, monkeypatch):
    """Every packed 3x3 Gram stack that ``evaluate()`` hands to the top
    eigenvalue."""
    grams = []
    original = _batch._eigmax_herm

    def recording(mats):
        if rows_of(mats) == 3:
            grams.append(mats.reshape(-1, 9).copy())
        return original(mats)

    monkeypatch.setattr(_batch, "_eigmax_herm", recording)
    evaluate()
    monkeypatch.undo()
    return np.concatenate(grams)


def lattice_rows(n_basis, angles=4):
    """Equal-weight coefficient rows over a lattice of relative phases:
    exact degeneracies in their Schmidt spectra are common."""
    phases = np.array(list(itertools.product(
        np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False), repeat=n_basis - 1)))
    phases = np.concatenate([np.zeros((len(phases), 1)), phases], axis=1)
    return np.exp(1j * phases) / math.sqrt(n_basis)


class TestComponentClosedForms:
    """The closed forms on stacked components, contiguous as a probe holds
    them or strided as ``measure`` passes them, against the packed ones of
    ``tests/helpers.py``, bit for bit."""

    @staticmethod
    def stacks(rows):
        """Random packed Grams of ``rows`` rows, (60, 7, reals), and for 3
        rows as many again of spectra at, just inside and just outside the
        double-top guard."""
        rng = np.random.default_rng(rows)
        mats = rng.standard_normal((420, rows, 5)) + 1j * rng.standard_normal((420, rows, 5))
        grams = [_batch._gram(mats)]
        if rows == 3:
            spectra = np.repeat([[0.5, 0.5, 0.0], [0.5 + 1e-4, 0.5 - 1e-4, 0.0],
                                 [0.5 + 6e-4, 0.5 - 6e-4, 0.0]], 140, axis=0)
            grams.append(pack(rotated_spectra(spectra, seed=rows)))
        return np.concatenate(grams).reshape(-1, 7, rows * rows)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_match_the_packed_forms(self, rows, monkeypatch):
        packed = self.stacks(rows)
        expected = reference_eigmax_packed(packed)
        guarded = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda mats: guarded.append(len(mats)) or eigvalsh(mats))
        assert np.array_equal(_batch._eigmax_herm(packed), expected)
        diag, off = (np.ascontiguousarray(part) for part in _batch._components(packed))
        assert np.array_equal(_batch._eigmax_closed(diag, off).T, expected)
        # one matrix alone, as a one-row probe holds it (components put the
        # stack's axes in reverse: cut, then row)
        for cut, row in ((0, 0), (3, 31), (6, len(packed) - 1)):
            alone = _batch._eigmax_closed(diag[:, cut:cut + 1, row:row + 1],
                                          off[:, cut:cut + 1, row:row + 1])
            assert alone[0, 0] == expected[row, cut]
        assert (sum(guarded) > 0) == (rows == 3)


class TestClosedFormTopEigenvalue:
    """The closed-form 3x3 top eigenvalue and its guard against LAPACK."""

    @pytest.mark.parametrize("spectrum", [
        (0.5, 0.5, 0.0),
        (0.5 + 1e-10, 0.5 - 1e-10, 0.0),
        (0.5 + 1e-7, 0.5 - 1e-7, 0.0),
        (0.5 + 5e-4, 0.5 - 5e-4, 0.0),
        (1 / 3, 1 / 3, 1 / 3),
        (0.6, 0.2, 0.2),
        (1.0, 0.0, 0.0),
    ], ids=["double_top", "split_2e-10", "split_2e-7", "split_1e-3", "triple",
            "bottom_double", "rank1"])
    def test_rotated_spectra(self, spectrum):
        assert_top_eigenvalues_match(pack(rotated_spectra(np.tile(spectrum, (2000, 1)), seed=3)))

    def test_random_spectra(self):
        spectra = np.random.default_rng(4).dirichlet(np.ones(3), size=2000)
        assert_top_eigenvalues_match(pack(rotated_spectra(spectra, seed=4)))

    def test_exact_triple_roots_and_zero(self):
        # p = 0 exactly: the closed form must return q without dividing
        mats = pack(np.stack([np.zeros((3, 3)), np.eye(3) / 3, np.eye(3)]).astype(complex))
        assert_top_eigenvalues_match(mats)
        assert np.array_equal(_batch._eigmax_herm(mats), [0.0, 1 / 3, 1.0])

    def test_guarded_rows_independent_of_the_stack(self):
        # double-top rows go to LAPACK among closed-form rows; each row's
        # bits are the same as when it is evaluated alone
        spectra = np.repeat([[0.5, 0.5, 0.0], [0.7, 0.2, 0.1]], 50, axis=0)
        mats = pack(rotated_spectra(np.random.default_rng(7).permutation(spectra), seed=5))
        mats = mats.reshape(25, 4, 9)
        whole = _batch._eigmax_herm(mats)
        alone = np.array([[_batch._eigmax_herm(m[None])[0] for m in row] for row in mats])
        assert np.array_equal(whole, alone)

    @pytest.mark.parametrize("psi", [
        ghz(3, d=3), ghz(4, d=3),
        uniform_sector_state(SystemShape((3, 3, 3)), 3, 0),
        uniform_sector_state(SystemShape((3,) * 4), 3, 1),
    ], ids=["ghz3_qutrit", "ghz4_qutrit", "sector3", "sector4"])
    def test_amplitude_grams_of_qutrit_states(self, psi, monkeypatch):
        # the embedded GHZ has a double top pair, the sector states triples
        dims = psi.shape.dims
        rows = np.vstack([psi.amplitudes,
                          random_amplitudes(np.random.default_rng(8), dims, rows=20)])
        assert_top_eigenvalues_match(recorded_grams(
            lambda: _batch.schmidt_sq_matrix(rows, dims), monkeypatch))

    @pytest.mark.parametrize("builder", [
        lambda: rank3_ghz_dicke(5), rank5_five_qubit, qutrit_sector_family,
    ], ids=["ghz_w_dicke5", "rank5", "qutrit"])
    def test_sampler_grams_of_family_bases(self, builder, monkeypatch):
        # GHZ, W (D^1) and qutrit-sector superpositions on a phase lattice,
        # compressed to 3x3 Grams as the decomposition sampler forms them
        family = builder()
        basis, dims = family.objective.basis, family.objective.dims
        rows = np.concatenate([lattice_rows(basis.shape[0]), random_amplitudes(
            np.random.default_rng(9), (basis.shape[0],), rows=200)])
        grams = recorded_grams(lambda: support_squares(basis, dims, rows), monkeypatch)
        assert len(grams) >= len(rows)
        assert_top_eigenvalues_match(grams)


def eigenbasis(rho):
    """Range basis of ``rho`` as rows, as the decomposition sampler takes it."""
    eigvals, eigvecs = np.linalg.eigh(rho.entries)
    return eigvecs[:, eigvals > 1e-12].T


class TestCoefficientRowBlocking:
    """Coefficient rows give the same bits however they are blocked, down to
    one-row calls, so no result depends on ``_BLOCK_ENTRIES``."""

    ENTRIES = (1, 1 << 8, 1 << 10, 1 << 16)

    @classmethod
    def assert_blocking_free(cls, evaluate, rows, monkeypatch):
        results = []
        for entries in cls.ENTRIES:
            monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
            results.append(evaluate(rows))
        results.append(np.concatenate([evaluate(rows[i:i + 1]) for i in range(len(rows))]))
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_family_objective_and_kernel(self, name, monkeypatch):
        family = FAMILY_BUILDERS[name]()
        objective = family.objective
        roots, phases = random_phased_rows(family, 200, seed=len(name))
        rows = np.stack([roots, phases], axis=1)
        self.assert_blocking_free(lambda r: objective.values(r[:, 0], r[:, 1]),
                                  rows, monkeypatch)
        self.assert_blocking_free(objective.measure, roots * np.exp(1j * phases), monkeypatch)

    @pytest.mark.parametrize("builder, params", [
        (rank5_five_qubit, [0.3, 0.25]),
        (qutrit_sector_family, [0.2, 0.45]),
    ], ids=["rank5", "qutrit"])
    def test_sampler_eigenbases(self, builder, params, monkeypatch):
        family = builder()
        basis = eigenbasis(family.target_at(family.params_to_weights(params)))
        coeff = random_amplitudes(np.random.default_rng(5), (basis.shape[0],), 200)
        objective = _batch.PhaseObjective(basis, family.shape.dims)
        self.assert_blocking_free(objective.measure, coeff, monkeypatch)

    def test_bound_independent_of_blocking_for_every_seed(self, monkeypatch):
        family = rank5_five_qubit()
        rho = family.target_at(family.params_to_weights([0.3, 0.25]))
        for seed in range(12):
            bounds = []
            for entries in (1 << 8, 1 << 16):
                monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
                bounds.append(hjw_upper_bound(rho, 7, 300, seed))
            assert bounds[0] == bounds[1], seed


class TestPencil:
    """One-phase probes on the Gram pencil P + cos(theta) S + sin(theta) T,
    on every built-in family and on a basis above ``_TABLE_MAX_BASIS``
    states, there against the pure kernel on the superposed amplitudes."""

    ENTRIES = (1, 1 << 6, 1 << 10, 1 << 16)
    CASES = sorted(FAMILY_BUILDERS) + ["12-state basis"]

    @staticmethod
    def objective(name):
        """A built-in family's objective, or for ``"12-state basis"`` one of
        a seeded orthonormal 12-state basis on four qubits, above
        ``_TABLE_MAX_BASIS``."""
        if name in FAMILY_BUILDERS:
            return FAMILY_BUILDERS[name]().objective
        basis = random_orthonormal_basis(np.random.default_rng(12), (2,) * 4, 12)
        assert len(basis) > _batch._TABLE_MAX_BASIS
        return _batch.PhaseObjective(basis, (2,) * 4)

    @staticmethod
    def rows(objective, seed, count=41):
        roots, phases = random_phased_rows(objective, count, seed)
        roots[::3, -1] = 0.0   # zero weights, on the probed coordinate too
        roots[1::3, 0] = 0.0
        roots /= np.linalg.norm(roots, axis=1, keepdims=True)
        angles = np.random.default_rng(seed + 1).uniform(-np.pi, 3.0 * np.pi, (count, 5))
        return roots, phases, angles

    @staticmethod
    def full_values(objective, roots, phases, coord, angles, *, gathered=False):
        """GGM of each row with phase ``coord`` at each of ``angles``, by
        ``values``, or with ``gathered`` by the pure kernel on the rows'
        amplitudes over every cut."""
        n = phases.shape[1]
        probed = np.repeat(phases[:, None, :], angles.shape[1], axis=1)
        probed[..., coord] = angles
        roots, probed = np.repeat(roots, angles.shape[1], axis=0), probed.reshape(-1, n)
        if gathered:
            amps = (roots * np.exp(1j * probed)) @ objective.basis
            values = 1.0 - _batch.schmidt_sq_matrix(amps, objective.dims).max(axis=1)
        else:
            values = objective.values(roots, probed)
        return values.reshape(angles.shape)

    @pytest.mark.parametrize("name", CASES)
    def test_matches_values_on_every_coordinate(self, name):
        objective = self.objective(name)
        roots, phases, angles = self.rows(objective, seed=len(name))
        for coord in range(len(objective.basis)):
            probe = objective.pencil(roots, phases, coord)
            expected = self.full_values(objective, roots, phases, coord, angles,
                                        gathered=name not in FAMILY_BUILDERS)
            assert np.max(np.abs(probe(angles) - expected)) <= 1e-13
            assert np.max(np.abs(probe(angles[:, 0]) - expected[:, 0])) <= 1e-13
            one = objective.pencil(roots[4:5], phases[4:5], coord)
            assert np.max(np.abs(one(angles[4:5]) - expected[4:5])) <= 1e-13
            assert np.max(np.abs(one(angles[4:5, 0]) - expected[4:5, 0])) <= 1e-13

    @pytest.mark.parametrize("name", CASES)
    def test_bit_identical_whatever_the_blocking(self, name, monkeypatch):
        objective = self.objective(name)
        roots, phases, angles = self.rows(objective, seed=len(name) + 2)
        for coord in range(len(objective.basis)):
            whole = objective.pencil(roots, phases, coord)(angles)
            for entries in self.ENTRIES:
                monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
                assert np.array_equal(objective.pencil(roots, phases, coord)(angles), whole)
                # pencils of 8 rows, the last of one row (41 = 5 * 8 + 1)
                blocks = [objective.pencil(roots[i:i + 8], phases[i:i + 8], coord)(
                    angles[i:i + 8]) for i in range(0, len(roots), 8)]
                assert blocks[-1].shape[0] == 1
                assert np.array_equal(np.concatenate(blocks), whole)
            monkeypatch.undo()
            column = objective.pencil(roots, phases, coord)(np.ascontiguousarray(angles[:, 2]))
            assert np.array_equal(column, whole[:, 2])

    @pytest.mark.parametrize("name", ["rank3_gghz", "12-state basis"])
    def test_no_rows(self, name):
        # as measure accepts zero rows, so does the pencil and its probe
        objective = self.objective(name)
        n = len(objective.basis)
        probe = objective.pencil(np.zeros((0, n)), np.zeros((0, n)), n - 1)
        assert probe(np.zeros(0)).shape == (0,)
        assert probe(np.zeros((0, 5))).shape == (0, 5)
        assert objective.measure(np.zeros((0, n))).shape == (0,)

    @pytest.mark.parametrize("name", ["rank3_gghz", "qutrit_sector_family"])
    def test_one_angle_on_a_full_block_of_rows(self, name):
        # a golden-section step: one angle for each of 2^16 // row_entries rows
        family = FAMILY_BUILDERS[name]()
        objective = family.objective
        count = _batch._BLOCK_ENTRIES // objective.row_entries
        roots, phases = random_phased_rows(family, count, seed=1)
        angles = np.random.default_rng(2).uniform(0.0, 2.0 * np.pi, count)
        expected = self.full_values(objective, roots, phases, 1, angles[:, None])[:, 0]
        probed = objective.pencil(roots, phases, 1)(angles)
        assert np.max(np.abs(probed - expected)) <= 1e-13

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_pruned_probes_keep_the_bits(self, n, monkeypatch):
        # rank3_ghz_dicke(n >= 6) has a 4-row group, whose cuts below the
        # probe's running maximum skip the top eigenvalue
        family = rank3_ghz_dicke(n)
        objective = family.objective
        assert table_rows(objective.tables)[-1] == (3 if n == 5 else 4)
        roots, phases, angles = self.rows(family, seed=n)
        evaluated = []
        original = _batch._eigmax_herm

        def counting(gram):
            if rows_of(gram) > 3:
                evaluated[-1] += math.prod(gram.shape[:-1])
            return original(gram)

        monkeypatch.setattr(_batch, "_eigmax_herm", counting)
        results = []
        for slack in (_batch._PRUNE_SLACK, np.inf):  # an infinite slack prunes nothing
            monkeypatch.setattr(_batch, "_PRUNE_SLACK", slack)
            evaluated.append(0)
            results.append([objective.pencil(roots, phases, coord)(angles)
                            for coord in range(len(family.basis))])
        assert evaluated[0] < evaluated[1] or n == 5
        for pruned, full in zip(*results):
            assert np.array_equal(pruned, full)

    def test_phase_of_the_probed_coordinate_is_ignored(self):
        family = rank3_gghz(0.55)
        roots, phases, angles = self.rows(family, seed=9)
        moved = phases.copy()
        moved[:, 1] += 1.3
        assert np.array_equal(family.objective.pencil(roots, phases, 1)(angles),
                              family.objective.pencil(roots, moved, 1)(angles))


class TestProbeAgainstReference:
    """The component-major probe against the interleaved one it replaced
    (``tests/helpers.py``), bit for bit: every built-in family and
    coordinate, pencils of 41 rows and of one, angles (K,), (K, m) and the
    shared (1, m), under the ``_BLOCK_ENTRIES`` settings of
    :class:`TestPencil`."""

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_every_family_coordinate_and_angle_form(self, name, monkeypatch):
        objective = FAMILY_BUILDERS[name]().objective
        roots, phases, angles = TestPencil.rows(objective, seed=len(name) + 4)
        grid = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
        for entries in TestPencil.ENTRIES:
            monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
            for coord in range(len(objective.basis)):
                for rows in (slice(None), slice(4, 5)):
                    probe = objective.pencil(roots[rows], phases[rows], coord)
                    reference = reference_probe(objective, roots[rows], phases[rows], coord)
                    shared = np.broadcast_to(grid, (len(roots[rows]), grid.size))
                    for ours, theirs in ((angles[rows], angles[rows]),
                                         (angles[rows, 1], angles[rows, 1]),
                                         (grid[None, :], shared)):
                        assert np.array_equal(probe(ours), reference(theirs))


def reference_joint_seeds(objective, roots, phases, values, active, gauge):
    """The joint seeds as they were chosen before they were probed on the
    pencil: every lattice candidate evaluated in full by ``values``, one
    choice per row over the whole lattice, by the same tie rule."""
    groups = {}
    for row in range(active.shape[0]):
        groups.setdefault((active[row].tobytes(), int(gauge[row])), []).append(row)
    for (active_key, g), members in groups.items():
        mask = np.frombuffer(active_key, dtype=bool)
        free = [c for c in range(mask.size) if mask[c] and c != g]
        size = _batch._joint_seed_size(len(free))
        if size == 0:
            continue
        rows = np.array(members)
        angles = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
        combos = np.array(list(itertools.product(angles, repeat=len(free))))
        cand = np.repeat(phases[rows][:, None, :], combos.shape[0], axis=1)
        cand[:, :, free] = combos[None, :, :]
        vals = objective.values(np.repeat(roots[rows], combos.shape[0], axis=0),
                                cand.reshape(-1, phases.shape[1])).reshape(rows.size, -1)
        best, best_vals = _batch._first_near_min(vals)
        improved = best_vals < values[rows] - _batch.PHASE_VALUE_TOL
        hit = rows[improved]
        values[hit] = best_vals[improved]
        phases[hit] = cand[improved, best[improved]]


def seed_rows(family, count, seed):
    """Weight rows as minimize_phases prepares them, some with zero weights,
    but from random phases, so that many seeds improve: square roots,
    phases, values, active mask, gauge."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(family.basis)), size=count)
    weights[::4, -1] = 0.0
    weights[1::4, 0] = 0.0
    roots = np.sqrt(weights)
    active = weights > 0.0
    gauge = np.argmax(active, axis=1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=weights.shape)
    phases[~active] = 0.0
    phases[np.arange(count), gauge] = 0.0
    return roots, phases, family.objective.values(roots, phases), active, gauge


class TestJointSeeds:
    """The seed lattice probed on the Gram pencil, one pencil per row and
    lattice prefix."""

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_same_phases_as_the_values_scan(self, name):
        family = FAMILY_BUILDERS[name]()
        objective = family.objective
        roots, phases, values, active, gauge = seed_rows(family, 300, seed=len(name))
        seeded = phases.copy(), values.copy()
        _batch._apply_joint_seeds(objective, roots, *seeded, active, gauge)
        reference = phases.copy(), values.copy()
        reference_joint_seeds(objective, roots, *reference, active, gauge)
        assert np.array_equal(seeded[0], reference[0])
        assert np.max(np.abs(seeded[1] - reference[1])) <= 1e-13
        assert np.any(seeded[1] < values)

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_lattice_values_match_full_evaluations(self, name):
        family = FAMILY_BUILDERS[name]()
        objective = family.objective
        n = len(family.basis)
        roots, phases = random_phased_rows(family, 20, seed=len(name))
        free = list(range(1, n))
        angles = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
        combos = np.array(list(itertools.product(angles, repeat=len(free))))
        cand = np.repeat(phases[:, None, :], len(combos), axis=1)
        cand[:, :, free] = combos
        expected = objective.values(np.repeat(roots, len(combos), axis=0),
                                    cand.reshape(-1, n)).reshape(20, -1)
        lattice = _batch._lattice_values(objective, roots, phases, free, angles)
        assert np.max(np.abs(lattice - expected)) <= 1e-13

    @pytest.mark.parametrize("name", ["zeta_slice_family", "rank5_five_qubit",
                                      "ghz_dicke_mixture"])
    def test_lattice_values_whatever_the_blocking(self, name, monkeypatch):
        family = FAMILY_BUILDERS[name]()
        objective = family.objective
        roots, phases, _, _, _ = seed_rows(family, 13, seed=3)
        free = list(range(1, len(family.basis)))
        angles = np.linspace(0.0, 2.0 * np.pi, _batch._joint_seed_size(len(free)),
                             endpoint=False)
        whole = _batch._lattice_values(objective, roots, phases, free, angles)
        assert whole.shape == (13, angles.size ** len(free))
        for entries in (1, 1 << 6, 1 << 10):
            monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
            assert np.array_equal(_batch._lattice_values(objective, roots, phases, free,
                                                         angles), whole)
        monkeypatch.undo()
        alone = [_batch._lattice_values(objective, roots[i:i + 1], phases[i:i + 1], free,
                                        angles) for i in range(13)]
        assert np.array_equal(np.concatenate(alone), whole)


def record_golden(monkeypatch):
    """Patch ``_batch._golden_refine`` to append the rows of every call to
    the returned list."""
    refined = []
    golden = _batch._golden_refine

    def recording(probe, phases, coord, rows):
        refined.extend(rows.tolist())
        return golden(probe, phases, coord, rows)

    monkeypatch.setattr(_batch, "_golden_refine", recording)
    return refined


class TestPhaseBrackets:
    """The three-point bracket test ahead of golden section loses nothing
    against golden section on every row (``reference_minimize_phases``)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_values_match_golden_only(self, seed, monkeypatch):
        # a cold start, then warm starts from its phases at the Hessian
        # stencil points, as ggm_mixed runs them, on families whose argmin
        # moves with the weights, so that golden section runs on some rows
        family = seeded_sector_family(seed)
        grid = simplex_grid(21, 2)
        weights = family.params_to_weights(grid)
        refined = record_golden(monkeypatch)
        values, phases = _batch.minimize_phases(family.objective, weights)
        assert 0 < len(refined)
        reference, _ = reference_minimize_phases(family.objective, weights)
        assert np.max(np.abs(values - reference)) <= 1e-12
        inner = np.flatnonzero(roof._interior(grid, HESSIAN_STEP))
        offsets = roof._hessian_offsets(2, HESSIAN_STEP)
        stencil = family.params_to_weights((grid[inner, None] + offsets).reshape(-1, 2))
        start = phases[np.repeat(inner, len(offsets))]
        warm, _ = _batch.minimize_phases(family.objective, stencil, start)
        reference, _ = reference_minimize_phases(family.objective, stencil, start)
        assert np.max(np.abs(warm - reference)) <= 1e-12

    def test_warm_start_at_a_bracketed_argmin_is_kept(self, monkeypatch):
        # figure 7's family, whose argmin phases include -pi; rows that the
        # cold start refined by golden section end inside golden's last
        # bracket, not necessarily at a bracketed point, and are left out
        family = zeta_slice_family()
        weights = family.params_to_weights(simplex_grid(21, 2))
        refined = record_golden(monkeypatch)
        values, phases = _batch.minimize_phases(family.objective, weights)
        kept = np.setdiff1d(np.arange(len(weights)), refined)
        assert np.any(phases[kept] != 0.0)
        refined.clear()
        warm, warm_phases = _batch.minimize_phases(family.objective, weights[kept], phases[kept])
        assert refined == []
        assert np.array_equal(warm, values[kept])
        assert np.array_equal(warm_phases, phases[kept])

    @pytest.mark.parametrize("coord", [1, 2])
    def test_displaced_start_is_refined(self, coord, monkeypatch):
        family = rank3_ghz_w()
        grid = simplex_grid(21, 2)
        weights = family.params_to_weights(grid[roof._interior(grid, HESSIAN_STEP)])
        _, phases = _batch.minimize_phases(family.objective, weights)
        start = phases.copy()
        start[:, coord] += 0.1
        refined = record_golden(monkeypatch)
        warm, _ = _batch.minimize_phases(family.objective, weights, start)
        assert set(refined) == set(range(len(weights)))
        reference, _ = reference_minimize_phases(family.objective, weights, start)
        assert np.max(np.abs(warm - reference)) <= 1e-12


def reference_objective_values(objective, roots, phases):
    """The objective as it was computed before it took coefficient rows:
    D-sized amplitude rows gathered over the orbit cuts, in blocks of
    2^16 // (cuts * D) rows."""
    amps = (roots * np.exp(1j * phases)) @ objective.basis
    dims, masks = objective.dims, objective.masks
    flat = np.arange(math.prod(dims)).reshape(dims)
    groups = {}
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
    out = np.empty((amps.shape[0], len(masks)))
    step = max(1, (1 << 16) // (len(masks) * amps.shape[1]))
    for start in range(0, amps.shape[0], step):
        block = amps[start:start + step]
        for columns, index in groups.values():
            mats = block[:, np.stack(index)]
            out[start:start + step, columns] = _batch._eigmax_herm(_batch._gram(mats))
    return 1.0 - np.clip(out, 0.0, 1.0).max(axis=1)


@pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
def test_objective_bit_identical_to_gathered_amplitudes(name):
    # Within 1e-13, not bit for bit (measured worst 1.7e-15): the objective
    # reads the compressed blocks U^dag B_k V, a rotation of the gathered ones.
    family = FAMILY_BUILDERS[name]()
    roots, phases = random_phased_rows(family, 1 << 16, seed=len(name))
    gap = family.objective.values(roots, phases) - reference_objective_values(
        family.objective, roots, phases)
    assert np.max(np.abs(gap)) <= 1e-13


def test_large_family_point_matches_per_cut_reference():
    # One phase-minimized point at N = 12 against the independent per-cut
    # reference over all 2047 cuts of its superposed member; every Gram of
    # the compressed objective has at most 4 rows.
    family = rank3_ghz_dicke(12)
    assert max(table_rows(family.objective.tables)) <= 4
    weights = np.array([0.5, 0.3, 0.2])
    value, phases = min_phase_ggm(family, weights)
    member = superpose(family.basis, weights, phases)
    cuts = enumerate_bipartitions(family.shape)
    assert len(cuts) == 2047
    assert abs(value - (1.0 - max(max_schmidt_sq(member, cut) for cut in cuts))) <= 1e-9


def test_family_above_the_table_cutoff_matches_the_pure_kernel():
    # ghz_dicke_mixture(9) has 9 basis states, above _TABLE_MAX_BASIS, and
    # its objective reads its Gram tables on the 4 orbit cuts; the pure
    # kernel reads the superposed amplitudes on all 255 cuts
    family = ghz_dicke_mixture(9)
    objective = family.objective
    assert len(objective.basis) > _batch._TABLE_MAX_BASIS and len(objective.masks) == 4
    roots, phases = random_phased_rows(family, 300, seed=9)
    amps = (roots * np.exp(1j * phases)) @ objective.basis
    gap = objective.values(roots, phases) - pure.ggm_values(amps, family.shape)
    assert np.max(np.abs(gap)) <= 1e-13


class TestOrbitReduction:
    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_reduced_objective_matches_all_cuts(self, name):
        family = FAMILY_BUILDERS[name]()
        objective = family.objective
        roots, phases = random_phased_rows(family, 400, seed=len(name))
        reduced = objective.values(roots, phases)
        amps = (roots * np.exp(1j * phases)) @ objective.basis
        full = 1.0 - _batch.schmidt_sq_matrix(amps, objective.dims).max(axis=1)
        assert np.max(np.abs(reduced - full)) < 1e-12

    @pytest.mark.parametrize("builder, n_cuts, n_orbits", [
        (rank3_gghz, 3, 1),
        (lambda: rank3_ghz_dicke(7), 63, 3),
        (rank5_five_qubit, 15, 2),
        (qutrit_sector_family, 3, 1),
        (zeta_slice_family, 3, 2),
    ], ids=["gghz3", "ghz_dicke7", "rank5", "qutrit", "zeta_slice"])
    def test_orbit_counts(self, builder, n_cuts, n_orbits):
        objective = builder().objective
        assert len(_batch.canonical_cut_masks(objective.dims)) == n_cuts
        assert len(objective.masks) == n_orbits

    def test_basis_without_party_symmetry_keeps_every_cut(self):
        dims = (2, 2, 2, 2)
        basis = random_amplitudes(np.random.default_rng(2), dims, rows=3)
        objective = _batch.PhaseObjective(basis, dims)
        assert _batch.fixing_transpositions(basis, dims) == ()
        assert objective.masks == _batch.canonical_cut_masks(dims)

    def test_swaps_need_equal_local_dimensions(self):
        # |0..0> is fixed by every permutation, but a qubit and a qutrit
        # cannot be exchanged
        dims = (2, 3, 2)
        basis = np.zeros((1, 12), dtype=complex)
        basis[0, 0] = 1.0
        assert _batch.fixing_transpositions(basis, dims) == ((0, 2),)

    def test_representatives_are_first_of_their_orbit(self):
        masks = _batch.canonical_cut_masks((2,) * 4)
        swaps = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        # one orbit per size of the smaller side: {0}, then {0,1}
        assert _batch.orbit_representatives(4, masks, swaps) == (0b0001, 0b0011)
        assert _batch.orbit_representatives(4, masks, ()) == masks

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_count_vectors_match_union_find_on_families(self, name):
        objective = FAMILY_BUILDERS[name]().objective
        n = len(objective.dims)
        masks = _batch.canonical_cut_masks(objective.dims)
        swaps = _batch.fixing_transpositions(objective.basis, objective.dims)
        assert objective.masks == union_find_representatives(n, masks, swaps)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_count_vectors_match_union_find_on_random_swaps(self, n):
        rng = np.random.default_rng(n)
        masks = _batch.canonical_cut_masks((2,) * n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(20):
            chosen = rng.choice(len(pairs), size=rng.integers(0, len(pairs) + 1),
                                replace=False)
            swaps = tuple(pairs[c] for c in sorted(chosen))
            assert _batch.orbit_representatives(n, masks, swaps) \
                == union_find_representatives(n, masks, swaps)


def union_find_representatives(n_parties, masks, swaps):
    """Reference orbits: components of the graph joining each cut to its
    image under each swap, found by union-find over the cuts."""
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


def support_ranks(basis, dims, mask):
    """Dimensions of the joint column and row spans of a cut's blocks, rows
    on the smaller side (side I on a tie) as the kernel orients them."""
    parties, shape = smaller_side_first(dims, mask)
    blocks = basis.reshape((-1,) + dims).transpose(
        [0] + [p + 1 for p in parties]).reshape((basis.shape[0],) + shape)
    return (np.linalg.matrix_rank(np.concatenate(list(blocks), axis=1)),
            np.linalg.matrix_rank(np.concatenate(list(blocks), axis=0)))


class TestSupportKernel:
    """Gram tables of the support-compressed blocks against the gather
    kernel, same cuts."""

    @staticmethod
    def assert_matches_gather(basis, dims, rows=300, seed=0):
        coeff = random_amplitudes(np.random.default_rng(seed), (basis.shape[0],), rows)
        gathered = _batch.schmidt_sq_matrix(coeff @ basis, dims)
        compressed = support_squares(basis, dims, coeff)
        assert compressed.shape == gathered.shape
        assert np.max(np.abs(compressed - gathered)) < 1e-12

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_family_bases(self, name):
        objective = FAMILY_BUILDERS[name]().objective
        self.assert_matches_gather(objective.basis, objective.dims)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2,) * 5, (3, 3, 3), (2, 3, 4)], ids=str)
    @pytest.mark.parametrize("n_basis", [2, 3, 5])
    def test_complex_random_bases(self, dims, n_basis):
        rng = np.random.default_rng([n_basis, *dims])
        raw = random_amplitudes(rng, dims, rows=n_basis)
        basis = np.linalg.qr(raw.T)[0].T  # orthonormal complex rows
        self.assert_matches_gather(basis, dims, seed=n_basis)

    def test_structured_basis_includes_transposed_blocks(self):
        # rows x_k (x) |phi> with |phi> entangled between parties 0 and 2:
        # on cut {0,2}|{1} the smaller side, party 1, spans three column
        # directions and the larger one a single row direction, so the
        # kernel stores the plain transpose there; the other cuts keep
        # their orientation. The x_k have non-real overlaps, so a
        # conjugate transpose would be caught.
        dims = (2, 3, 4)
        xs = np.array([[1.0, 0.0, 0.0], [1j, 1.0, 0.0], [0.0, 1.0, 1j]])
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        phi = np.zeros((2, 4))
        phi[0, 0] = phi[1, 1] = 1 / math.sqrt(2)
        basis = 0.5 * np.einsum("ac,kb->kabc", phi, xs).reshape(3, -1)
        ranks = [support_ranks(basis, dims, mask) for mask in _batch.canonical_cut_masks(dims)]
        assert ranks == [(2, 6), (2, 6), (3, 1)]
        self.assert_matches_gather(basis, dims)

    def test_plain_transpose_of_wider_column_support(self):
        # on cut {0}|{1,2} the rows x_k (x) |00> span two column directions
        # but one row direction, so the kernel stores the plain transpose;
        # <x_0|x_1> is not real, so a conjugate transpose would be caught
        dims = (2, 2, 2)
        tail = np.zeros(4)
        tail[0] = 1.0
        xs = np.array([[1.0, 0.0], [1j, 1.0]]) / np.array([[1.0], [math.sqrt(2.0)]])
        basis = 0.5 * np.stack([np.kron(x, tail) for x in xs])
        ranks = [support_ranks(basis, dims, mask) for mask in _batch.canonical_cut_masks(dims)]
        assert ranks[0] == (2, 1)
        self.assert_matches_gather(basis, dims)

    def test_rank_deficient_basis(self):
        # eigenbasis of the separable |..0> mixture: product vectors, so
        # several cuts compress to a single direction
        dims = (2, 2, 2)
        basis0 = np.zeros((2, 2))
        basis0[0, 0] = 1.0
        lam, vecs = np.linalg.eigh(np.kron(np.eye(4) / 4, basis0))
        basis = vecs[:, lam > 1e-12].T.astype(complex)
        assert min(min(support_ranks(basis, dims, mask))
                   for mask in _batch.canonical_cut_masks(dims)) == 1
        self.assert_matches_gather(basis, dims)

    def test_bit_identical_whatever_the_blocking(self, monkeypatch):
        dims = (2, 3, 4)
        basis = random_amplitudes(np.random.default_rng(5), dims, rows=4)
        coeff = random_amplitudes(np.random.default_rng(6), (4,), rows=700)
        objective = support_objective(basis, dims)
        results = []
        for entries in (1 << 10, 1 << 16):
            monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
            results.append(objective.measure(coeff))
        assert np.array_equal(results[0], results[1])


SAMPLER_TARGETS = {"rank5": (rank5_five_qubit, [0.3, 0.25]),
                   "qutrit": (qutrit_sector_family, [0.2, 0.45])}


def sampler_eigenbasis(name):
    """The eigenbasis of a benchmark sampler target, and its dims."""
    builder, params = SAMPLER_TARGETS[name]
    family = builder()
    return eigenbasis(family.target_at(family.params_to_weights(params))), family.shape.dims


class TestGramTables:
    """Grams of coefficient rows as one product of their outer-product reals
    with the tables of ``_gram_tables``, against the Grams of the combined
    basis blocks (the matricizations of the superposed amplitudes), and the
    objectives that take them."""

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS) + sorted(SAMPLER_TARGETS))
    def test_squares_match_the_blocks(self, name):
        if name in SAMPLER_TARGETS:
            basis, dims = sampler_eigenbasis(name)
        else:
            objective = FAMILY_BUILDERS[name]().objective
            basis, dims = objective.basis, objective.dims
        coeff = np.concatenate([lattice_rows(basis.shape[0]), random_amplitudes(
            np.random.default_rng(len(name)), (basis.shape[0],), rows=300)])
        mapped = support_squares(basis, dims, coeff)
        assert np.max(np.abs(mapped - _batch.schmidt_sq_matrix(coeff @ basis, dims))) < 1e-13

    @pytest.mark.parametrize("dims, n_basis", [((2, 3, 4), 1), ((2, 3, 4), 2), ((2,) * 5, 3),
                                               ((2,) * 5, 5), ((2, 2, 3, 3), 8)], ids=str)
    def test_grams_in_the_layout_of_gram(self, dims, n_basis):
        # every Gram, packed up to 3 rows and the real view of the full
        # matrix beyond, which the table makes Hermitian to the bit; its
        # spectrum is the top of the gathered matricization's Gram
        rng = np.random.default_rng(n_basis)
        basis = random_orthonormal_basis(rng, dims, n_basis)
        coeff = random_amplitudes(rng, (n_basis,), rows=50)
        masks = _batch.canonical_cut_masks(dims)
        tables = _batch._gram_tables(basis, dims, masks)
        reals = _batch._outer_reals(coeff)
        assert reals.shape == (50, n_basis ** 2)
        amps = (coeff @ basis).reshape((50,) + dims)
        for columns, table in tables:
            assert table.shape[0] == n_basis ** 2 and not table.flags.writeable
            mapped = (reals @ table).reshape(50, columns.size, -1)
            rows = rows_of(mapped)
            assert mapped.shape[-1] == rows * rows * (1 if rows <= 3 else 2)
            full = _batch._unpack(mapped)
            assert np.array_equal(full, full.conj().swapaxes(-1, -2))
            for at, column in enumerate(columns):
                parties, shape = smaller_side_first(dims, masks[column])
                mats = amps.transpose([0] + [p + 1 for p in parties]).reshape((50,) + shape)
                gathered = np.linalg.eigvalsh(mats @ mats.conj().swapaxes(-1, -2))[:, -rows:]
                assert np.max(np.abs(np.linalg.eigvalsh(full[:, at]) - gathered)) < 1e-14
        assert {rows > 3 for rows in table_rows(tables)} == {False, True}

    @pytest.mark.parametrize("n_basis", [1, 2, 3, 4, 5, 8])
    def test_outer_reals_independent_of_the_block(self, n_basis):
        # a 3,000-row block against its rows one at a time, and against the
        # pairs gathered by index from the row-major views, bit for bit
        coeff = random_amplitudes(np.random.default_rng(n_basis), (n_basis,), rows=3000)
        alone = np.concatenate([_batch._outer_reals(row[None]) for row in coeff])
        assert np.array_equal(_batch._outer_reals(coeff), alone)
        assert np.array_equal(_batch._outer_reals(coeff), reference_outer_reals(coeff))

    def test_tables_built_at_construction(self, monkeypatch):
        # every objective builds its tables once, when it is constructed, and
        # they cover each of its cuts once; measure and the first pencil build
        # none, for every built-in family (whose objective is built on first
        # use), both benchmark sampler targets and bases on either side of
        # _TABLE_MAX_BASIS states
        rng = np.random.default_rng(4)
        built = []
        tables = _batch._gram_tables
        monkeypatch.setattr(_batch, "_gram_tables",
                            lambda *args: built.append(1) or tables(*args))

        def check(objective):
            assert built == [1]
            columns = np.concatenate([columns for columns, _ in objective.tables])
            assert sorted(columns) == list(range(len(objective.masks)))
            n = len(objective.basis)
            objective.measure(random_amplitudes(rng, (n,), rows=3))
            objective.pencil(np.full((3, n), n ** -0.5), np.zeros((3, n)), n - 1)
            assert built == [1]
            built.clear()

        for name, builder in FAMILY_BUILDERS.items():
            family = builder()
            assert built == [], name
            check(family.objective)
        for name in SAMPLER_TARGETS:
            check(_batch.PhaseObjective(*sampler_eigenbasis(name)))
        for n_basis in (8, 9, 12):
            check(_batch.PhaseObjective(random_orthonormal_basis(rng, (2,) * 4, n_basis),
                                        (2,) * 4))
        assert _batch._TABLE_MAX_BASIS == 8

    @pytest.mark.parametrize("kind", ["table objective", "12-state objective"])
    def test_one_and_no_rows(self, kind):
        # hjw_upper_bound measures the live members of a sample, which can be none
        objective, rows = objective_case(kind)
        assert objective.measure(rows[:0]).shape == (0,)
        assert np.array_equal(objective.measure(rows[:1]), objective.measure(rows[:2])[:1])
        assert sum(columns.size for columns, _ in objective.tables) == len(objective.masks)


class TestFamilyObjective:
    def test_built_once_on_first_evaluation(self, monkeypatch):
        built = []
        original = _batch.PhaseObjective.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_batch.PhaseObjective, "__init__", counting)
        family = rank3_ghz_w()
        assert built == []
        min_phase_ggm(family, np.full(3, 1 / 3))
        assert built == [1]
        min_phase_ggm(family, np.array([0.5, 0.25, 0.25]))
        assert built == [1]

    def test_min_phase_ggm_takes_no_search_keywords(self):
        family = rank3_ghz_w()
        with pytest.raises(TypeError):
            min_phase_ggm(family, np.full(3, 1 / 3), grid_points=16)
        with pytest.raises(TypeError):
            min_phase_ggm(family, np.full(3, 1 / 3), step_tol=1e-3)


class TestEnumerationMemo:
    def test_fresh_list_per_call(self):
        shape = SystemShape((2, 2, 2))
        first = enumerate_bipartitions(shape)
        first.clear()
        assert len(enumerate_bipartitions(shape)) == 3


class TestEnvelopeEvaluatorCached:
    def test_hull_built_once_per_surface(self, monkeypatch):
        surface = ggm_mixed(rank3_ghz_w(), grid_resolution=9)
        built = []
        original = scipy.spatial.ConvexHull

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        # envelope_evaluator_2d imports ConvexHull from scipy.spatial at call time
        monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
        query = np.array([[0.3, 0.3], [0.1, 0.6]])
        first = surface.envelope_at(query)
        second = surface.envelope_at(query)
        assert len(built) == 1
        assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# Property tests of the measure the kernel computes

SMALL_SHAPES = [(2, 2), (2, 3), (2, 2, 2), (3, 3, 3), (2, 3, 2), (2, 2, 2, 2), (2, 3, 4)]
shapes = st.sampled_from(SMALL_SHAPES)
seeds = st.integers(0, 2 ** 32 - 1)


def _state(dims, seed):
    return PureState(SystemShape(dims), random_amplitudes(np.random.default_rng(seed), dims))


@given(shapes, seeds)
def test_invariant_under_local_unitaries(dims, seed):
    psi = _state(dims, seed)
    rng = np.random.default_rng(seed + 1)
    tensor = psi.amplitudes.reshape(dims)
    for axis, d in enumerate(dims):
        tensor = np.moveaxis(np.tensordot(random_unitary(rng, d), tensor, axes=([1], [axis])),
                             0, axis)
    rotated = PureState(psi.shape, tensor.reshape(-1))
    assert np.allclose(_batch.schmidt_sq_matrix(rotated.amplitudes[None], dims),
                       _batch.schmidt_sq_matrix(psi.amplitudes[None], dims),
                       rtol=0.0, atol=1e-9)


@given(shapes.flatmap(lambda dims: st.tuples(st.just(dims),
                                             st.permutations(range(len(dims))))), seeds)
def test_invariant_under_party_permutations(dims_and_perm, seed):
    dims, perm = dims_and_perm
    psi = _state(dims, seed)
    permuted_dims = tuple(dims[p] for p in perm)
    tensor = psi.amplitudes.reshape(dims).transpose(perm)
    permuted = PureState(SystemShape(permuted_dims), tensor.reshape(-1))
    assert abs(ggm_pure(permuted).value - ggm_pure(psi).value) < 1e-9


@given(shapes, seeds)
def test_zero_on_product_states(dims, seed):
    rng = np.random.default_rng(seed)
    amps = np.ones(1, dtype=complex)
    for d in dims:
        amps = np.kron(amps, random_amplitudes(rng, (d,)))
    report = ggm_pure(PureState(SystemShape(dims), amps))
    assert abs(report.value) < 1e-12
    assert len(report.maximizing_cuts) == len(report.per_cut)


def unit_trace_psd(rng, d, rank, count=50):
    """Unit-trace d x d PSD matrices of the given rank, as Grams of unit rows are."""
    factors = rng.standard_normal((count, d, rank)) + 1j * rng.standard_normal((count, d, rank))
    mats = factors @ factors.conj().swapaxes(-1, -2)
    return mats / np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]


@given(st.integers(1, 3),
       st.integers(4, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))), seeds)
def test_closed_form_top_eigenvalue_on_psd_matrices(rank, larger, seed):
    # 3x3 Grams take the closed form; larger ones, in their layout (the
    # real view of the full matrix), take eigvalsh
    rng = np.random.default_rng(seed)
    assert_top_eigenvalues_match(pack(unit_trace_psd(rng, 3, rank)))
    mats = unit_trace_psd(rng, *larger)
    top = _batch._eigmax_herm(_batch._pack(mats))
    assert top.shape == (50,)
    assert np.max(np.abs(top - np.linalg.eigvalsh(mats)[:, -1])) < 1e-12


@given(st.integers(4, 32).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
       seeds)
def test_frobenius_norm_bounds_the_top_eigenvalue(size_and_rank, seed):
    # The premise of the kernel's cut pruning: lambda_max(G) <= ||G||_F for
    # PSD G, here unit-trace Grams as the kernel forms them.
    d, rank = size_and_rank
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((20, d, rank)) + 1j * rng.standard_normal((20, d, rank))
    mats = factors @ factors.conj().swapaxes(-1, -2)
    mats /= np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]
    frobenius = np.linalg.norm(mats, axis=(-2, -1))
    assert np.all(frobenius >= np.linalg.eigvalsh(mats)[:, -1] - 1e-15)


@given(shapes, seeds)
def test_at_most_one_minus_inverse_min_dimension(dims, seed):
    value = ggm_pure(_state(dims, seed)).value
    assert -1e-12 <= value <= 1.0 - 1.0 / min(dims) + 1e-12
