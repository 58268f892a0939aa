"""Tensor-product index arithmetic, state containers, and matricization.

Conventions used throughout the package:

* parties are indexed from 0 and ordered; party 0 is the most significant
  digit of a basis index (row-major layout),
* a bipartition is stored in canonical form with party 0 on side I,
* all containers are immutable after construction and validate their
  defining invariants eagerly, so downstream code never re-checks them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NORM_TOL",
    "SystemShape",
    "PureState",
    "DensityMatrix",
    "Bipartition",
    "enumerate_bipartitions",
    "matricize",
]

# Constructor tolerance; inputs are analytically normalized, so anything
# looser than this is a bug upstream, not noise. Every check is written to
# pass only within it, so a NaN or infinite entry fails it too.
NORM_TOL = 1e-10


def _frozen_array(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SystemShape:
    """Ordered per-party local dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 2:
            raise ValueError(f"need at least 2 parties, got {len(dims)}")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def uniform(cls, n_parties: int, d: int = 2) -> "SystemShape":
        """Shape of ``n_parties`` parties with equal local dimension ``d``."""
        return cls((d,) * n_parties)

    @property
    def party_count(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def index_of(self, digits) -> int:
        """Basis index of a multi-index, party 0 most significant."""
        digits = tuple(int(j) for j in digits)
        if len(digits) != self.party_count:
            raise ValueError("multi-index length does not match party count")
        idx = 0
        for d, j in zip(self.dims, digits):
            if not 0 <= j < d:
                raise ValueError(f"digit {j} out of range for dimension {d}")
            idx = idx * d + j
        return idx

    def digits_of(self, index: int) -> tuple[int, ...]:
        """Multi-index of a basis index (inverse of :meth:`index_of`)."""
        if not 0 <= index < self.total_dim:
            raise ValueError(f"index {index} out of range")
        out = []
        for d in reversed(self.dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over a tensor-product space."""

    shape: SystemShape
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.shape.total_dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, "
                f"expected {self.shape.total_dim}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _frozen_array(amps))

    def projector(self) -> "DensityMatrix":
        """Rank-1 density matrix |psi><psi|."""
        return DensityMatrix(self.shape, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix on the full space."""

    shape: SystemShape
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        d = self.shape.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"entries have shape {mat.shape}, expected {(d, d)}")
        herm_dev = np.max(np.abs(mat - mat.conj().T))
        if not herm_dev <= NORM_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
        trace_dev = abs(mat.trace() - 1.0)
        if not trace_dev <= NORM_TOL:
            raise ValueError(f"trace deviates from 1 by {trace_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if not min_eig >= -NORM_TOL:
            raise ValueError(f"matrix has negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "entries", _frozen_array(mat))

    @classmethod
    def mixture(cls, states, weights) -> "DensityMatrix":
        """Convex mixture sum_k w_k |psi_k><psi_k| of pure states."""
        states = list(states)
        weights = np.asarray(weights, dtype=float)
        if len(states) != weights.size:
            raise ValueError("states and weights have different lengths")
        rho = np.zeros((states[0].shape.total_dim,) * 2, dtype=complex)
        for w, psi in zip(weights, states):
            if psi.shape != states[0].shape:
                raise ValueError("all states in a mixture must share a shape")
            rho += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return cls(states[0].shape, rho)

    def rank(self, tol: float = 1e-12) -> int:
        return int(np.sum(np.linalg.eigvalsh(self.entries) > tol))


@dataclass(frozen=True)
class Bipartition:
    """One side of a split of the parties, canonicalized to contain party 0.

    Construction accepts either side of the split; the complement is taken
    automatically when party 0 is missing, so each unordered split has a
    unique representative.
    """

    shape: SystemShape
    side_I: tuple[int, ...]

    def __post_init__(self):
        n = self.shape.party_count
        side = sorted(set(int(i) for i in self.side_I))
        if any(i < 0 or i >= n for i in side):
            raise ValueError(f"party index out of range in {side}")
        if not side or len(side) == n:
            raise ValueError("side_I must be a nonempty proper subset of the parties")
        if 0 not in side:
            side = sorted(set(range(n)) - set(side))
        object.__setattr__(self, "side_I", tuple(side))

    @property
    def side_L(self) -> tuple[int, ...]:
        members = set(self.side_I)
        return tuple(i for i in range(self.shape.party_count) if i not in members)

    @property
    def dim_I(self) -> int:
        return math.prod(self.shape.dims[i] for i in self.side_I)

    @property
    def dim_L(self) -> int:
        return math.prod(self.shape.dims[i] for i in self.side_L)

    def __str__(self):
        left = ",".join(map(str, self.side_I))
        right = ",".join(map(str, self.side_L))
        return f"{{{left}}}:{{{right}}}"


def enumerate_bipartitions(shape: SystemShape) -> list[Bipartition]:
    """All 2^(N-1) - 1 canonical bipartitions of a shape.

    Deterministic order: by size of side I, then lexicographic in the
    member indices.
    """
    return list(_canonical_cuts(shape))


@functools.lru_cache(maxsize=None)
def _canonical_cuts(shape: SystemShape) -> tuple[Bipartition, ...]:
    # Bipartitions are immutable, so one tuple per shape is shared by all
    # callers; each caller gets its own list.
    others = range(1, shape.party_count)
    return tuple(Bipartition(shape, (0,) + combo)
                 for k in range(shape.party_count - 1)
                 for combo in itertools.combinations(others, k))


def matricize(state: PureState, cut: Bipartition) -> np.ndarray:
    """Amplitude matrix of a state across a bipartition.

    Entry (r, c) is the amplitude whose multi-index restricted to side I
    encodes r (row-major over the side-I parties in ascending order) and to
    the complement encodes c.
    """
    if cut.shape != state.shape:
        raise ValueError("bipartition shape does not match state shape")
    tensor = state.amplitudes.reshape(state.shape.dims)
    perm = cut.side_I + cut.side_L
    return np.ascontiguousarray(tensor.transpose(perm)).reshape(cut.dim_I, cut.dim_L)
