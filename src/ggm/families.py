"""Canonical twirl-invariant mixture families.

Each builder returns a verified :class:`~ggm.roof.TwirledFamily` whose
parameter names and weight map match how the family is usually plotted:
1-parameter families mix two orthogonal states, 2-parameter families tile
the triangular simplex.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import SystemShape
from .roof import TwirledFamily
from .states import dicke, gghz, ghz, uniform_sector_state, zeta
from .twirl import LocalUnitaryElement, UnitaryGroup, builtin_group

__all__ = [
    "rank2_symmetric",
    "rank3_ghz_w",
    "rank3_gghz",
    "rank3_ghz_dicke",
    "rank5_five_qubit",
    "ghz_dicke_mixture",
    "zeta_family",
    "zeta_slice_family",
    "qutrit_sector_family",
    "ghz_mixture",
    "FAMILY_BUILDERS",
]


def rank2_symmetric(n_parties: int = 3) -> TwirledFamily:
    """x |even> <even| + (1-x) |odd> <odd| with uniform parity-sector states.

    The fully symmetric rank-2 mixture: both basis states put equal
    amplitude on every bitstring of their parity sector. Invariant under
    the parity group.
    """
    shape = SystemShape.uniform(n_parties, 2)
    basis = (uniform_sector_state(shape, 2, 0), uniform_sector_state(shape, 2, 1))
    return TwirledFamily(
        group=builtin_group("parity", shape),
        basis=basis,
        weights=np.array([0.5, 0.5]),
        name=f"rank2_symmetric(N={n_parties})",
        param_names=("x",),
    )


def rank3_ghz_w() -> TwirledFamily:
    """x1 GHZ3 + x2 W + (1-x1-x2) flipped-W, three qubits."""
    return TwirledFamily(
        group=builtin_group("omega", SystemShape.uniform(3, 2)),
        basis=(ghz(3), dicke(3, 1), dicke(3, 2)),
        weights=np.full(3, 1 / 3),
        name="rank3_ghz_w",
        param_names=("x1", "x2"),
    )


def rank3_gghz(alpha: float = 0.55) -> TwirledFamily:
    """Same mixture with the unbalanced alpha|000> + sqrt(1-a^2)|111> state."""
    return TwirledFamily(
        group=builtin_group("omega", SystemShape.uniform(3, 2)),
        basis=(gghz(3, alpha), dicke(3, 1), dicke(3, 2)),
        weights=np.full(3, 1 / 3),
        name=f"rank3_gghz(alpha={alpha})",
        param_names=("x1", "x2"),
    )


def rank3_ghz_dicke(n_parties: int = 5) -> TwirledFamily:
    """x1 GHZ_N + x2 D^1 + (1-x1-x2) D^(N-1) on N qubits."""
    if n_parties < 3:
        raise ValueError("the rank-3 mixture needs at least 3 parties")
    shape = SystemShape.uniform(n_parties, 2)
    return TwirledFamily(
        group=builtin_group("omega", shape),
        basis=(ghz(n_parties), dicke(n_parties, 1), dicke(n_parties, n_parties - 1)),
        weights=np.full(3, 1 / 3),
        name=f"rank3_ghz_dicke(N={n_parties})",
        param_names=("x1", "x2"),
    )


def _rank5_weights(params: np.ndarray) -> np.ndarray:
    x1, x2 = params[..., 0], params[..., 1]
    rest = 1.0 - x1 - x2
    return np.stack([x1, x2 / 2, x2 / 2, rest / 2, rest / 2], axis=-1)


def rank5_five_qubit() -> TwirledFamily:
    """x1 GHZ5 + x2/2 (D^1 + D^2) + (1-x1-x2)/2 (D^3 + D^4)."""
    shape = SystemShape.uniform(5, 2)
    basis = (ghz(5),) + tuple(dicke(5, k) for k in range(1, 5))
    return TwirledFamily(
        group=builtin_group("omega", shape),
        basis=basis,
        weights=_rank5_weights(np.array([0.2, 0.4])),
        name="rank5_five_qubit",
        param_names=("x1", "x2"),
        weight_map=_rank5_weights,
    )


def ghz_dicke_mixture(n_parties: int = 4, alpha: float = 1 / math.sqrt(2)) -> TwirledFamily:
    """(1 - sum x_i) gGHZ_N + sum_i x_i D^i: the full rank-N mixture.

    Parameters are the Dicke weights x1..x_{N-1}; the residual weight sits
    on the (generalized) GHZ component.
    """
    shape = SystemShape.uniform(n_parties, 2)
    basis = (gghz(n_parties, alpha),) + tuple(
        dicke(n_parties, k) for k in range(1, n_parties))

    def weight_map(params):
        return np.concatenate([1.0 - params.sum(axis=-1, keepdims=True), params], axis=-1)

    return TwirledFamily(
        group=builtin_group("omega", shape),
        basis=basis,
        weights=np.full(n_parties, 1 / n_parties),
        name=f"ghz_dicke_mixture(N={n_parties}, alpha={alpha:g})",
        param_names=tuple(f"x{i}" for i in range(1, n_parties)),
        weight_map=weight_map,
    )


def zeta_family() -> TwirledFamily:
    """Rank-4 three-qubit mixture of the zeta basis, asymmetric group."""
    return TwirledFamily(
        group=builtin_group("zeta", SystemShape.uniform(3, 2)),
        basis=tuple(zeta(i) for i in range(1, 5)),
        weights=np.full(4, 0.25),
        name="zeta_family",
        param_names=("x1", "x2", "x3"),
    )


def _zeta_slice_weights(params: np.ndarray) -> np.ndarray:
    x, y = params[..., 0], params[..., 1]
    return np.stack([x, y / 2, y / 2, 1.0 - x - y], axis=-1)


def zeta_slice_family() -> TwirledFamily:
    """The zeta mixture on the slice x2 = x3 = y/2, parameterized by (x, y)."""
    return TwirledFamily(
        group=builtin_group("zeta", SystemShape.uniform(3, 2)),
        basis=tuple(zeta(i) for i in range(1, 5)),
        weights=_zeta_slice_weights(np.array([0.3, 0.4])),
        name="zeta_slice_family",
        param_names=("x", "y"),
        weight_map=_zeta_slice_weights,
    )


def qutrit_sector_family() -> TwirledFamily:
    """Three-qutrit mixture of the uniform digit-sum sector states."""
    shape = SystemShape.uniform(3, 3)
    basis = tuple(uniform_sector_state(shape, 3, k) for k in range(3))
    return TwirledFamily(
        group=builtin_group("qudit", shape),
        basis=basis,
        weights=np.full(3, 1 / 3),
        name="qutrit_sector_family",
        param_names=("x1", "x2"),
    )


def ghz_mixture(n_parties: int = 3) -> TwirledFamily:
    """x GHZ+ + (1-x) GHZ-: the parity family rotated to the GHZ basis.

    The fixing group is {I, sigma_x^(x N)}, the parity group conjugated by
    the same single-qubit Hadamard-type rotation on every party.
    """
    shape = SystemShape.uniform(n_parties, 2)
    eye = np.eye(2)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    group = UnitaryGroup(shape, (
        LocalUnitaryElement(shape, (eye,) * n_parties),
        LocalUnitaryElement(shape, (sigma_x,) * n_parties),
    ))
    return TwirledFamily(
        group=group,
        basis=(ghz(n_parties, sign=1), ghz(n_parties, sign=-1)),
        weights=np.array([0.5, 0.5]),
        name=f"ghz_mixture(N={n_parties})",
        param_names=("x",),
    )


FAMILY_BUILDERS = {
    "rank2_symmetric": rank2_symmetric,
    "rank3_ghz_w": rank3_ghz_w,
    "rank3_gghz": rank3_gghz,
    "rank3_ghz_dicke": rank3_ghz_dicke,
    "rank5_five_qubit": rank5_five_qubit,
    "ghz_dicke_mixture": ghz_dicke_mixture,
    "zeta_family": zeta_family,
    "zeta_slice_family": zeta_slice_family,
    "qutrit_sector_family": qutrit_sector_family,
    "ghz_mixture": ghz_mixture,
}
