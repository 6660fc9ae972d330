"""Quantum dynamical entropy of repeated measurement with unitary drive.

A qubit unitary enters only through its rotation action on Bloch space.
Interleaving a fixed unitary with repeated measurement of a normalized
rank-1 POVM produces a stationary Markov chain on the outcome alphabet
whose transition matrix is p_ij = (1 + (R v_i) . v_j)/k; the dynamical
entropy is its entropy rate started from the maximally mixed state.  The
entropies are the Shannon kernel's, sums of eta(p) = -p ln p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import SHANNON
from .catalog import HsPovm
from .entropy import _entropy_values
from .groups import rotation_matrix

ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class UnitaryAsRotation:
    """Adjoint (Bloch-space) action of a qubit unitary: a 3x3 rotation."""

    R: np.ndarray

    def __post_init__(self):
        R = np.array(self.R, dtype=float)
        if not np.isfinite(R).all():
            raise ValueError("matrix is not finite")
        if np.linalg.norm(R @ R.T - np.eye(3)) > 1e-10:
            raise ValueError("matrix is not orthogonal")
        if abs(np.linalg.det(R) - 1.0) > 1e-10:
            raise ValueError("matrix is not a proper rotation")
        R.setflags(write=False)
        object.__setattr__(self, "R", R)

    @classmethod
    def identity(cls) -> "UnitaryAsRotation":
        return cls(np.eye(3))

    @classmethod
    def about_axis(cls, axis, angle: float) -> "UnitaryAsRotation":
        return cls(rotation_matrix(axis, angle))


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic outcome-to-outcome matrix of the measurement chain."""

    P: np.ndarray

    def __post_init__(self):
        P = np.array(self.P, dtype=float)
        k = P.shape[0]
        if P.shape != (k, k):
            raise ValueError("transition matrix must be square")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12 * k:
            raise ValueError("rows must sum to one")
        P.setflags(write=False)
        object.__setattr__(self, "P", P)


def transition_matrix(R: UnitaryAsRotation, povm: HsPovm) -> TransitionMatrix:
    """p_ij = (1 + (R v_i) . v_j)/k; doubly stochastic because the Bloch
    vectors have zero centroid."""
    coords = povm.matrix()
    rotated = coords @ R.R.T
    return TransitionMatrix((1.0 + rotated @ coords.T) / povm.k)


def dynamical_entropy(R: UnitaryAsRotation, povm: HsPovm) -> float:
    """H(U, Pi) = (1/k) sum_ij eta(p_ij), the chain's entropy rate."""
    P = transition_matrix(R, povm).P
    return SHANNON.entropy(P) / povm.k


def measurement_entropy(povm: HsPovm) -> float:
    """Mean entropy of measurement over the POVM's own states; equals the
    dynamical entropy of the identity."""
    values = _entropy_values(povm.matrix(), povm)
    return float(np.mean(values))


def string_entropies(R: UnitaryAsRotation, povm: HsPovm, n_max: int) -> list:
    """[H_1, ..., H_n_max] where H_n sums eta over all k^n outcome-string
    probabilities from the maximally mixed state, by exact enumeration.

    The working array is indexed by the full string with the last outcome
    varying fastest; extending by one outcome multiplies each entry by the
    transition row of its last outcome.
    """
    k = povm.k
    if k ** n_max > ENUMERATION_BUDGET:
        raise ValueError("enumeration budget exceeded (k^n > 1e7)")
    P = transition_matrix(R, povm).P
    probs = np.full(k, 1.0 / k)
    entropies = [SHANNON.entropy(probs)]
    for _ in range(n_max - 1):
        probs = (probs.reshape(-1, k)[:, :, None] * P[None, :, :]).reshape(-1)
        entropies.append(SHANNON.entropy(probs))
    return entropies


def empirical_entropy_rate(R: UnitaryAsRotation, povm: HsPovm, n: int) -> float:
    """H_{n+1} - H_n from exact string enumeration (n <= 8, k^(n+1) <= 1e7).

    Kept as a cross-check oracle for dynamical_entropy, which computes the
    same rate directly from the transition matrix.
    """
    if n < 1 or n > 8:
        raise ValueError("n must be in 1..8")
    entropies = string_entropies(R, povm, n + 1)
    return entropies[n] - entropies[n - 1]
