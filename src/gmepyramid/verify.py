"""Seeded randomized checks of the measure pipeline's claimed properties.

Every check derives each trial from an independent substream keyed by
(seed, trial, purpose), so serial and parallel runs agree and a failing
trial can be replayed in isolation from its reported offset.

Checks cover invariance of the volume under local unitaries and subsystem
relabeling, agreement of the two purity paths, vanishing volume on product
constructions, the closed form on GHZ states, and the coincidence of the
general pyramid formula with its four-party special case. Monotonicity
under general LOCC is not directly exercised: deterministic pure-to-pure
LOCC beyond local unitaries is degenerate at this scale, so the harness
tests the local-unitary consequence only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bipartitions import canonical_bipartitions, split
from .catalog import ghz_state
from .concurrence import dense_oracle_purity, full_spectrum, reduced_purity
from .measures import volume
from .states import PureState, apply_local_unitary, check_dims, permute_subsystems


def _haar_vector(total: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return z / np.linalg.norm(z)


def haar_random_state(dims: Sequence[int], seed) -> PureState:
    """Haar-uniform pure state: normalized iid standard complex Gaussian amplitudes."""
    dims = check_dims(dims)
    amps = _haar_vector(math.prod(dims), np.random.default_rng(seed))
    return PureState(dims, amps, normalize=True)


def random_product_state(dims: Sequence[int], cut_sites: Sequence[int], seed) -> PureState:
    """Exactly factorized state: independent Haar factors on ``cut_sites``
    and on its complement, interleaved back into subsystem order."""
    dims = check_dims(dims)
    sites, rest = split(cut_sites, len(dims))
    seed_a, seed_b = np.random.SeedSequence(seed).spawn(2)
    vec_a = _haar_vector(math.prod(dims[i - 1] for i in sites), np.random.default_rng(seed_a))
    vec_b = _haar_vector(math.prod(dims[i - 1] for i in rest), np.random.default_rng(seed_b))
    order = sites + rest
    joint = np.outer(vec_a, vec_b).reshape([dims[i - 1] for i in order])
    # Output axis s-1 takes the input axis currently holding subsystem s.
    joint = joint.transpose([order.index(s) for s in range(1, len(dims) + 1)])
    return PureState(dims, joint.ravel())


def random_local_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary.

    QR of a complex Ginibre matrix; folding the phases of R's diagonal into
    Q removes the sign ambiguity and makes the distribution Haar.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@dataclass(frozen=True)
class TrialConfig:
    """Dimensions, trial count, seed and optional tolerance override for one check."""

    dims: tuple[int, ...]
    trials: int = 100
    seed: int = 0
    tol: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", check_dims(self.dims))
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one check run; deterministic given the config."""

    check: str
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool
    worst_trial: int


DEFAULT_TOLERANCES = {
    "lu-invariance": 1e-9,
    "permutation-invariance": 1e-10,
    "oracle-agreement": 1e-12,
    "biseparable-nullity": 1e-9,
    "ghz-closed-form": 1e-9,
    "n4-formula-equivalence": 1e-12,
}


def _check_lu_invariance(config: TrialConfig) -> list[float]:
    if len(config.dims) < 3:
        raise ValueError("lu-invariance needs at least 3 parties (volume is undefined below)")
    devs = []
    for t in range(config.trials):
        state = haar_random_state(config.dims, [config.seed, t, 0])
        before = volume(full_spectrum(state)).volume
        for site in range(1, state.n + 1):
            u = random_local_unitary(state.dims[site - 1], [config.seed, t, site])
            state = apply_local_unitary(state, site, u)
        after = volume(full_spectrum(state)).volume
        devs.append(abs(after - before))
    return devs


def _check_permutation_invariance(config: TrialConfig) -> list[float]:
    if len(config.dims) < 3:
        raise ValueError("permutation-invariance needs at least 3 parties")
    devs = []
    for t in range(config.trials):
        state = haar_random_state(config.dims, [config.seed, t, 0])
        rng = np.random.default_rng([config.seed, t, 1])
        perm = [int(p) + 1 for p in rng.permutation(state.n)]
        before = volume(full_spectrum(state)).volume
        after = volume(full_spectrum(permute_subsystems(state, perm))).volume
        devs.append(abs(after - before))
    return devs


def _check_oracle_agreement(config: TrialConfig) -> list[float]:
    devs = []
    cuts = canonical_bipartitions(len(config.dims))
    for t in range(config.trials):
        state = haar_random_state(config.dims, [config.seed, t, 0])
        devs.append(
            max(abs(reduced_purity(state, cut) - dense_oracle_purity(state, cut)) for cut in cuts)
        )
    return devs


def _check_biseparable_nullity(config: TrialConfig) -> list[float]:
    n = len(config.dims)
    if n < 3:
        raise ValueError("biseparable-nullity needs at least 3 parties")
    devs = []
    for t in range(config.trials):
        rng = np.random.default_rng([config.seed, t, 0])
        k = int(rng.integers(1, n // 2 + 1))
        sites = sorted(int(s) + 1 for s in rng.choice(n, size=k, replace=False))
        state = random_product_state(config.dims, sites, [config.seed, t, 1])
        devs.append(volume(full_spectrum(state)).volume)
    return devs


def _check_ghz_closed_form(config: TrialConfig) -> list[float]:
    devs = []
    for n in range(4, 9):
        computed = volume(full_spectrum(ghz_state(n))).volume
        closed = n / (12.0 * math.tan(math.pi / n))
        devs.append(abs(computed - closed))
    return devs


def _check_n4_formula_equivalence(config: TrialConfig) -> list[float]:
    if len(config.dims) != 4:
        raise ValueError("n4-formula-equivalence requires exactly 4 parties")
    devs = []
    for t in range(config.trials):
        state = haar_random_state(config.dims, [config.seed, t, 0])
        geometry = volume(full_spectrum(state))
        direct = geometry.base_edge**2 * geometry.height / 3.0
        devs.append(abs(geometry.volume - direct))
    return devs


_CHECKS: dict[str, Callable[[TrialConfig], list[float]]] = {
    "lu-invariance": _check_lu_invariance,
    "permutation-invariance": _check_permutation_invariance,
    "oracle-agreement": _check_oracle_agreement,
    "biseparable-nullity": _check_biseparable_nullity,
    "ghz-closed-form": _check_ghz_closed_form,
    "n4-formula-equivalence": _check_n4_formula_equivalence,
}

CHECK_NAMES = tuple(sorted(_CHECKS))


def run_check(name: str, config: TrialConfig) -> TrialOutcome:
    """Run one named property check; identical (name, config) gives an identical outcome.

    The ghz-closed-form check sweeps the fixed range N = 4..8 and ignores
    the configured dims and trial count.
    """
    try:
        check = _CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}; available: {', '.join(CHECK_NAMES)}") from None
    devs = check(config)
    worst = max(range(len(devs)), key=devs.__getitem__)
    tolerance = config.tol if config.tol is not None else DEFAULT_TOLERANCES[name]
    return TrialOutcome(
        check=name,
        trials=len(devs),
        max_deviation=devs[worst],
        tolerance=tolerance,
        passed=devs[worst] <= tolerance,
        worst_trial=worst,
    )
