"""Seeded randomized checks of the measure pipeline's claimed properties.

Each check is one row of the ``_CHECKS`` table: a function giving the
deviation of trial ``t``, its default tolerance, the party counts it
accepts, and an optional fixed trial count. ``run_check`` runs every check
through one trial loop. A trial draws only from substreams keyed by
(seed, trial, purpose), so its value does not depend on the trial count,
and a failing trial replays alone: ``_CHECKS[name].trial(config,
worst_trial)`` returns the reported maximum deviation.

In ``lu-invariance`` each trial rotates every site s by a Haar unitary
drawn from its own substream (seed, trial, s); the draws of one local
dimension are factored as one stack (one QR call), and the rotations are
applied site by site in order, so the rotated state does not depend on how
the sites are grouped.

Checks cover invariance of the volume under local unitaries and subsystem
relabeling, agreement of every value of ``full_spectrum`` with the dense
oracle, vanishing volume on product constructions, the closed form on GHZ
states, and the coincidence of the general pyramid formula with its
four-party special case. Under LOCC, each cut concurrence is a concave,
unitarily invariant function of the reduced state, hence an ensemble
(outcome-averaged) monotone, and so is C_GME, their minimum. The pyramid
volume is not: a local filter on one qubit of cos t|0000> + sin t|1111>
raises its outcome average (README, "Known discrepancies"). No check here
draws random LOCC; the harness tests the local-unitary consequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bipartitions import split
from .catalog import ghz_state
from .concurrence import dense_oracle_purity, full_spectrum
from .measures import check_tolerance, volume
from .states import (
    PureState,
    _Owned,
    apply_local_unitaries,
    as_index,
    check_dims,
    permute_subsystems,
)


def _haar_vector(total: int, rng: np.random.Generator) -> np.ndarray:
    # Filled in place: the same values as re + 1j * im, in one complex buffer.
    z = np.empty(total, dtype=complex)
    z.real = rng.standard_normal(total)
    z.imag = rng.standard_normal(total)
    z /= np.linalg.norm(z)
    return z


def haar_random_state(dims: Sequence[int], seed) -> PureState:
    """Haar-uniform pure state: normalized iid standard complex Gaussian amplitudes."""
    dims = check_dims(dims)
    amps = _haar_vector(math.prod(dims), np.random.default_rng(seed))
    return PureState(dims, _Owned(amps), normalize=True)


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
    """Haar-distributed d x d unitary; the one-matrix case of :func:`_haar_unitaries`."""
    return _haar_unitaries(d, [seed])[0]


def _haar_unitaries(d: int, seeds: Sequence) -> np.ndarray:
    """Haar-distributed d x d unitaries, one per seed, as one stack.

    Each complex Ginibre matrix is drawn from its own seed's stream, and
    the stack takes one QR factorization; folding the phases of each R's
    diagonal into its Q removes the sign ambiguity and makes the
    distribution Haar (Mezzadri, Notices AMS 54, 592, 2007).
    """
    if as_index(d, "dimension") < 2:
        raise ValueError("dimension must be at least 2")
    z = np.empty((len(seeds), d, d), dtype=complex)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[k] = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


@dataclass(frozen=True)
class TrialConfig:
    """Dimensions, trial count, seed and optional tolerance override for one check."""

    dims: tuple[int, ...]
    trials: int = 100
    seed: int = 0
    tol: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", check_dims(self.dims))
        object.__setattr__(self, "trials", as_index(self.trials, "trial count"))
        object.__setattr__(self, "seed", as_index(self.seed, "seed"))
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tol is not None:
            object.__setattr__(self, "tol", check_tolerance(self.tol))


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one check run; deterministic given the config."""

    check: str
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool
    worst_trial: int


# Trial helpers look their callees up as module globals at call time, so a
# tracer that swaps those globals sees every call.
def _haar_trial(config: TrialConfig, t: int) -> PureState:
    return haar_random_state(config.dims, [config.seed, t, 0])


def _volume(state: PureState) -> float:
    return volume(full_spectrum(state)).volume


def _rotate_locally(state: PureState, seed: int, t: int) -> PureState:
    """``state`` with every site s rotated, in turn, by a Haar unitary drawn
    from substream (seed, t, s); the unitaries of one local dimension are
    factored as one stack."""
    sites = range(1, state.n + 1)
    us = {}
    for d in set(state.dims):
        group = [s for s in sites if state.dims[s - 1] == d]
        us.update(zip(group, _haar_unitaries(d, [[seed, t, s] for s in group])))
    return apply_local_unitaries(state, sites, [us[s] for s in sites])


def _lu_invariance(config: TrialConfig, t: int) -> float:
    state = _haar_trial(config, t)
    before = _volume(state)
    return abs(_volume(_rotate_locally(state, config.seed, t)) - before)


def _permutation_invariance(config: TrialConfig, t: int) -> float:
    state = _haar_trial(config, t)
    rng = np.random.default_rng([config.seed, t, 1])
    perm = [int(p) + 1 for p in rng.permutation(state.n)]
    return abs(_volume(permute_subsystems(state, perm)) - _volume(state))


def _oracle_agreement(config: TrialConfig, t: int) -> float:
    # The purity behind each value of the row evaluate reads, P = 1 - C^2 / 2.
    state = _haar_trial(config, t)
    spectrum = full_spectrum(state)
    return max(
        abs(1.0 - 0.5 * c * c - dense_oracle_purity(state, cut))
        for cut, c in zip(spectrum.cuts, spectrum.values)
    )


def _biseparable_nullity(config: TrialConfig, t: int) -> float:
    n = len(config.dims)
    rng = np.random.default_rng([config.seed, t, 0])
    k = int(rng.integers(1, n // 2 + 1))
    sites = sorted(int(s) + 1 for s in rng.choice(n, size=k, replace=False))
    return _volume(random_product_state(config.dims, sites, [config.seed, t, 1]))


def _ghz_closed_form(config: TrialConfig, t: int) -> float:
    n = 4 + t
    return abs(_volume(ghz_state(n)) - n / (12.0 * math.tan(math.pi / n)))


def _n4_formula_equivalence(config: TrialConfig, t: int) -> float:
    geometry = volume(full_spectrum(_haar_trial(config, t)))
    return abs(geometry.volume - geometry.base_edge**2 * geometry.height / 3.0)


class _Check(NamedTuple):
    """Deviation of trial ``t``, default tolerance, party rule (at least
    ``parties``, or exactly when ``exact``) and an optional fixed trial count."""

    trial: Callable[[TrialConfig, int], float]
    tolerance: float
    parties: int = 2
    exact: bool = False
    trials: int | None = None


_CHECKS = {
    "lu-invariance": _Check(_lu_invariance, 1e-9, parties=3),
    "permutation-invariance": _Check(_permutation_invariance, 1e-10, parties=3),
    "oracle-agreement": _Check(_oracle_agreement, 1e-12),
    "biseparable-nullity": _Check(_biseparable_nullity, 1e-9, parties=3),
    # GHZ on N = 4..8 qubits whatever the configured dims.
    "ghz-closed-form": _Check(_ghz_closed_form, 1e-9, trials=5),
    "n4-formula-equivalence": _Check(_n4_formula_equivalence, 1e-12, parties=4, exact=True),
}

DEFAULT_TOLERANCES = {name: check.tolerance for name, check in _CHECKS.items()}

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
    n = len(config.dims)
    if (n != check.parties) if check.exact else (n < check.parties):
        rule = "exactly" if check.exact else "at least"
        raise ValueError(f"{name} needs {rule} {check.parties} parties, got {n}")
    devs = [check.trial(config, t) for t in range(check.trials or config.trials)]
    worst = max(range(len(devs)), key=devs.__getitem__)
    tolerance = config.tol if config.tol is not None else check.tolerance
    return TrialOutcome(
        check=name,
        trials=len(devs),
        max_deviation=devs[worst],
        tolerance=tolerance,
        passed=devs[worst] <= tolerance,
        worst_trial=worst,
    )
