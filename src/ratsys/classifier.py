"""Regime prediction from the kernel spectrum, plus empirical verification.

The predicted regime is a pure function of the eigenvalues under one
tolerance rule, :func:`~ratsys.linalg.radius_side`: radii in the closed
band [1 - rho_tol, 1 + rho_tol] count as 1, and -1 counts as an eigenvalue
when some -lambda lies in that band.  The regime is the only radius
decision of a classification: the witness seeds are built from it, not
decided again.  At m = 2 the spectrum of any nonnegative kernel comes from
one closed form, :func:`~ratsys.linalg.eig2`.  Near the boundary the
classifier refuses to guess and raises :class:`BoundaryAmbiguous`.

:func:`verify_classification` simulates the witness and random runs and
records each run's verdict once, as a :class:`PredictionCheck`: a status
(:data:`PASS`, :data:`FAIL` or :data:`INFO`) from one rule, and the run's
:class:`~ratsys.analysis.AnalysisReport`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from .analysis import (
    CONVERGED_TO_ZERO,
    EVENTUALLY_PERIODIC,
    UNBOUNDED,
    AnalysisReport,
    Tolerances,
    analyze,
)
from .constructors import construct_unbounded_seed, uniform_draws, _is_case3_kernel
from .linalg import (
    RHO_TOL,
    EigenDecomposition,
    eig2,
    eig_symmetric,
    is_positive,
    is_symmetric,
    perron_pair,
    radius_side,
)
from .model import InitialConditions, SystemSpec
from .simulator import check_run_size, simulate_batch

CONVERGES_TO_ZERO = "converges-to-zero"
PERIOD_K = "period-k"
PERIOD_2K = "period-2k"
UNBOUNDED_EXISTS = "unbounded-exists"


class BoundaryAmbiguous(RuntimeError):
    """The spectrum is too close to the decision boundary to classify."""


@dataclass
class Classification:
    regime: str
    theorem_path: str
    spectrum: EigenDecomposition
    witness: Optional[InitialConditions] = None


def regime_from_spectrum(
    eigenvalues: np.ndarray, residual: float, rho_tol: float = RHO_TOL
) -> str:
    """Map a spectrum to a regime under the tolerance policy.

    ``residual`` is the eigenpair residual of the decomposition the
    eigenvalues came from; inside the radius-1 band it must be below
    ``rho_tol`` for the -1 membership test to be trustworthy.
    """
    lams = np.asarray(eigenvalues, dtype=float)
    side = radius_side(float(np.abs(lams).max()), rho_tol)
    if side != 0:
        return CONVERGES_TO_ZERO if side < 0 else UNBOUNDED_EXISTS
    if residual > rho_tol:
        raise BoundaryAmbiguous(
            f"eigenpair residual {residual!r} is too large to decide "
            f"whether -1 is an eigenvalue"
        )
    if any(radius_side(-lam, rho_tol) == 0 for lam in lams.tolist()):
        return PERIOD_2K
    return PERIOD_K


#: regime -> (tetrachotomy case, trichotomy case, witness prediction,
#: random-run prediction); ``{p}`` is the predicted period (k or 2k).
_REGIMES = {
    CONVERGES_TO_ZERO: ("T4-I", "T3-i", "n/a", "converges to zero"),
    PERIOD_K: ("T4-II", "T3-ii", "prime period {p}", "eventually periodic, period divides {p}"),
    PERIOD_2K: ("T4-III", None, "prime period {p}", "eventually periodic, period divides {p}"),
    UNBOUNDED_EXISTS: ("T4-IV", "T3-iii", "unbounded growth",
                       "informational (claim is existential)"),
}


def _predicted_period(regime: str, k: int) -> Optional[int]:
    return {PERIOD_K: k, PERIOD_2K: 2 * k}.get(regime)


def _classification(
    spec: SystemSpec, regime: str, dec: EigenDecomposition, case: int, rho_tol: float
) -> Classification:
    """The regime's theorem case (column ``case`` of _REGIMES) and witness seed.

    The regime has decided the radius, so the period-k and period-2k
    witnesses (impulses on the Perron vector and on (1, 0)) skip the band.
    """
    witness = None
    if regime == PERIOD_K:  # no dec.perron: dec is eig2's, whose dominant pair perron_pair gives
        _, w = dec.perron or (dec.eigenvalues[0], dec.eigenvectors[0])
        witness = InitialConditions.impulse(spec.k, w)
    elif regime == PERIOD_2K:
        witness = InitialConditions.impulse(spec.k, np.array([1.0, 0.0]))
    elif regime == UNBOUNDED_EXISTS:
        witness = construct_unbounded_seed(spec, rho_tol=rho_tol)
    return Classification(regime=regime, theorem_path=_REGIMES[regime][case],
                          spectrum=dec, witness=witness)


def classify_tetrachotomy(spec: SystemSpec, rho_tol: float = RHO_TOL) -> Classification:
    """Four-way regime prediction for any nonnegative 2x2 kernel.

    Radius 1 with eigenvectors parallel within ``rho_tol`` is a Jordan
    block, outside the tetrachotomy, and raises :class:`BoundaryAmbiguous`.
    """
    if spec.m != 2:
        raise ValueError("tetrachotomy classification requires m = 2")
    a = spec.A
    dec = eig2(a)
    regime = regime_from_spectrum(dec.eigenvalues, dec.residual(a), rho_tol)
    if regime == PERIOD_2K and not _is_case3_kernel(a):
        # -1 is inside the tolerance band, but the kernel only realizes
        # the period-2k construction in the exact anti-diagonal form.
        raise BoundaryAmbiguous(
            "eigenvalue -1 within tolerance but the kernel is not in the "
            "anti-diagonal form [[0, g], [1/g, 0]]"
        )
    (x0, y0), (x1, y1) = dec.eigenvectors
    if regime == PERIOD_K and abs(x0 * y1 - y0 * x1) <= rho_tol:
        raise BoundaryAmbiguous(
            "spectral radius 1 with parallel eigenvectors: the kernel is a "
            "Jordan block, which the tetrachotomy does not cover"
        )
    return _classification(spec, regime, dec, 0, rho_tol)


def classify_trichotomy(spec: SystemSpec, rho_tol: float = RHO_TOL) -> Classification:
    """Three-way regime prediction for strictly positive symmetric kernels."""
    a = spec.A
    if not is_symmetric(a):
        raise ValueError("trichotomy classification requires a symmetric kernel")
    if not is_positive(a):
        raise ValueError("trichotomy classification requires strictly positive entries")
    dec = replace(eig_symmetric(a), perron=perron_pair(a))
    regime = regime_from_spectrum(dec.eigenvalues, dec.residual(a), rho_tol)
    if regime == PERIOD_2K:
        # A positive symmetric kernel cannot have -1 as an eigenvalue while
        # the radius is 1 (its Perron root is simple and dominant); landing
        # here means the tolerance band swallowed the gap.
        raise BoundaryAmbiguous("positive kernel classified as period-2k")
    return _classification(spec, regime, dec, 1, rho_tol)


#: A check's status, as the verify report prints it: the run held, contradicted
#: the prediction, or is informational (a random run in the unbounded regime).
PASS = "PASS"
FAIL = "FAIL"
INFO = "info"


@dataclass
class PredictionCheck:
    """One run's verdict: its status and the analysis it was decided from."""

    name: str
    status: str  # PASS, FAIL or INFO
    report: AnalysisReport
    init: Optional[np.ndarray] = None  # counterexample history on failure


@dataclass
class VerificationReport:
    checks: List[PredictionCheck]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> List[PredictionCheck]:
        return [c for c in self.checks if c.status == FAIL]


def _check_status(regime: str, k: int, report: AnalysisReport, witness: bool) -> str:
    """The status of one run against the regime's prediction.

    A witness must show exactly the predicted period (k or 2k), or
    unbounded growth in the unbounded regime.  A random run must converge
    to zero in the zero regime; in the periodic regimes it may converge to
    zero (period 1) or its period must divide the predicted one; in the
    unbounded regime it is informational.
    """
    period = _predicted_period(regime, k)
    if regime == UNBOUNDED_EXISTS:
        if not witness:
            return INFO
        holds = report.behavior == UNBOUNDED
    elif not witness and report.behavior == CONVERGED_TO_ZERO:
        holds = True
    elif period is None:  # the zero regime: a witness holds, a random run did not converge
        holds = witness
    elif report.behavior != EVENTUALLY_PERIODIC:
        holds = False
    else:
        holds = report.period == period if witness else period % report.period == 0
    return PASS if holds else FAIL


def verify_classification(
    spec: SystemSpec,
    classification: Classification,
    horizon: int,
    trials: int,
    *,
    rng_seed: Union[int, Tuple[int, ...]] = 0,
    init_max: float = 10.0,
    tolerances: Optional[Tolerances] = None,
) -> VerificationReport:
    """Confront a predicted regime with simulated evidence.

    Runs the witness seed (when the classification has one) plus
    ``trials`` random nonnegative initial conditions drawn uniformly from
    [0, init_max]^m as one :func:`~ratsys.simulator.simulate_batch`,
    analyzes each run, and records one check per run, with the run's status
    (:data:`PASS`, :data:`FAIL` or :data:`INFO`) and its
    :class:`AnalysisReport`; the witness check, when present, comes first.
    For the unbounded regime only the witness can fail; random runs are
    :data:`INFO`.  A call whose runs could not fail (no witness, and no
    trials or only informational ones) raises ValueError instead of passing
    vacuously, and so does one whose witness must show a period (k or 2k)
    with a horizon shorter than 2k, the longest period ``analyze`` scans
    for, since it then reports none.  Random runs are not refused so: they
    also pass by converging to zero or by a period that divides the
    predicted one.

    The histories are the ``trials * k * m`` values of
    :func:`~ratsys.constructors.uniform_draws` with entropy ``rng_seed``, a
    nonnegative int or a tuple of them, taken in order, k rows of m per
    trial: the stream of ``numpy.random.default_rng(rng_seed)``.  So a call
    is reproducible, and ``rng_seed=None`` raises TypeError rather than
    reading OS entropy.

    The runs are simulated with ``tolerances``, whose growth and zero stops
    end a run early only where its analysis with the same tolerances finds
    what it finds on the full run (:func:`~ratsys.simulator.simulate_batch`).
    """
    if type(trials) is bool or not isinstance(trials, numbers.Integral) or trials < 0:
        raise ValueError(f"trials must be an integer >= 0, got {trials!r}")
    tol = tolerances or Tolerances()
    regime = classification.regime
    k = spec.k
    _, _, witness_text, random_text = _REGIMES[regime]
    period = _predicted_period(regime, k)
    runs = []
    if classification.witness is not None:
        runs.append((f"witness: {witness_text.format(p=period)}",
                     classification.witness.history, True))
    elif regime == UNBOUNDED_EXISTS:
        raise ValueError("verify.expect: unbounded-exists without its witness gates no check: "
                         "random runs in the unbounded regime are informational")
    elif trials == 0:
        raise ValueError(f"run.trials: 0 leaves no check: {regime} has no witness run here")
    if classification.witness is not None and period is not None and horizon < 2 * k:
        raise ValueError(f"run.horizon: {horizon} is below 2k = {2 * k}, so the witness run "
                         f"can never show the period {period} that {regime} predicts")
    check_run_size(len(runs) + trials, spec, horizon, tol)
    draws = np.array(uniform_draws(rng_seed, init_max, trials * k * spec.m)).reshape(trials, k, spec.m)
    for t in range(trials):
        runs.append((f"random-init {t + 1:02d}: {random_text.format(p=period)}", draws[t], False))
    trajectories = simulate_batch(spec, [h for _, h, _ in runs], horizon, tolerances=tol)
    checks: List[PredictionCheck] = []
    for (name, history, witness), traj in zip(runs, trajectories):
        report = analyze(traj, tol)
        status = _check_status(regime, k, report, witness)
        checks.append(PredictionCheck(name, status, report, history if status == FAIL else None))
    return VerificationReport(checks)
