"""Output checks against exact answers.

Each check raises ``CheckFailed`` on a violated guarantee and otherwise
records the observed error in an ``Errors`` accumulator, whose maxima the
traced run reports as ``checks.qdigest_rank_err`` and
``checks.distinct_rel_err``.

Stated tolerances:
  q-digest          rank error <= eps * n, eps = log2(universe) / k,
                    against the truncated rank floor(p*n)
  KLL, t-digest     rank error <= 0.02 * n
  DDSketch          |estimate - exact| <= alpha * exact (exact at rank ceil(p*n))
  HLL               |estimate - exact| <= 5 * max(1.04 / sqrt(2**p) * exact, 1)
  KMV               |estimate - exact| <= 5 * max(exact / sqrt(k - 2), 1)
                    (a count is discrete: the standard error is at least one item)
  CMS               never below the exact count
  Bloom             no false negatives
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

RANK_TOL = 0.02
# relative distinct errors are recorded only where the asymptotic standard
# error describes them; below this a single register collision is 1/n
DISTINCT_RECORD_MIN = 100
HLL_SIGMAS = 5.0
KMV_SIGMAS = 5.0


class CheckFailed(AssertionError):
    pass


@dataclass
class Errors:
    qdigest_rank: list[float] = field(default_factory=list)
    distinct_rel: list[float] = field(default_factory=list)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rank_error(sorted_vals: np.ndarray, value: float, p: float, truncate: bool = False) -> float:
    """Distance of the target rank ``p*n`` (``floor(p*n)`` when ``truncate``)
    from the exact rank interval of ``value``, over n."""
    n = len(sorted_vals)
    lo = int(np.searchsorted(sorted_vals, value, side="left"))
    hi = int(np.searchsorted(sorted_vals, value, side="right"))
    target = math.floor(p * n) if truncate else p * n
    return max(0.0, lo - target, target - hi) / n


def qdigest_eps(k: int, universe_bits: int) -> float:
    return universe_bits / k


def check_qdigest(errs: Errors, what: str, sorted_vals, quantiles: dict, n: int, eps: float) -> None:
    """``quantiles`` maps p -> reported value; ``n`` is the reported count.
    The q-digest answers the truncated rank floor(p*n) (the reference
    implementation's definition), so that is the target rank."""
    require(n == len(sorted_vals), f"{what}: n={n} != exact {len(sorted_vals)}")
    for p, v in quantiles.items():
        e = rank_error(sorted_vals, v, p, truncate=True)
        require(e <= eps, f"{what}: p{p} rank error {e:.4f} > eps {eps:.4f}")
        errs.qdigest_rank.append(e)


def check_rank(what: str, sorted_vals, quantiles: dict, tol: float = RANK_TOL) -> None:
    for p, v in quantiles.items():
        e = rank_error(sorted_vals, v, p)
        require(e <= tol, f"{what}: p{p} rank error {e:.4f} > {tol}")


def check_relative_value(what: str, sorted_vals, quantiles: dict, alpha: float) -> None:
    n = len(sorted_vals)
    for p, v in quantiles.items():
        exact = float(sorted_vals[max(1, math.ceil(p * n)) - 1])
        require(
            abs(v - exact) <= alpha * abs(exact) * (1 + 1e-9),
            f"{what}: p{p} value {v} not within {alpha} of {exact}",
        )


def check_distinct(errs: Errors, what: str, estimate: float, exact: int, rel_sigma: float, sigmas: float) -> None:
    err = abs(estimate - exact)
    se = max(rel_sigma * exact, 1.0)
    require(err <= sigmas * se, f"{what}: estimate {estimate:.1f} vs exact {exact} (> {sigmas} standard errors)")
    if exact >= DISTINCT_RECORD_MIN:
        errs.distinct_rel.append(err / exact)


def check_hll(errs: Errors, what: str, estimate: float, exact: int, p: int) -> None:
    check_distinct(errs, what, estimate, exact, 1.04 / math.sqrt(1 << p), HLL_SIGMAS)


def check_kmv(errs: Errors, what: str, estimate: float, exact: int, k: int) -> None:
    check_distinct(errs, what, estimate, exact, 1.0 / math.sqrt(k - 2), KMV_SIGMAS)


def check_never_under(what: str, estimates, exact_counts) -> None:
    est = np.asarray(estimates)
    exact = np.asarray(exact_counts)
    bad = np.flatnonzero(est < exact)
    require(len(bad) == 0, f"{what}: {len(bad)} keys under-estimated (first: {est[bad[:1]]} < {exact[bad[:1]]})")
