"""Brute-force numerical certification of the loss-decomposition inequalities.

Three layers of claim are checked, each as exact arithmetic over finite
discrete scenarios (randomness only generates instances, never estimates an
expectation):

* the pointwise three-term Jensen split of a single margin loss
  (:func:`lemma_slack`, for one row of the four rewards or a batch of rows),
* its expectation form over scenarios whose long-context preference
  probabilities never exceed the short-context ones
  (:func:`check_theorem1_exact`), and the simplified variant that replaces the
  two cross terms by the envelope of the reward gap
  (:func:`check_theorem1_sform`),
* the generalized-distance variant where the mean absolute reward gap is
  dominated by a p-norm gap (:func:`check_theorem2`).

Every check returns signed slack = LHS - RHS; positive slack beyond tolerance
is a violation. Checks take one scenario or a batch; suites check one batch
per link (or p) and report its max plus a witness dump. The slacks of a
padded batch (some weight 0, as :func:`random_scenario` draws them) evaluate
the link only on its weighted cells, gathered by flat index and summed per
scenario; an unpadded batch (every weight positive) is read whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .links import ConvexLink, _check_finite, _result, _softplus, eval_bound, eval_link

__all__ = [
    "TOLERANCE",
    "DiscreteScenario",
    "BoundReport",
    "lemma_slack",
    "check_theorem1_exact",
    "check_theorem1_sform",
    "check_theorem2",
    "random_scenario",
    "run_lemma1_suite",
    "run_theorem1_suite",
    "run_theorem2_suite",
    "run_assumption_necessity_search",
    "run_nonconvex_selftest",
    "SFORM_GAMMA_RANGES",
    "ALL_LINKS",
    "LEMMA1_GAMMA_RANGE", "LEMMA1_REWARD_RANGE", "THEOREM2_P_VALUES", "THEOREM2_C1",
]

TOLERANCE = 1e-9

ALL_LINKS = tuple(ConvexLink)

# The simplified (envelope) bound holds exactly when the envelope dominates
# f(x - gamma) + f(-x - gamma); that restricts gamma per pairing.
SFORM_GAMMA_RANGES: dict[ConvexLink, tuple[float, float]] = {
    ConvexLink.LOGISTIC: (0.0, 3.0),
    ConvexLink.SQUARE: (-3.0, 3.0),
    ConvexLink.HINGE: (-3.0, 0.0),
    ConvexLink.SQUARED_HINGE: (-3.0, 0.0),
    ConvexLink.EXPONENTIAL: (-3.0, 0.0),
}

# The draws of the Lemma 1 suite, and the norms and constant of the Theorem 2
# suite (criteria 1 and 4).
LEMMA1_GAMMA_RANGE = (-3.0, 3.0)
LEMMA1_REWARD_RANGE = (-10.0, 10.0)
THEOREM2_P_VALUES = (1.0, 2.0, np.inf)
THEOREM2_C1 = 1.0

# Keeps exponential-link arguments <= ~30 so slack is never an overflow artifact.
_REWARD_RANGE = {ConvexLink.EXPONENTIAL: (-2.0, 2.0)}
_DEFAULT_REWARD_RANGE = (-5.0, 5.0)


def lemma_slack(link: ConvexLink, gamma, rewards, link_fn: Callable | None = None):
    """Signed slack of the three-term split of a single margin loss, for one
    row of rewards (r_sw, r_sl, r_lw, r_ll), as a float, or for an (N, 4)
    batch of rows with a scalar or (N,) ``gamma``, as an (N,) array.

    LHS = f(r_lw - r_ll - gamma); RHS = mean of f(3*delta_i - gamma) over the
    three telescoping gaps. Convexity of f makes LHS <= RHS for any rewards.
    ``link_fn`` replaces the link's ``f`` (the non-convex self-test).
    """
    f = (lambda x: eval_link(link, x)) if link_fn is None else link_fn
    r_sw, r_sl, r_lw, r_ll = np.asarray(rewards, dtype=np.float64).T
    d1, d2, d3 = r_lw - r_sw, r_sw - r_sl, r_sl - r_ll
    lhs = f(r_lw - r_ll - gamma)
    rhs = (f(3 * d1 - gamma) + f(3 * d2 - gamma) + f(3 * d3 - gamma)) / 3.0
    return _result(lhs - rhs)


def _require(count: int, least: int, what: str) -> None:
    if count < least:
        raise ValueError(f"need at least {least} {what}, got {count}")


@dataclass
class DiscreteScenario:
    """A finite world: weighted context pairs, weighted responses, rewards.

    ``r_short[k, i]`` / ``r_long[k, i]`` are the rewards of response ``i``
    under context pair ``k``'s short / long variant. ``pref_short[k, i, j]``
    is the probability that ``i`` is judged preferable to ``j`` given the
    short variant (likewise ``pref_long``); pairs may abstain, so
    ``P[i, j] + P[j, i] <= 1`` with zero diagonal.

    Every field may carry a leading batch axis of N scenarios, checked one by
    one: weights (N, K), (N, M), rewards (N, K, M), preferences (N, K, M, M).
    """

    context_weights: np.ndarray
    response_weights: np.ndarray
    r_short: np.ndarray
    r_long: np.ndarray
    pref_short: np.ndarray
    pref_long: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            value = np.asarray(getattr(self, f.name), dtype=np.float64)
            if not np.isfinite(value).all():
                raise ValueError(f"{f.name} must be finite")
            setattr(self, f.name, value)
        if self.r_short.ndim not in (2, 3):
            raise ValueError("rewards must be (contexts, M), or (N, contexts, M) for a batch")
        *batch, k, m = self.r_short.shape
        if self.r_long.shape != self.r_short.shape:
            raise ValueError("r_short and r_long shapes differ")
        if self.pref_short.shape != (*batch, k, m, m) or self.pref_long.shape != (*batch, k, m, m):
            raise ValueError("preference tables must be (contexts, M, M)")
        if self.context_weights.shape != (*batch, k) or self.response_weights.shape != (*batch, m):
            raise ValueError("weights must be (contexts,) and (M,)")
        # A sum over a short last axis runs one tiny numpy loop per scenario;
        # a matrix-vector product sums a whole batch at once. The tolerance is
        # np.isclose(sums, 1.0)'s, without its per-call overhead.
        for w in (self.context_weights, self.response_weights):
            if not np.all(np.abs(w @ np.ones(w.shape[-1]) - 1.0) <= 1e-8 + 1e-5):
                raise ValueError("weights must each sum to 1")
        if np.any(self.context_weights < 0) or np.any(self.response_weights < 0):
            raise ValueError("weights must be nonnegative")
        for p in (self.pref_short, self.pref_long):
            if np.any(p < 0) or np.any(p > 1):
                raise ValueError("preference probabilities must lie in [0, 1]")
            if np.any(p + np.swapaxes(p, -1, -2) > 1 + 1e-12):
                raise ValueError("P[i,j] + P[j,i] must not exceed 1")
            if np.any(np.diagonal(p, axis1=-2, axis2=-1) != 0):
                raise ValueError("P[i,i] must be 0")

    def __getitem__(self, i: int) -> DiscreteScenario:
        """Scenario ``i`` of a batch, trimmed to its weighted contexts and responses."""
        k, m = self.context_weights[i] > 0, self.response_weights[i] > 0
        pairs, prefs = np.ix_(k, m), np.ix_(k, m, m)
        return DiscreteScenario(self.context_weights[i][k], self.response_weights[i][m],
                                self.r_short[i][pairs], self.r_long[i][pairs],
                                self.pref_short[i][prefs], self.pref_long[i][prefs])

    def satisfies_discrimination(self) -> bool | np.ndarray:
        """Long-context preferences never easier than short-context ones (to
        1e-12); one flag per scenario of a batch."""
        ok = np.all(self.pref_long <= self.pref_short + 1e-12, axis=(-3, -2, -1))
        return ok if ok.ndim else bool(ok)

    def _witness_fields(self, i: int | None = None) -> dict[str, list]:
        """Every field of scenario ``i`` of a batch (trimmed, as ``self[i]``),
        or of this scenario when ``i`` is None, as nested lists."""
        scn = self if i is None else self[i]
        return {f.name: getattr(scn, f.name).tolist() for f in fields(scn)}


@dataclass
class BoundReport:
    """Outcome of one certification run."""

    check: str
    instances: int
    max_violation: float
    seed: int | None = None
    worst_witness: dict | None = None
    condition_failures: int = 0

    @property
    def passed(self) -> bool:
        return self.max_violation <= TOLERANCE

    def to_json(self) -> str:
        payload = {
            "check": self.check,
            "seed": self.seed,
            "instances": self.instances,
            "max_violation": self.max_violation,
            "witness": self.worst_witness,
        }
        if self.condition_failures:
            payload["condition_failures"] = self.condition_failures
        return json.dumps(payload, sort_keys=True)


def _checked_gamma(scn: DiscreteScenario, gamma) -> np.ndarray:
    """``gamma`` broadcast to the batch shape, (N,) or () for one scenario; a
    non-finite entry fails as ``gamma must be finite (element <scenario>)``."""
    return _check_finite(np.broadcast_to(gamma, scn.r_short.shape[:-2]), "gamma")


def _sum_leading(x: np.ndarray) -> float | np.ndarray:
    """Sum over the leading (context and response or pair) axes."""
    out = np.sum(x, axis=(0, 1))
    return out if out.ndim else float(out)


def _cell_layout(scn: DiscreteScenario, gamma: np.ndarray) -> tuple:
    """``(dense, arrays, gamma)``: whether every weight of ``scn`` is positive,
    and its arrays in field order with ``gamma`` laid out for that case.

    Dense: any batch axis moves last, so elementwise work runs along the
    batch and ``gamma`` broadcasts. Otherwise every array is batch-first, a
    single scenario as a batch of one, for gathering by flat index."""
    arrays = [getattr(scn, f.name) for f in fields(scn)]
    if arrays[0].all() and arrays[1].all():  # weights are nonnegative
        if scn.r_short.ndim == 3:
            arrays = [a.transpose(*range(1, a.ndim), 0) for a in arrays]
        return True, arrays, gamma
    if scn.r_short.ndim == 2:
        arrays, gamma = [a[None] for a in arrays], gamma[None]
    return False, arrays, gamma


def _per_scenario_sum(scenario: np.ndarray, n: int, single: bool) -> Callable:
    """Sum of a gathered cell term per scenario, ``scenario`` naming each
    cell's; a float for one scenario."""
    if single:
        return lambda x: float(np.bincount(scenario, x, minlength=1)[0])
    return lambda x: np.bincount(scenario, x, minlength=n)


class _PairCells(NamedTuple):
    """The (context, ordered response pair i != j) cells where the link is
    evaluated: their short- and long-context weights w_k q_i q_j P[k, i, j]
    and ``gamma``; ``at_i(r)`` and ``at_j(r)`` give a (context, response)
    array ``r`` of the same layout, such as the rewards ``r_s`` and ``r_l``,
    at each cell's i and j, and ``total`` sums a cell term per scenario.

    Rewards are gathered where a term uses them, not held: holding all four
    gathered reward arrays made every necessity-search call grow the heap
    past its free space and re-fault about 290 KB when it was trimmed."""

    short_w: np.ndarray
    long_w: np.ndarray
    r_s: np.ndarray
    r_l: np.ndarray
    gamma: np.ndarray
    at_i: Callable
    at_j: Callable
    total: Callable


def _pair_cells(scn: DiscreteScenario, gamma: np.ndarray) -> _PairCells:
    """Pair cells of every context and response pair when all weights are
    positive, as (context, pair[, scenario]) arrays; otherwise only those
    whose context and both responses carry weight, gathered by flat index in
    scenario, context, pair order, so no padded slot reaches the link."""
    dense, (w, q, r_s, r_l, p_s, p_l), gamma = _cell_layout(scn, gamma)
    if dense:
        i, j = np.nonzero(~np.eye(q.shape[0], dtype=bool))
        mass = w[:, None] * q[i] * q[j]
        return _PairCells(mass * p_s[:, i, j], mass * p_l[:, i, j], r_s, r_l, gamma,
                          lambda r: r[:, i], lambda r: r[:, j], _sum_leading)
    n, k, m = r_s.shape
    real = (q > 0)[:, :, None] & (q > 0)[:, None, :] & ~np.eye(m, dtype=bool)
    cell = np.flatnonzero((w > 0)[:, :, None] & real.reshape(n, 1, m * m))
    at_i = cell // m  # flat (scenario, context, i)
    context = at_i // m  # flat (scenario, context)
    scenario = context // k
    at_j = context * m + (cell - at_i * m)
    wq = w[:, :, None] * q[:, None, :]  # w_k q_i per (scenario, context, response)
    mass = wq.take(at_i) * np.broadcast_to(q[:, None, :], wq.shape).take(at_j)
    return _PairCells(mass * p_s.take(cell), mass * p_l.take(cell), r_s, r_l, gamma.take(scenario),
                      lambda r: r.take(at_i), lambda r: r.take(at_j),
                      _per_scenario_sum(scenario, n, scn.r_short.ndim == 2))


def _response_cells(scn: DiscreteScenario, gamma: np.ndarray) -> tuple:
    """(weight w_k q_i, short reward, long reward, gamma, per-scenario total)
    of every (context, response) cell, laid out as :func:`_pair_cells` lays
    out the pair cells."""
    dense, (w, q, r_s, r_l, _, _), gamma = _cell_layout(scn, gamma)
    if dense:
        return w[:, None] * q, r_s, r_l, gamma, _sum_leading
    n, k, m = r_s.shape
    cell = np.flatnonzero((w > 0)[:, :, None] & (q > 0)[:, None, :])
    scenario = cell // (k * m)
    return ((w[:, :, None] * q[:, None, :]).take(cell), r_s.take(cell), r_l.take(cell),
            gamma.take(scenario), _per_scenario_sum(scenario, n, scn.r_short.ndim == 2))


def _po_terms(c: _PairCells, link: ConvexLink) -> tuple:
    """(long-context loss, short PO term), each summed per scenario over its
    pair cells."""
    long_margin = c.at_i(c.r_l) - c.at_j(c.r_l) - c.gamma
    short_margin = 3.0 * (c.at_i(c.r_s) - c.at_j(c.r_s)) - c.gamma
    return (c.total(c.long_w * eval_link(link, long_margin)),
            c.total(c.short_w * eval_link(link, short_margin)))


def theorem1_exact_slack(scn: DiscreteScenario, link: ConvexLink, gamma) -> float | np.ndarray:
    """Slack of: long loss <= (short PO + chosen cross-gap + rejected cross-gap)/3.

    Cross terms keep the long-context preference weights; the short PO term
    carries the short-context weights, which is exactly where the
    discrimination assumption enters.
    """
    c = _pair_cells(scn, _checked_gamma(scn, gamma))
    lhs, short = _po_terms(c, link)
    gap = c.r_l - c.r_s
    cross_w = c.total(c.long_w * eval_link(link, 3.0 * c.at_i(gap) - c.gamma))
    cross_l = c.total(c.long_w * eval_link(link, -3.0 * c.at_j(gap) - c.gamma))
    return lhs - (short + cross_w + cross_l) / 3.0


def theorem1_sform_slack(scn: DiscreteScenario, link: ConvexLink, gamma) -> float | np.ndarray:
    """Slack of: long loss <= (short PO + E s(3 |reward gap|)) / 3."""
    gamma = _checked_gamma(scn, gamma)
    weight, r_s, r_l, cell_gamma, total = _response_cells(scn, gamma)
    envelope = eval_bound(link, 3.0 * np.abs(r_s - r_l), cell_gamma)
    lhs, short = _po_terms(_pair_cells(scn, gamma), link)
    return lhs - (short + total(weight * envelope)) / 3.0


def _report(check: str, link_name: str, gamma, slack,
            instance: Callable[[int | None], dict], **extra) -> BoundReport:
    """The worst of one slack or of a batch's; a violating worst instance is
    the witness: its link, gamma and slack, and ``instance(i)``, the fields of
    batch entry ``i`` (None for a single slack)."""
    instances = np.size(slack)
    i = int(np.argmax(slack)) if np.ndim(slack) else None
    if i is not None:
        gamma, slack = float(np.broadcast_to(gamma, np.shape(slack))[i]), slack[i]
    worst = float(slack)
    witness = None
    if worst > TOLERANCE:
        witness = {"link": link_name, "gamma": gamma, "slack": worst, **instance(i)}
    return BoundReport(check=check, instances=instances, max_violation=worst,
                       worst_witness=witness, **extra)


def _require_discrimination(scn: DiscreteScenario) -> None:
    if not np.all(scn.satisfies_discrimination()):
        raise ValueError("scenario violates the preference-discrimination precondition")


def check_theorem1_exact(scn: DiscreteScenario, link: ConvexLink, gamma) -> BoundReport:
    _require_discrimination(scn)
    return _report("theorem1_exact", link.value, gamma, theorem1_exact_slack(scn, link, gamma),
                   scn._witness_fields)


def check_theorem1_sform(scn: DiscreteScenario, link: ConvexLink, gamma) -> BoundReport:
    _require_discrimination(scn)
    return _report("theorem1_sform", link.value, gamma, theorem1_sform_slack(scn, link, gamma),
                   scn._witness_fields)


def _p_norm_gaps(q: np.ndarray, gaps: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(D_1 per context, D_p per context) of the reward gap distribution;
    ``q`` is (..., M) and ``gaps`` (..., contexts, M)."""
    q = q[..., None, :]
    d1 = np.sum(gaps * q, axis=-1)
    if np.isinf(p):
        dp = np.max(np.where(q > 0, gaps, 0.0), axis=-1)
    else:
        dp = np.sum(np.power(gaps, p) * q, axis=-1) ** (1.0 / p)
    return d1, dp


def check_theorem2(scn: DiscreteScenario, p: float, c1: float, gamma) -> BoundReport:
    """Generalized-distance bound with the logistic link.

    First verifies D_1 <= c1 * D_p per context (the admissibility condition of
    the substituted distance); failing contexts count as condition failures,
    not bound violations, and leave their scenario out of the max. Then checks
    long loss <= short PO / 3 + c1 * E[D_p] + (2/3) log(1 + e^{3 gamma}).
    ``p`` may be inf; a NaN ``p`` or a non-finite ``c1`` raises ValueError.
    """
    if not p >= 1:
        raise ValueError(f"p-norm distance requires p >= 1, got p={p}")
    if not (np.isfinite(c1) and c1 >= 1):
        raise ValueError(f"c1 must be finite and >= 1, got c1={c1}")
    _require_discrimination(scn)
    gammas = _checked_gamma(scn, gamma)
    d1, dp = _p_norm_gaps(scn.response_weights, np.abs(scn.r_short - scn.r_long), p)
    failing = d1 > c1 * dp + 1e-12
    c2 = 2.0 / 3.0 * _softplus(3.0 * gammas)
    lhs, short = _po_terms(_pair_cells(scn, gammas), ConvexLink.LOGISTIC)
    slack = lhs - (short / 3.0 + c1 * np.sum(scn.context_weights * dp, axis=-1) + c2)
    slack = np.where(np.any(failing, axis=-1), -np.inf, slack)
    report = _report("theorem2", ConvexLink.LOGISTIC.value, gamma, slack, scn._witness_fields,
                     condition_failures=int(np.sum(failing)))
    if report.condition_failures and not np.ndim(slack):
        report.worst_witness = {"d1": d1.tolist(), "dp": dp.tolist(), "p": p}
    return report


def random_scenario(rng: np.random.Generator, *, max_contexts: int = 4,
                    max_responses: int = 4,
                    reward_range: tuple[float, float] = _DEFAULT_REWARD_RANGE,
                    size: int | None = None) -> DiscreteScenario:
    """Draw a batch of ``size`` scenarios padded to (max_contexts,
    max_responses), padded entries with weight 0 and reward 0; or, when
    ``size`` is None, one scenario. Preference pairs may abstain (sums <= 1);
    long-context ones are short ones scaled down, so discrimination holds.
    """
    n = 1 if size is None else size
    ctx = np.arange(max_contexts) < rng.integers(1, max_contexts + 1, (n, 1))
    rsp = np.arange(max_responses) < rng.integers(2, max_responses + 1, (n, 1))

    def weights(real: np.ndarray) -> np.ndarray:
        e = np.where(real, rng.standard_exponential(real.shape), 0.0)
        return e / e.sum(axis=-1, keepdims=True)

    w, q = weights(ctx), weights(rsp)
    real = ctx[:, :, None] & rsp[:, None, :]
    r_short = np.where(real, rng.uniform(*reward_range, real.shape), 0.0)
    r_long = np.where(real, rng.uniform(*reward_range, real.shape), 0.0)
    # Real response pairs (i, j) with i < j; (j, i) gets the rest of the pair's mass.
    upper = (real[..., :, None] & rsp[:, None, None, :]
             & np.triu(np.ones((max_responses, max_responses), dtype=bool), 1))
    total = np.where(upper, rng.uniform(0.0, 1.0, upper.shape), 0.0)
    split = rng.uniform(0.0, 1.0, upper.shape)
    p_short = total * split + np.swapaxes(total * (1.0 - split), -1, -2)
    p_long = p_short * rng.uniform(0.0, 1.0, upper.shape)
    batch = DiscreteScenario(w, q, r_short, r_long, p_short, p_long)
    return batch[0] if size is None else batch


def run_lemma1_suite(n_instances: int, seed: int) -> BoundReport:
    """Vectorized random certification of the three-term split, with gamma
    drawn from ``LEMMA1_GAMMA_RANGE`` and rewards from ``LEMMA1_REWARD_RANGE``."""
    n_links = len(ALL_LINKS)
    _require(n_instances, n_links, "lemma instances (one per link)")
    rng = np.random.default_rng(seed)
    per_link = n_instances // n_links
    reports = []
    for link in ALL_LINKS:
        count = per_link if link is not ALL_LINKS[-1] else n_instances - per_link * (n_links - 1)
        gammas = rng.uniform(*LEMMA1_GAMMA_RANGE, count)
        rewards = rng.uniform(*LEMMA1_REWARD_RANGE, (count, 4))
        reports.append(_report("lemma1", link.value, gammas,
                               lemma_slack(link, gammas, rewards),
                               lambda i: {"rewards": rewards[i].tolist()}, seed=seed))
    return replace(max(reports, key=lambda r: r.max_violation), instances=n_instances)


def run_theorem1_suite(n_scenarios: int, seed: int, *, form: str = "exact"
                       ) -> dict[str, BoundReport]:
    """Random-scenario certification; one report per link, from one batch of
    ``n_scenarios`` scenarios and one slack call."""
    if form not in ("exact", "sform"):
        raise ValueError("form must be 'exact' or 'sform'")
    _require(n_scenarios, 1, "scenario per link")
    slack_fn = theorem1_exact_slack if form == "exact" else theorem1_sform_slack
    reports: dict[str, BoundReport] = {}
    for link in ALL_LINKS:
        rng = np.random.default_rng([seed, ALL_LINKS.index(link)])
        gammas = rng.uniform(*(SFORM_GAMMA_RANGES[link] if form == "sform" else (-3.0, 3.0)),
                             n_scenarios)
        scns = random_scenario(rng, reward_range=_REWARD_RANGE.get(link, _DEFAULT_REWARD_RANGE),
                               size=n_scenarios)
        reports[link.value] = _report(f"theorem1_{form}[{link.value}]", link.value, gammas,
                                      slack_fn(scns, link, gammas), scns._witness_fields,
                                      seed=seed)
    return reports


def run_theorem2_suite(n_scenarios: int, seed: int) -> dict[str, BoundReport]:
    """p-norm distance certification for the logistic pairing at C1 =
    ``THEOREM2_C1``; one batch of ``n_scenarios`` scenarios and one check per
    p of ``THEOREM2_P_VALUES``, each drawn from its own generator."""
    _require(n_scenarios, 1, "scenario per p")
    reports: dict[str, BoundReport] = {}
    for p in THEOREM2_P_VALUES:
        rng = np.random.default_rng([seed, int(p) if np.isfinite(p) else 999])
        gammas = rng.uniform(*SFORM_GAMMA_RANGES[ConvexLink.LOGISTIC], n_scenarios)
        report = check_theorem2(random_scenario(rng, size=n_scenarios), p, THEOREM2_C1, gammas)
        key = "inf" if np.isinf(p) else f"{p:g}"
        reports[key] = replace(report, check=f"theorem2[p={key}]", seed=seed)
    return reports


def run_assumption_necessity_search(n_attempts: int, seed: int) -> BoundReport:
    """Search for a logistic-link bound violation once discrimination is NOT
    enforced.

    Diagnostic demonstrating the assumption is load-bearing: uses the smallest
    scenario class (one context pair, two responses) as one batch.
    A found witness means the report's max_violation is positive — here that
    is the desired outcome, not a failure of the certified claim.
    """
    _require(n_attempts, 1, "necessity attempt")
    rng = np.random.default_rng(seed)
    b = n_attempts
    gam = rng.uniform(-3.0, 3.0, b)
    q1 = rng.uniform(0.05, 0.95, b)
    rs = rng.uniform(-8.0, 8.0, (b, 1, 2))
    rl = rng.uniform(-8.0, 8.0, (b, 1, 2))

    def pair_probs() -> np.ndarray:
        total = rng.uniform(0.0, 1.0, b)
        split = rng.uniform(0.0, 1.0, b)
        p = np.zeros((b, 1, 2, 2))
        p[:, 0, 0, 1], p[:, 0, 1, 0] = total * split, total * (1.0 - split)
        return p

    ps, pl = pair_probs(), pair_probs()
    scns = DiscreteScenario(np.ones((b, 1)), np.stack([q1, 1.0 - q1], axis=1), rs, rl, ps, pl)
    slack = theorem1_exact_slack(scns, ConvexLink.LOGISTIC, gam)
    report = _report("assumption_necessity[logistic]", "logistic", gam, slack,
                     scns._witness_fields, seed=seed)
    witness = report.worst_witness
    if witness is not None:
        # One context pair: the witness lists its rewards and preferences directly.
        del witness["context_weights"]
        for key in ("r_short", "r_long", "pref_short", "pref_long"):
            witness[key] = witness[key][0]
        witness["violations_found"] = int(np.sum(slack > TOLERANCE))
    return report


def run_nonconvex_selftest(n_instances: int, seed: int) -> BoundReport:
    """Harness sanity check: a concave 'link' must produce violations."""
    _require(n_instances, 1, "self-test instance")
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(-3.0, 3.0, n_instances)
    rewards = rng.uniform(-10.0, 10.0, (n_instances, 4))
    slack = lemma_slack(ConvexLink.SQUARE, gammas, rewards, link_fn=lambda x: -np.square(x))
    return _report("selftest_nonconvex", "negated_square (non-convex)", gammas, slack,
                   lambda i: {"rewards": rewards[i].tolist()}, seed=seed)
