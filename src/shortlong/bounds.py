"""Brute-force numerical certification of the loss-decomposition inequalities.

Three layers of claim are checked, each as exact arithmetic over finite
discrete scenarios (randomness only generates instances, never estimates an
expectation):

* the pointwise three-term Jensen split of a single margin loss
  (:func:`lemma_slack`),
* its expectation form over scenarios whose long-context preference
  probabilities never exceed the short-context ones
  (:func:`check_theorem1_exact`), and the simplified variant that replaces the
  two cross terms by the envelope of the reward gap
  (:func:`check_theorem1_sform`),
* the generalized-distance variant where the mean absolute reward gap is
  dominated by a p-norm gap (:func:`check_theorem2`).

Every check returns signed slack = LHS - RHS; positive slack beyond tolerance
is a violation. Suites report the max over instances plus a witness dump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .links import BoundFn, ConvexLink, eval_bound, eval_link

__all__ = [
    "TOLERANCE",
    "RewardAssignment",
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

# Keeps exponential-link arguments <= ~30 so slack is never an overflow artifact.
_REWARD_RANGE = {ConvexLink.EXPONENTIAL: (-2.0, 2.0)}
_DEFAULT_REWARD_RANGE = (-5.0, 5.0)


@dataclass(frozen=True)
class RewardAssignment:
    """The four rewards of one (context pair, response pair) instance."""

    r_sw: float  # short context, chosen
    r_sl: float  # short context, rejected
    r_lw: float  # long context, chosen
    r_ll: float  # long context, rejected

    def deltas(self) -> tuple[float, float, float]:
        """(long-short chosen gap, short margin, short-long rejected gap)."""
        return (self.r_lw - self.r_sw, self.r_sw - self.r_sl, self.r_sl - self.r_ll)


def lemma_slack(link: ConvexLink, gamma: float, ra: RewardAssignment) -> float:
    """Signed slack of the three-term split of a single margin loss.

    LHS = f(r_lw - r_ll - gamma); RHS = mean of f(3*delta_i - gamma) over the
    three telescoping gaps. Convexity of f makes LHS <= RHS for any rewards.
    """
    d1, d2, d3 = ra.deltas()
    lhs = eval_link(link, ra.r_lw - ra.r_ll - gamma)
    rhs = (eval_link(link, 3.0 * d1 - gamma)
           + eval_link(link, 3.0 * d2 - gamma)
           + eval_link(link, 3.0 * d3 - gamma)) / 3.0
    return float(lhs - rhs)


def _lemma_slack_batch(link: ConvexLink, gammas: np.ndarray, rewards: np.ndarray,
                       link_fn: Callable | None = None) -> np.ndarray:
    """Vectorized lemma slack; ``rewards`` has columns (r_sw, r_sl, r_lw, r_ll)."""
    f = (lambda x: eval_link(link, x)) if link_fn is None else link_fn
    r_sw, r_sl, r_lw, r_ll = rewards.T
    d1, d2, d3 = r_lw - r_sw, r_sw - r_sl, r_sl - r_ll
    lhs = f(r_lw - r_ll - gammas)
    rhs = (f(3 * d1 - gammas) + f(3 * d2 - gammas) + f(3 * d3 - gammas)) / 3.0
    return lhs - rhs


@dataclass
class DiscreteScenario:
    """A finite world: weighted context pairs, weighted responses, rewards.

    ``r_short[k, i]`` / ``r_long[k, i]`` are the rewards of response ``i``
    under context pair ``k``'s short / long variant. ``pref_short[k, i, j]``
    is the probability that ``i`` is judged preferable to ``j`` given the
    short variant (likewise ``pref_long``); pairs may abstain, so
    ``P[i, j] + P[j, i] <= 1`` with zero diagonal.
    """

    context_weights: np.ndarray
    response_weights: np.ndarray
    r_short: np.ndarray
    r_long: np.ndarray
    pref_short: np.ndarray
    pref_long: np.ndarray

    def __post_init__(self) -> None:
        for name in ("context_weights", "response_weights", "r_short", "r_long",
                     "pref_short", "pref_long"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        k, m = self.r_short.shape
        if self.r_long.shape != (k, m):
            raise ValueError("r_short and r_long shapes differ")
        if self.pref_short.shape != (k, m, m) or self.pref_long.shape != (k, m, m):
            raise ValueError("preference tables must be (contexts, M, M)")
        if not (np.isclose(self.context_weights.sum(), 1.0)
                and np.isclose(self.response_weights.sum(), 1.0)):
            raise ValueError("weights must each sum to 1")
        if np.any(self.context_weights < 0) or np.any(self.response_weights < 0):
            raise ValueError("weights must be nonnegative")
        for p in (self.pref_short, self.pref_long):
            if np.any(p < 0) or np.any(p > 1):
                raise ValueError("preference probabilities must lie in [0, 1]")
            if np.any(p + np.swapaxes(p, 1, 2) > 1 + 1e-12):
                raise ValueError("P[i,j] + P[j,i] must not exceed 1")

    def satisfies_discrimination(self, tol: float = 1e-12) -> bool:
        """Long-context preferences never easier than short-context ones."""
        return bool(np.all(self.pref_long <= self.pref_short + tol))

    def instance_rewards(self, k: int, i: int, j: int) -> RewardAssignment:
        """The induced 4-tuple for context pair ``k`` and response pair (i, j)."""
        return RewardAssignment(r_sw=float(self.r_short[k, i]), r_sl=float(self.r_short[k, j]),
                                r_lw=float(self.r_long[k, i]), r_ll=float(self.r_long[k, j]))


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


def _pair_mass(scn: DiscreteScenario) -> np.ndarray:
    w, q = scn.context_weights, scn.response_weights
    return w[:, None, None] * q[None, :, None] * q[None, None, :]


def _long_lhs(scn: DiscreteScenario, link: ConvexLink, gamma: float) -> float:
    margin = scn.r_long[:, :, None] - scn.r_long[:, None, :] - gamma
    return float(np.sum(_pair_mass(scn) * scn.pref_long * eval_link(link, margin)))


def _short_po_term(scn: DiscreteScenario, link: ConvexLink, gamma: float) -> float:
    margin = 3.0 * (scn.r_short[:, :, None] - scn.r_short[:, None, :]) - gamma
    return float(np.sum(_pair_mass(scn) * scn.pref_short * eval_link(link, margin)))


def theorem1_exact_slack(scn: DiscreteScenario, link: ConvexLink, gamma: float) -> float:
    """Slack of: long loss <= (short PO + chosen cross-gap + rejected cross-gap)/3.

    Cross terms keep the long-context preference weights; the short PO term
    carries the short-context weights, which is exactly where the
    discrimination assumption enters.
    """
    mass = _pair_mass(scn)
    gap = scn.r_long - scn.r_short  # (K, M)
    cross_w = float(np.sum(mass * scn.pref_long
                           * eval_link(link, 3.0 * gap[:, :, None] - gamma)))
    cross_l = float(np.sum(mass * scn.pref_long
                           * eval_link(link, -3.0 * gap[:, None, :] - gamma)))
    rhs = (_short_po_term(scn, link, gamma) + cross_w + cross_l) / 3.0
    return _long_lhs(scn, link, gamma) - rhs


def theorem1_sform_slack(scn: DiscreteScenario, link: ConvexLink, gamma: float) -> float:
    """Slack of: long loss <= (short PO + E s(3 |reward gap|)) / 3."""
    w, q = scn.context_weights, scn.response_weights
    envelope = eval_bound(BoundFn(link, gamma), 3.0 * np.abs(scn.r_short - scn.r_long))
    s_term = float(np.sum(w[:, None] * q[None, :] * envelope))
    rhs = (_short_po_term(scn, link, gamma) + s_term) / 3.0
    return _long_lhs(scn, link, gamma) - rhs


def _scenario_report(check: str, scn: DiscreteScenario, link: ConvexLink,
                     gamma: float, slack_fn) -> BoundReport:
    if not scn.satisfies_discrimination():
        raise ValueError("scenario violates the preference-discrimination precondition")
    slack = slack_fn(scn, link, gamma)
    witness = _witness(scn, link, gamma, slack) if slack > TOLERANCE else None
    return BoundReport(check=check, instances=1, max_violation=slack, worst_witness=witness)


def check_theorem1_exact(scn: DiscreteScenario, link: ConvexLink, gamma: float) -> BoundReport:
    return _scenario_report("theorem1_exact", scn, link, gamma, theorem1_exact_slack)


def check_theorem1_sform(scn: DiscreteScenario, link: ConvexLink, gamma: float) -> BoundReport:
    return _scenario_report("theorem1_sform", scn, link, gamma, theorem1_sform_slack)


def _p_norm_gaps(scn: DiscreteScenario, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(D_1 per context, D_p per context) of the reward gap distribution."""
    q = scn.response_weights
    gaps = np.abs(scn.r_short - scn.r_long)
    d1 = gaps @ q
    if np.isinf(p):
        dp = np.max(np.where(q[None, :] > 0, gaps, 0.0), axis=1)
    else:
        dp = (np.power(gaps, p) @ q) ** (1.0 / p)
    return d1, dp


def check_theorem2(scn: DiscreteScenario, p: float, c1: float, gamma: float) -> BoundReport:
    """Generalized-distance bound with the logistic link.

    First verifies D_1 <= c1 * D_p per context (the admissibility condition of
    the substituted distance); failures are reported as condition failures,
    not bound violations. Then checks
    long loss <= short PO / 3 + c1 * E[D_p] + (2/3) log(1 + e^{3 gamma}).
    """
    if p < 1:
        raise ValueError("p-norm distance requires p >= 1")
    if c1 < 1:
        raise ValueError("c1 must be >= 1")
    if not scn.satisfies_discrimination():
        raise ValueError("scenario violates the preference-discrimination precondition")
    link = ConvexLink.LOGISTIC
    d1, dp = _p_norm_gaps(scn, p)
    condition_failures = int(np.sum(d1 > c1 * dp + 1e-12))
    if condition_failures:
        return BoundReport(check="theorem2", instances=1, max_violation=-np.inf,
                           condition_failures=condition_failures,
                           worst_witness={"d1": d1.tolist(), "dp": dp.tolist(), "p": p})
    c2 = 2.0 / 3.0 * float(np.logaddexp(0.0, 3.0 * gamma))
    rhs = (_short_po_term(scn, link, gamma) / 3.0
           + c1 * float(scn.context_weights @ dp) + c2)
    slack = _long_lhs(scn, link, gamma) - rhs
    witness = _witness(scn, link, gamma, slack) if slack > TOLERANCE else None
    return BoundReport(check="theorem2", instances=1, max_violation=slack,
                       worst_witness=witness)


def _witness(scn: DiscreteScenario, link: ConvexLink, gamma: float, slack: float) -> dict:
    return {
        "link": link.value,
        "gamma": gamma,
        "slack": slack,
        "context_weights": scn.context_weights.tolist(),
        "response_weights": scn.response_weights.tolist(),
        "r_short": scn.r_short.tolist(),
        "r_long": scn.r_long.tolist(),
        "pref_short": scn.pref_short.tolist(),
        "pref_long": scn.pref_long.tolist(),
    }


def random_scenario(rng: np.random.Generator, *, max_contexts: int = 4,
                    max_responses: int = 4,
                    reward_range: tuple[float, float] = _DEFAULT_REWARD_RANGE) -> DiscreteScenario:
    """Draw a random scenario; preference pairs may abstain (sums <= 1)."""
    k = int(rng.integers(1, max_contexts + 1))
    m = int(rng.integers(2, max_responses + 1))
    w = rng.dirichlet(np.ones(k))
    q = rng.dirichlet(np.ones(m))
    lo, hi = reward_range
    r_short = rng.uniform(lo, hi, (k, m))
    r_long = rng.uniform(lo, hi, (k, m))
    p_short = np.zeros((k, m, m))
    p_long = np.zeros((k, m, m))
    for i in range(m):
        for j in range(i + 1, m):
            total = rng.uniform(0.0, 1.0, k)
            split = rng.uniform(0.0, 1.0, k)
            p_short[:, i, j] = total * split
            p_short[:, j, i] = total * (1.0 - split)
            p_long[:, i, j] = p_short[:, i, j] * rng.uniform(0.0, 1.0, k)
            p_long[:, j, i] = p_short[:, j, i] * rng.uniform(0.0, 1.0, k)
    return DiscreteScenario(w, q, r_short, r_long, p_short, p_long)


def run_lemma1_suite(n_instances: int, seed: int, *,
                     links: tuple[ConvexLink, ...] = ALL_LINKS,
                     gamma_range: tuple[float, float] = (-3.0, 3.0),
                     reward_range: tuple[float, float] = (-10.0, 10.0)) -> BoundReport:
    """Vectorized random certification of the three-term split."""
    rng = np.random.default_rng(seed)
    per_link = n_instances // len(links)
    worst = -np.inf
    witness = None
    total = 0
    for link in links:
        count = per_link if link is not links[-1] else n_instances - per_link * (len(links) - 1)
        gammas = rng.uniform(*gamma_range, count)
        rewards = rng.uniform(*reward_range, (count, 4))
        slack = _lemma_slack_batch(link, gammas, rewards)
        total += count
        idx = int(np.argmax(slack))
        if slack[idx] > worst:
            worst = float(slack[idx])
            witness = {"link": link.value, "gamma": float(gammas[idx]),
                       "rewards": rewards[idx].tolist(), "slack": float(slack[idx])}
    return BoundReport(check="lemma1", instances=total, max_violation=worst,
                       seed=seed, worst_witness=witness if worst > TOLERANCE else None)


def _gamma_for(link: ConvexLink, rng: np.random.Generator, form: str) -> float:
    if form == "sform":
        lo, hi = SFORM_GAMMA_RANGES[link]
    else:
        lo, hi = -3.0, 3.0
    return float(rng.uniform(lo, hi))


def run_theorem1_suite(n_scenarios: int, seed: int, *, form: str = "exact",
                       links: tuple[ConvexLink, ...] = ALL_LINKS) -> dict[str, BoundReport]:
    """Random-scenario certification; one report per link."""
    if form not in ("exact", "sform"):
        raise ValueError("form must be 'exact' or 'sform'")
    slack_fn = theorem1_exact_slack if form == "exact" else theorem1_sform_slack
    reports: dict[str, BoundReport] = {}
    for link in links:
        rng = np.random.default_rng([seed, ALL_LINKS.index(link)])
        rrange = _REWARD_RANGE.get(link, _DEFAULT_REWARD_RANGE)
        worst = -np.inf
        witness = None
        for _ in range(n_scenarios):
            gamma = _gamma_for(link, rng, form)
            scn = random_scenario(rng, reward_range=rrange)
            slack = slack_fn(scn, link, gamma)
            if slack > worst:
                worst = slack
                if slack > TOLERANCE:
                    witness = _witness(scn, link, gamma, slack)
        reports[link.value] = BoundReport(check=f"theorem1_{form}[{link.value}]",
                                          instances=n_scenarios, max_violation=worst,
                                          seed=seed, worst_witness=witness)
    return reports


def run_theorem2_suite(n_scenarios: int, seed: int, *,
                       p_values: tuple[float, ...] = (1.0, 2.0, np.inf),
                       c1: float = 1.0) -> dict[str, BoundReport]:
    """p-norm distance certification for the logistic pairing."""
    reports: dict[str, BoundReport] = {}
    for p in p_values:
        rng = np.random.default_rng([seed, int(p) if np.isfinite(p) else 999])
        worst = -np.inf
        witness = None
        failures = 0
        glo, ghi = SFORM_GAMMA_RANGES[ConvexLink.LOGISTIC]
        for _ in range(n_scenarios):
            gamma = float(rng.uniform(glo, ghi))
            scn = random_scenario(rng)
            rep = check_theorem2(scn, p, c1, gamma)
            failures += rep.condition_failures
            if rep.max_violation > worst:
                worst = rep.max_violation
                witness = rep.worst_witness
        key = "inf" if np.isinf(p) else f"{p:g}"
        reports[key] = BoundReport(check=f"theorem2[p={key}]", instances=n_scenarios,
                                   max_violation=worst, seed=seed,
                                   condition_failures=failures,
                                   worst_witness=witness if worst > TOLERANCE else None)
    return reports


def run_assumption_necessity_search(n_attempts: int, seed: int, *,
                                    link: ConvexLink = ConvexLink.LOGISTIC) -> BoundReport:
    """Search for a bound violation once discrimination is NOT enforced.

    Diagnostic demonstrating the assumption is load-bearing: uses the smallest
    scenario class (one context pair, two responses), fully vectorized.
    A found witness means the report's max_violation is positive — here that
    is the desired outcome, not a failure of the certified claim.
    """
    rng = np.random.default_rng(seed)
    b = n_attempts
    gam = rng.uniform(-3.0, 3.0, b)
    q1 = rng.uniform(0.05, 0.95, b)
    q2 = 1.0 - q1
    rs = rng.uniform(-8.0, 8.0, (b, 2))
    rl = rng.uniform(-8.0, 8.0, (b, 2))

    def pair_probs():
        total = rng.uniform(0.0, 1.0, b)
        split = rng.uniform(0.0, 1.0, b)
        return total * split, total * (1.0 - split)

    ps12, ps21 = pair_probs()
    pl12, pl21 = pair_probs()

    def f(x):
        return eval_link(link, x)

    mass12, mass21 = q1 * q2, q2 * q1
    lhs = (mass12 * pl12 * f(rl[:, 0] - rl[:, 1] - gam)
           + mass21 * pl21 * f(rl[:, 1] - rl[:, 0] - gam))
    short = (mass12 * ps12 * f(3 * (rs[:, 0] - rs[:, 1]) - gam)
             + mass21 * ps21 * f(3 * (rs[:, 1] - rs[:, 0]) - gam))
    gap = rl - rs
    cross_w = (mass12 * pl12 * f(3 * gap[:, 0] - gam)
               + mass21 * pl21 * f(3 * gap[:, 1] - gam))
    cross_l = (mass12 * pl12 * f(-3 * gap[:, 1] - gam)
               + mass21 * pl21 * f(-3 * gap[:, 0] - gam))
    slack = lhs - (short + cross_w + cross_l) / 3.0
    idx = int(np.argmax(slack))
    worst = float(slack[idx])
    witness = None
    if worst > TOLERANCE:
        witness = {
            "link": link.value, "gamma": float(gam[idx]), "slack": worst,
            "response_weights": [float(q1[idx]), float(q2[idx])],
            "r_short": rs[idx].tolist(), "r_long": rl[idx].tolist(),
            "pref_short": [[0.0, float(ps12[idx])], [float(ps21[idx]), 0.0]],
            "pref_long": [[0.0, float(pl12[idx])], [float(pl21[idx]), 0.0]],
            "violations_found": int(np.sum(slack > TOLERANCE)),
        }
    return BoundReport(check=f"assumption_necessity[{link.value}]",
                       instances=n_attempts, max_violation=worst, seed=seed,
                       worst_witness=witness)


def run_nonconvex_selftest(n_instances: int, seed: int) -> BoundReport:
    """Harness sanity check: a concave 'link' must produce violations."""
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(-3.0, 3.0, n_instances)
    rewards = rng.uniform(-10.0, 10.0, (n_instances, 4))
    slack = _lemma_slack_batch(ConvexLink.SQUARE, gammas, rewards,
                               link_fn=lambda x: -np.square(x))
    idx = int(np.argmax(slack))
    worst = float(slack[idx])
    witness = None
    if worst > TOLERANCE:
        witness = {"link": "negated_square (non-convex)", "gamma": float(gammas[idx]),
                   "rewards": rewards[idx].tolist(), "slack": worst}
    return BoundReport(check="selftest_nonconvex", instances=n_instances,
                       max_violation=worst, seed=seed, worst_witness=witness)
