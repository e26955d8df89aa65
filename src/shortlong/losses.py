"""Preference-optimization losses with a short-to-long reward-consistency term.

The objective is ``f(eta * (r(x_short, y_w) - r(x_short, y_l) - gamma))`` plus
``alpha`` times a penalty on the gap between the reward a response earns under
the short context and under the long context. Only the reward ``r`` and the
link ``f`` change from one algorithm to the next, so each algorithm is one row
of ``_METHODS``. Everything here is a pure, elementwise function of a
:class:`LogProbBundle` whose fields are scalars or equal-length arrays, and
:func:`solopo_loss` evaluates every term and its analytic gradient in one pass;
:func:`grad_solopo` reads that pass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .links import ConvexLink, DomainError, eval_link, link_deriv

__all__ = [
    "Method",
    "RAMode",
    "MethodConfig",
    "LogProbBundle",
    "LossBreakdown",
    "reward",
    "solopo_loss",
    "grad_solopo",
    "GRAD_FIELDS",
]


class Method(enum.Enum):
    DPO = "dpo"
    SIMPO = "simpo"
    ORPO = "orpo"
    IPO = "ipo"
    SLIC = "slic"


class RAMode(enum.Enum):
    CHOSEN_ONLY = "chosen_only"
    BOTH = "both"
    KL_APPROX = "kl_approx"


def _scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _below_zero(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if np.any(t >= 0.0):
        raise DomainError("log-odds singularity: per-token log-prob >= 0 (p >= 1)", t >= 0.0)
    return t


def _log_odds(t):
    """log(p / (1 - p)) for p = e^t, t < 0, without forming p - 1 directly."""
    t = _below_zero(t)
    # log(1 - e^t): expm1 near zero, log1p(-exp) otherwise; the far branch's
    # input is clamped so the branch np.where discards stays finite.
    near = t > -0.6931471805599453
    log1m = np.where(near, np.log(-np.expm1(t)),
                     np.log1p(-np.exp(np.minimum(t, -0.6931471805599453))))
    return _scalar(t - log1m)


def _log_odds_deriv(t):
    """d/dt log-odds(e^t) = 1 / (1 - e^t)."""
    return _scalar(1.0 / -np.expm1(_below_zero(t)))


@dataclass(frozen=True)
class _Row:
    """One algorithm: its link, default hyperparameters, whether it reads a
    reference policy, keeps it in the alignment gap and squares that gap
    (instead of taking its absolute value), and its reward
    ``reward(beta, lp, ref_lp, length)`` with the derivative
    ``dreward(beta, lp, length)`` = dr/dlp (a reference-reading reward is a
    function of lp - ref_lp, so dr/dref_lp = -dr/dlp)."""

    link: ConvexLink
    beta: float
    reward: Callable
    dreward: Callable
    gamma: float = 0.0
    alpha: float = 1.0
    needs_reference: bool = False
    gap_keeps_reference: bool = False
    squared_gap: bool = False
    include_nll: bool = False    # the method has an NLL term, on by default


# The partition-function offset of the DPO reward cancels in every margin and
# is dropped. DPO aligns only the policy term of its reward; IPO keeps the
# reference in the gap.
_METHODS = {
    Method.DPO: _Row(ConvexLink.LOGISTIC, beta=0.1, alpha=3.0, needs_reference=True,
                     reward=lambda beta, lp, ref, n: beta * (lp - ref),
                     dreward=lambda beta, lp, n: beta),
    Method.SIMPO: _Row(ConvexLink.LOGISTIC, beta=2.0, gamma=1.4,
                       reward=lambda beta, lp, ref, n: beta / n * lp,
                       dreward=lambda beta, lp, n: beta / n),
    Method.ORPO: _Row(ConvexLink.LOGISTIC, beta=0.1, include_nll=True,
                      reward=lambda beta, lp, ref, n: _log_odds(lp / n),
                      dreward=lambda beta, lp, n: _log_odds_deriv(lp / n) / n),
    Method.IPO: _Row(ConvexLink.SQUARE, beta=1.0, gamma=0.5, needs_reference=True,
                     gap_keeps_reference=True, squared_gap=True,
                     reward=lambda beta, lp, ref, n: lp - ref,
                     dreward=lambda beta, lp, n: 1.0),
    Method.SLIC: _Row(ConvexLink.HINGE, beta=1.0,
                      reward=lambda beta, lp, ref, n: lp,
                      dreward=lambda beta, lp, n: 1.0),
}


@dataclass
class MethodConfig:
    """Algorithm choice plus its hyperparameters.

    ``None`` hyperparameters are filled with the per-method defaults
    (DPO/ORPO beta=0.1, SimPO beta=2.0 gamma=1.4, IPO gamma=0.5, the target
    margin 1/(2 tau) at tau = 1; alpha 3/1/1 for DPO/SimPO/ORPO and 1
    otherwise; NLL term on for ORPO).
    """

    method: Method
    beta: float | None = None
    gamma: float | None = None
    eta: float = 1.0
    alpha: float | None = None
    ra_mode: RAMode = RAMode.CHOSEN_ONLY
    include_nll: bool | None = None

    def __post_init__(self) -> None:
        row = _METHODS[self.method]
        for name in ("beta", "gamma", "alpha", "include_nll"):
            if getattr(self, name) is None:
                setattr(self, name, getattr(row, name))
        if self.include_nll and not row.include_nll:
            raise ValueError("include_nll is only meaningful for ORPO")
        for name in ("alpha", "beta", "gamma", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @property
    def link(self) -> ConvexLink:
        return _METHODS[self.method].link

    @property
    def needs_reference(self) -> bool:
        return _METHODS[self.method].needs_reference


@dataclass
class LogProbBundle:
    """Sequence log-probabilities (nats) for one preference record, or for n
    records when every field holds an (n,) array.

    ``w``/``l`` are the chosen/rejected responses, ``short``/``long`` the two
    context variants. Reference-policy fields are required exactly for the
    methods that use a reference (DPO, IPO). Lengths are response token counts.
    """

    lp_w_short: float | np.ndarray
    lp_l_short: float | np.ndarray
    lp_w_long: float | np.ndarray
    lp_l_long: float | np.ndarray
    len_w: int | np.ndarray
    len_l: int | np.ndarray
    ref_lp_w_short: float | np.ndarray | None = None
    ref_lp_l_short: float | np.ndarray | None = None
    ref_lp_w_long: float | np.ndarray | None = None
    ref_lp_l_long: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if np.minimum(self.len_w, self.len_l).min() < 1:
            raise ValueError("response lengths must be >= 1")
        # A sum is finite exactly when its terms are, unless finite terms
        # overflow; only then, or when a field is bad, are the fields checked
        # one by one.
        if not np.isfinite(self.lp_w_short + self.lp_l_short
                           + self.lp_w_long + self.lp_l_long).all():
            for name in GRAD_FIELDS[:4]:
                if not np.all(np.isfinite(getattr(self, name))):
                    raise ValueError(f"{name} must be finite")

    def has_reference(self) -> bool:
        return all(getattr(self, name) is not None for name in GRAD_FIELDS[4:])


GRAD_FIELDS = (
    "lp_w_short", "lp_l_short", "lp_w_long", "lp_l_long",
    "ref_lp_w_short", "ref_lp_l_short", "ref_lp_w_long", "ref_lp_l_long",
)


@dataclass
class LossBreakdown:
    """total = po_term + alpha * ra_term + nll_term; the long-context reward
    margin r(x_long, y_w) - r(x_long, y_l); and ``grads``, which maps every
    name in :data:`GRAD_FIELDS` to d total / d field."""

    total: float | np.ndarray
    po_term: float | np.ndarray
    ra_term: float | np.ndarray
    nll_term: float | np.ndarray
    reward_margin_long: float | np.ndarray
    grads: dict


def reward(cfg: MethodConfig, lp, ref_lp, length):
    """Method-specific reward of one response under one context.

    DPO: beta * (lp - ref_lp); SimPO: (beta / len) * lp; ORPO: log-odds of the
    length-normalized sequence probability p = exp(lp / len); IPO: lp - ref_lp;
    SLiC: lp.
    """
    if cfg.needs_reference and ref_lp is None:
        raise ValueError(f"{cfg.method.value} reward requires ref_lp")
    return _scalar(_METHODS[cfg.method].reward(cfg.beta, lp, ref_lp, length))


def _reward_pass(cfg: MethodConfig, b: LogProbBundle) -> tuple:
    """One stacked reward pass over the four policy fields.

    Returns ``(lp, lens, z, gaps, margin_long)``: the (4, ...) stack of
    ``GRAD_FIELDS[:4]`` and of their response lengths, the short margin
    argument ``eta * (r_w - r_l - gamma)``, the (2, ...) alignment gaps
    ``r(x_short, y) - r(x_long, y)`` of y_w and y_l, and the long-context
    margin ``r(x_long, y_w) - r(x_long, y_l)``.

    A row that does not keep the reference in the gap (DPO) aligns only the
    policy term: both contexts share one reference, which cancels. Sharing the
    long-context log-prob makes the long reward exactly 0, so DPO's gap is the
    correctly rounded beta * (lp_short - lp_long) even when the gap is tiny.
    """
    row = _METHODS[cfg.method]
    lp = np.array([b.lp_w_short, b.lp_l_short, b.lp_w_long, b.lp_l_long])
    lens = np.array([b.len_w, b.len_l, b.len_w, b.len_l])
    ref = np.array([getattr(b, k) for k in GRAD_FIELDS[4:]]) if row.needs_reference else None
    r = row.reward(cfg.beta, lp, ref, lens)
    gaps = (r[:2] - r[2:] if ref is None or row.gap_keeps_reference
            else row.reward(cfg.beta, lp[:2], lp[2:], lens[:2]))
    return lp, lens, cfg.eta * (r[0] - r[1] - cfg.gamma), gaps, r[2] - r[3]


def _gap_penalty(row: _Row, gap) -> tuple:
    """(penalty, d penalty / d gap): the squared gap for a ``squared_gap``
    row, the absolute gap otherwise."""
    if row.squared_gap:
        return gap * gap, 2.0 * gap
    return abs(gap), np.sign(gap)


# How many responses each gap-based alignment mode averages over: y_w, then y_l.
_RA_RESPONSES = {RAMode.CHOSEN_ONLY: 1, RAMode.BOTH: 2}


def solopo_loss(cfg: MethodConfig, b: LogProbBundle) -> LossBreakdown:
    """The full objective, its terms and its gradient ``grads``, from one
    stacked pass of the method's reward and of its derivative over all four
    policy fields (see :func:`_reward_pass`).

    Alignment: chosen_only penalizes the chosen response's reward gap, both
    averages the chosen and rejected penalties, kl_approx is the raw
    |lp_w_short - lp_w_long|. Reference entries of ``grads`` are zero unless
    the method's reward reads the reference (references are frozen inputs, but
    DPO/IPO rewards still carry the analytic -beta/-1 terms so finite
    differences over the raw fields agree). Kinks take subgradient 0. Every
    policy field goes through the reward, so an ORPO log-odds singularity in
    any of them raises :class:`DomainError`, whose index is the flat position
    in the (4, ...) stack of ``GRAD_FIELDS[:4]``: record ``index % n``.
    """
    if cfg.needs_reference and not b.has_reference():
        raise ValueError(f"{cfg.method.value} requires reference log-probs")
    row = _METHODS[cfg.method]
    lp, lens, z, gaps, margin_long = _reward_pass(cfg, b)
    slope = np.broadcast_to(row.dreward(cfg.beta, lp, lens), lp.shape)  # dr/dlp per field
    po = eval_link(cfg.link, z)
    fz = link_deriv(cfg.link, z) * cfg.eta
    g = np.zeros((len(GRAD_FIELDS),) + lp.shape[1:])  # d total / d field, GRAD_FIELDS order
    g[0] = fz * slope[0]
    g[1] = -fz * slope[1]
    if row.needs_reference:
        g[4:6] = -g[:2]
    nll = -b.lp_w_short / b.len_w if cfg.include_nll else 0.0
    if cfg.include_nll:
        g[0] -= 1.0 / b.len_w

    a = cfg.alpha
    if cfg.ra_mode is RAMode.KL_APPROX:
        diff = b.lp_w_short - b.lp_w_long
        ra = abs(diff)
        if a != 0.0:
            g[0] += a * np.sign(diff)
            g[2] = -a * np.sign(diff)
    else:
        k = _RA_RESPONSES[cfg.ra_mode]
        penalty, outer = _gap_penalty(row, gaps[:k])
        ra = penalty.sum(axis=0) / k
        if a != 0.0:
            weighted = a / k * outer
            d_short, d_long = weighted * slope[:k], weighted * slope[2:2 + k]
            g[:k] += d_short
            g[2:2 + k] -= d_long
            if row.gap_keeps_reference:
                g[4:4 + k] -= d_short
                g[6:6 + k] += d_long
    return LossBreakdown(total=po + a * ra + nll, po_term=po, ra_term=ra, nll_term=nll,
                         reward_margin_long=_scalar(margin_long),
                         grads={name: _scalar(value) for name, value in zip(GRAD_FIELDS, g)})


def grad_solopo(cfg: MethodConfig, b: LogProbBundle) -> dict:
    """d total / d field for every field of :data:`GRAD_FIELDS`."""
    return solopo_loss(cfg, b).grads
