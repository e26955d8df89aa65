"""Preference-optimization losses with a short-to-long reward-consistency term.

The objective is ``f(eta * (r(x_short, y_w) - r(x_short, y_l) - gamma))`` plus
``alpha`` times a penalty on the gap between the reward a response earns under
the short context and under the long context. Only the reward ``r`` and the
link ``f`` change from one algorithm to the next, so each algorithm is one row
of ``_METHODS``. Everything here is a pure, elementwise function of stacked
log-probs; :func:`solopo_stack` evaluates every term and its analytic gradient
in one pass over the (4, ...) stacks of a :class:`LogProbBundle`,
:func:`solopo_loss` is that pass on a checked bundle, :func:`grad_solopo`
reads its gradient, and :func:`kink_distances` says where it has none.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .links import ConvexLink, DomainError, _result, link_value_and_deriv
# An alias of links.eval_link, kept importable from here: perfbench/selftest.py
# checks that the tracer patches it.
from .links import eval_link  # noqa: F401

__all__ = [
    "Method",
    "RAMode",
    "MethodConfig",
    "LogProbBundle",
    "LossBreakdown",
    "reward",
    "solopo_loss",
    "solopo_stack",
    "grad_solopo",
    "kink_distances",
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


def _log_odds(lp, n) -> tuple:
    """(log(p / (1 - p)), its derivative by lp) for p = e^t, t = lp / n < 0,
    without forming p - 1 directly: the derivative is 1 / (1 - e^t) / n."""
    t = np.asarray(lp / n, dtype=np.float64)
    if (t >= 0.0).any():
        raise DomainError("log-odds singularity: per-token log-prob >= 0 (p >= 1)", t >= 0.0)
    # log(1 - e^t): expm1 near zero, log1p(-exp) otherwise; the far branch's
    # input is clamped so the branch np.where discards stays finite.
    one_minus_p = -np.expm1(t)
    log1m = np.where(t > -0.6931471805599453, np.log(one_minus_p),
                     np.log1p(-np.exp(np.minimum(t, -0.6931471805599453))))
    return t - log1m, 1.0 / one_minus_p / n


@dataclass(frozen=True)
class _Row:
    """One algorithm: its link, default hyperparameters (``beta`` None when
    the reward does not read it), whether it reads a reference policy, keeps
    it in the alignment gap and squares that gap (instead of taking its
    absolute value), and its reward with its slope,
    ``reward(beta, lp, ref_lp, length)`` = (r, dr/dlp), both of lp's shape."""

    link: ConvexLink
    beta: float | None
    reward: Callable
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
                     reward=lambda beta, lp, ref, n: (beta * (lp - ref), np.full_like(lp, beta))),
    Method.SIMPO: _Row(ConvexLink.LOGISTIC, beta=2.0, gamma=1.4,
                       reward=lambda beta, lp, ref, n: (beta / n * lp, beta / n)),
    Method.ORPO: _Row(ConvexLink.LOGISTIC, beta=None, include_nll=True,
                      reward=lambda beta, lp, ref, n: _log_odds(lp, n)),
    Method.IPO: _Row(ConvexLink.SQUARE, beta=None, gamma=0.5, needs_reference=True,
                     gap_keeps_reference=True, squared_gap=True,
                     reward=lambda beta, lp, ref, n: (lp - ref, np.ones_like(lp))),
    Method.SLIC: _Row(ConvexLink.HINGE, beta=None,
                      reward=lambda beta, lp, ref, n: (lp, np.ones_like(lp))),
}


@dataclass
class MethodConfig:
    """Algorithm choice plus its hyperparameters.

    ``None`` hyperparameters are filled with the per-method defaults
    (DPO beta=0.1, SimPO beta=2.0 gamma=1.4, IPO gamma=0.5, the target
    margin 1/(2 tau) at tau = 1; alpha 3/1/1 for DPO/SimPO/ORPO and 1
    otherwise; NLL term on for ORPO). Only DPO and SimPO rewards read
    ``beta``; it stays None, and setting it is an error, for the others.
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
            if getattr(self, name) is not None and not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta is not None and row.beta is None:
            raise ValueError(f"beta is not used by {self.method.value}")
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
    """Sequence log-probabilities (nats) for one preference record, as (4,)
    arrays, or for n records, as (4, n) arrays.

    ``lp`` holds the policy's log-probs in :data:`GRAD_FIELDS` order (``w``/``l``
    the chosen/rejected response, ``short``/``long`` the two context variants),
    ``lens`` their response token counts and ``ref`` the reference policy's
    log-probs of the same responses, required exactly for the methods that use
    a reference (DPO, IPO).
    """

    lp: np.ndarray
    lens: np.ndarray
    ref: np.ndarray | None = None

    def __post_init__(self) -> None:
        shapes = [np.shape(a) for a in (self.lp, self.lens, self.ref) if a is not None]
        if shapes[0][:1] != (4,) or len(set(shapes)) > 1:
            raise ValueError(f"lp, lens and ref must share one (4, ...) shape, got {shapes}")
        if np.min(self.lens) < 1:
            raise ValueError("response lengths must be >= 1")
        for prefix, rows in (("", self.lp), ("ref_", () if self.ref is None else self.ref)):
            for name, row in zip(GRAD_FIELDS, rows):
                if not np.all(np.isfinite(row)):
                    raise ValueError(f"{prefix}{name} must be finite")


GRAD_FIELDS = ("lp_w_short", "lp_l_short", "lp_w_long", "lp_l_long")


@dataclass
class LossBreakdown:
    """total = po_term + alpha * ra_term + nll_term; the long-context reward
    margin r(x_long, y_w) - r(x_long, y_l); and ``grads``, the (4, ...) array
    d total / d lp, one row per name of :data:`GRAD_FIELDS` in order."""

    total: float | np.ndarray
    po_term: float | np.ndarray
    ra_term: float | np.ndarray
    nll_term: float | np.ndarray
    reward_margin_long: float | np.ndarray
    grads: np.ndarray


def reward(cfg: MethodConfig, lp, ref_lp, length):
    """Method-specific reward of one response under one context.

    DPO: beta * (lp - ref_lp); SimPO: (beta / len) * lp; ORPO: log-odds of the
    length-normalized sequence probability p = exp(lp / len); IPO: lp - ref_lp;
    SLiC: lp.
    """
    if cfg.needs_reference and ref_lp is None:
        raise ValueError(f"{cfg.method.value} reward requires ref_lp")
    return _result(_METHODS[cfg.method].reward(cfg.beta, lp, ref_lp, length)[0])


def _reward_pass(cfg: MethodConfig, lp: np.ndarray, lens: np.ndarray, ref) -> tuple:
    """One reward pass over the (4, ...) stacks of :func:`solopo_stack`.

    Returns ``(slope, z, gaps, margin_long)``: the (4, ...) slopes dr/dlp,
    the short margin argument ``eta * (r_w - r_l - gamma)``, the (2, ...)
    alignment gaps ``r(x_short, y) - r(x_long, y)`` of y_w and y_l, and the
    long-context margin ``r(x_long, y_w) - r(x_long, y_l)``.

    A row that does not keep the reference in the gap (DPO) aligns only the
    policy term: both contexts share one reference, which cancels. Sharing the
    long-context log-prob makes the long reward exactly 0, so DPO's gap is the
    correctly rounded beta * (lp_short - lp_long) even when the gap is tiny.
    """
    row = _METHODS[cfg.method]
    r, slope = row.reward(cfg.beta, lp, ref, lens)
    gaps = (r[:2] - r[2:] if not row.needs_reference or row.gap_keeps_reference
            else row.reward(cfg.beta, lp[:2], lp[2:], lens[:2])[0])
    return slope, cfg.eta * (r[0] - r[1] - cfg.gamma), gaps, r[2] - r[3]


def _gap_penalty(row: _Row, gap) -> tuple:
    """(penalty, d penalty / d gap): the squared gap for a ``squared_gap``
    row, the absolute gap otherwise."""
    if row.squared_gap:
        return gap * gap, 2.0 * gap
    return abs(gap), np.sign(gap)


# How many responses each gap-based alignment mode averages over: y_w, then y_l.
_RA_RESPONSES = {RAMode.CHOSEN_ONLY: 1, RAMode.BOTH: 2}


def solopo_loss(cfg: MethodConfig, b: LogProbBundle) -> LossBreakdown:
    """:func:`solopo_stack` of a bundle, which has references if it reads them."""
    if cfg.needs_reference and b.ref is None:
        raise ValueError(f"{cfg.method.value} requires reference log-probs")
    return solopo_stack(cfg, b.lp, b.lens, b.ref)


def solopo_stack(cfg: MethodConfig, lp: np.ndarray, lens: np.ndarray, ref=None) -> LossBreakdown:
    """The full objective, its terms and its gradient ``grads`` by ``lp``,
    unchecked, from one stacked pass of the method's reward and its slope over
    the (4, ...) stacks of a :class:`LogProbBundle` (see :func:`_reward_pass`),
    and one of the link and its slope.

    Alignment: chosen_only penalizes the chosen response's reward gap, both
    averages the chosen and rejected penalties, kl_approx is the raw
    |lp_w_short - lp_w_long|. The references are frozen inputs and get no
    gradient. Kinks (see :func:`kink_distances`) take subgradient 0. Every
    policy field goes through the reward, so an ORPO log-odds singularity in
    any of them raises :class:`DomainError`, whose index is the flat position
    in the (4, ...) stack: record ``index % n``.
    """
    row = _METHODS[cfg.method]
    slope, z, gaps, margin_long = _reward_pass(cfg, lp, lens, ref)
    po, fz = link_value_and_deriv(cfg.link, z)
    fz = fz * cfg.eta
    g = np.zeros(lp.shape)  # d total / d lp, GRAD_FIELDS order
    g[0] = fz * slope[0]
    g[1] = -fz * slope[1]
    nll = -lp[0] / lens[0] if cfg.include_nll else 0.0
    if cfg.include_nll:
        g[0] -= 1.0 / lens[0]

    a = cfg.alpha
    if cfg.ra_mode is RAMode.KL_APPROX:
        diff = lp[0] - lp[2]
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
            g[:k] += weighted * slope[:k]
            g[2:2 + k] -= weighted * slope[2:2 + k]
    return LossBreakdown(total=po + a * ra + nll, po_term=po, ra_term=ra, nll_term=nll,
                         reward_margin_long=_result(margin_long), grads=g)


def kink_distances(cfg: MethodConfig, b: LogProbBundle) -> list[np.ndarray]:
    """How far a bundle lies from each point where the total loss is not
    differentiable, one array of the records' shape per kink: the hinge link
    at z = 0, and for a positive ``alpha`` the kl_approx gap
    lp_w_short - lp_w_long, or each absolute alignment gap, at 0. A squared
    gap (IPO) has no kink."""
    _, z, gaps, _ = _reward_pass(cfg, b.lp, b.lens, b.ref)
    dists = [abs(z)] if cfg.link is ConvexLink.HINGE else []
    if cfg.alpha > 0:
        if cfg.ra_mode is RAMode.KL_APPROX:
            dists.append(abs(b.lp[0] - b.lp[2]))
        elif not _METHODS[cfg.method].squared_gap:
            dists += list(abs(gaps[:_RA_RESPONSES[cfg.ra_mode]]))
    return dists


def grad_solopo(cfg: MethodConfig, b: LogProbBundle) -> np.ndarray:
    """The (4, ...) d total / d lp, in :data:`GRAD_FIELDS` order."""
    return solopo_loss(cfg, b).grads
