"""Convex link functions and their paired margin-envelope bounds.

A link ``f`` turns a reward margin into a loss; each link is paired with an
envelope ``s`` satisfying ``f(x + gamma) + f(-x + gamma) <= s(|x|)``, which is
what licenses replacing a pair of opposed margin losses by a single
absolute-gap penalty. All evaluators accept scalars or numpy arrays. The
logistic link and its envelope are finite for every finite argument: they
only form e^{-|x|}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ConvexLink", "BoundFn", "DomainError", "eval_link", "link_deriv", "eval_bound"]


class ConvexLink(enum.Enum):
    LOGISTIC = "logistic"
    SQUARE = "square"
    HINGE = "hinge"
    SQUARED_HINGE = "squared_hinge"
    EXPONENTIAL = "exponential"


class DomainError(ValueError):
    """An argument outside a function's domain; ``index`` is the flat position
    of the first element ``bad`` marks (named in the message), None for a scalar."""

    def __init__(self, message: str, bad: np.ndarray):
        self.index = int(np.flatnonzero(bad)[0]) if np.ndim(bad) else None
        super().__init__(message if self.index is None else f"{message} (element {self.index})")


def _check_finite(x, what: str = "link argument") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x)
    if not finite.all():
        raise DomainError(f"{what} must be finite", ~finite)
    return x


def _softplus(t) -> np.ndarray:
    """log(1 + e^t) for float64 ``t``, as max(t, 0) + log1p(e^{-|t|}).

    The piecewise form numpy's scalar log-add-exp loop evaluates, written with
    the vectorized exp and log1p loops. The exponent is never positive, so
    nothing overflows. Returns a new array (0-d for a scalar ``t``); the steps
    run in place in it."""
    out = np.asarray(np.abs(t))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(t, 0.0)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Piecewise form: never exponentiates a positive argument.
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


@dataclass(frozen=True)
class _Link:
    """One link: ``f(x)``, its derivative ``df(x)`` (subgradient 0 at a kink),
    and its paired envelope ``s(x, |x|, gamma)``."""

    f: Callable
    df: Callable
    s: Callable


# The hinge-family envelopes are clamped at zero: the unclamped forms go
# negative on |x| < gamma and cannot dominate a nonnegative link there.
_LINKS = {
    ConvexLink.LOGISTIC: _Link(f=lambda x: _softplus(-x),
                               df=lambda x: _sigmoid(x) - 1.0,
                               s=lambda x, ax, g: ax + 2.0 * _softplus(3.0 * g)),
    ConvexLink.SQUARE: _Link(f=lambda x: x * x,
                             df=lambda x: 2.0 * x,
                             s=lambda x, ax, g: 2.0 * x * x + 2.0 * g * g),
    ConvexLink.HINGE: _Link(f=lambda x: np.maximum(0.0, -x),
                            df=lambda x: np.where(x < 0, -1.0, 0.0),
                            s=lambda x, ax, g: np.maximum(0.0, ax - g)),
    ConvexLink.SQUARED_HINGE: _Link(f=lambda x: np.maximum(0.0, -x) ** 2,
                                    df=lambda x: np.where(x < 0, 2.0 * x, 0.0),
                                    s=lambda x, ax, g: np.maximum(0.0, x * x - g * g)),
    # The sum-of-exponentials envelope matches f(x+g) + f(-x+g) bit-for-bit.
    ConvexLink.EXPONENTIAL: _Link(f=lambda x: np.exp(-x),
                                  df=lambda x: -np.exp(-x),
                                  s=lambda x, ax, g: np.exp(-ax - g) + np.exp(ax - g)),
}


def _result(out: np.ndarray):
    return out if out.ndim else float(out)


def eval_link(link: ConvexLink, x):
    """Evaluate the convex link at ``x``.

    logistic(x) = log(1 + e^-x), square(x) = x^2, hinge(x) = max(0, -x),
    squared_hinge(x) = max(0, -x)^2, exponential(x) = e^-x.
    Finite for every finite x; the logistic path only forms e^{-|x|}.
    """
    return _result(_LINKS[link].f(_check_finite(x)))


def link_deriv(link: ConvexLink, x):
    """Derivative of the link; kinked links use subgradient 0 at the kink."""
    return _result(_LINKS[link].df(_check_finite(x)))


@dataclass(frozen=True)
class BoundFn:
    """A link with margin ``gamma``, naming the paired envelope ``s``; an
    array ``gamma`` broadcasts against the envelope's argument."""

    link: ConvexLink
    gamma: float | np.ndarray = 0.0


def eval_bound(bound: BoundFn, x):
    """Evaluate the envelope ``s(|x|)`` paired with ``bound.link``.

    Pairings: logistic -> |x| + 2 log(1 + e^{3 gamma}); square -> 2x^2 + 2 gamma^2;
    hinge -> max(0, |x| - gamma); squared hinge -> max(0, x^2 - gamma^2);
    exponential -> e^{-|x| - gamma} + e^{|x| - gamma}  (= 2 e^-gamma cosh|x|).
    A non-finite ``x`` or ``gamma`` raises :class:`DomainError`.
    """
    x = _check_finite(x)
    gamma = _check_finite(bound.gamma, "envelope margin gamma")
    return _result(_LINKS[bound.link].s(x, np.abs(x), gamma))
