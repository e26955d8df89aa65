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

__all__ = ["ConvexLink", "DomainError", "eval_link", "link_value_and_deriv", "eval_bound"]


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


def _logistic_value_and_deriv(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log(1 + e^-x), -1 / (1 + e^x)) from one e^{-|x|}: the value as
    ``_softplus(-x)`` forms it, the slope as 1/(1 + e) - 1 for x >= 0 and
    e/(1 + e) - 1 for x < 0, so no positive argument is exponentiated."""
    e = np.exp(-np.abs(x))
    return np.log1p(e) + np.maximum(-x, 0.0), np.where(x >= 0, 1.0, e) / (1.0 + e) - 1.0


@dataclass(frozen=True)
class _Link:
    """One link: ``f(x)``, the pair ``fdf(x)`` = (f(x), f'(x)) (subgradient 0
    at a kink), and its paired envelope ``s(x, |x|, gamma)``."""

    f: Callable
    fdf: Callable
    s: Callable


# The hinge-family envelopes are clamped at zero: the unclamped forms go
# negative on |x| < gamma and cannot dominate a nonnegative link there.
_LINKS = {
    ConvexLink.LOGISTIC: _Link(f=lambda x: _softplus(-x),
                               fdf=_logistic_value_and_deriv,
                               s=lambda x, ax, g: ax + 2.0 * _softplus(3.0 * g)),
    ConvexLink.SQUARE: _Link(f=lambda x: x * x,
                             fdf=lambda x: (x * x, 2.0 * x),
                             s=lambda x, ax, g: 2.0 * x * x + 2.0 * g * g),
    ConvexLink.HINGE: _Link(f=lambda x: np.maximum(0.0, -x),
                            fdf=lambda x: (np.maximum(0.0, -x), np.where(x < 0, -1.0, 0.0)),
                            s=lambda x, ax, g: np.maximum(0.0, ax - g)),
    ConvexLink.SQUARED_HINGE: _Link(f=lambda x: np.maximum(0.0, -x) ** 2,
                                    fdf=lambda x: (np.maximum(0.0, -x) ** 2,
                                                   np.where(x < 0, 2.0 * x, 0.0)),
                                    s=lambda x, ax, g: np.maximum(0.0, x * x - g * g)),
    # The sum-of-exponentials envelope matches f(x+g) + f(-x+g) bit-for-bit.
    ConvexLink.EXPONENTIAL: _Link(f=lambda x: np.exp(-x),
                                  fdf=lambda x: (np.exp(-x), -np.exp(-x)),
                                  s=lambda x, ax, g: np.exp(-ax - g) + np.exp(ax - g)),
}


def _result(out):
    """A 0-d result (array, numpy scalar or float) as a float; arrays pass through."""
    return out if np.ndim(out) else float(out)


def eval_link(link: ConvexLink, x):
    """Evaluate the convex link at ``x``.

    logistic(x) = log(1 + e^-x), square(x) = x^2, hinge(x) = max(0, -x),
    squared_hinge(x) = max(0, -x)^2, exponential(x) = e^-x.
    Finite for every finite x; the logistic path only forms e^{-|x|}.
    """
    return _result(_LINKS[link].f(_check_finite(x)))


def link_value_and_deriv(link: ConvexLink, x) -> tuple:
    """``(eval_link(link, x), f'(x))`` with one finiteness check; kinked links
    use subgradient 0 at the kink."""
    value, slope = _LINKS[link].fdf(_check_finite(x))
    return _result(value), _result(slope)


def eval_bound(link: ConvexLink, x, gamma=0.0):
    """Evaluate the envelope ``s(|x|)`` paired with ``link`` at margin
    ``gamma``; an array ``gamma`` broadcasts against ``x``.

    Pairings: logistic -> |x| + 2 log(1 + e^{3 gamma}); square -> 2x^2 + 2 gamma^2;
    hinge -> max(0, |x| - gamma); squared hinge -> max(0, x^2 - gamma^2);
    exponential -> e^{-|x| - gamma} + e^{|x| - gamma}  (= 2 e^-gamma cosh|x|).
    A non-finite ``x`` or ``gamma`` raises :class:`DomainError`.
    """
    x = _check_finite(x)
    gamma = _check_finite(gamma, "envelope margin gamma")
    return _result(_LINKS[link].s(x, np.abs(x), gamma))
