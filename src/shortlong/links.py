"""Convex link functions and their paired margin-envelope bounds.

A link ``f`` turns a reward margin into a loss; each link is paired with an
envelope ``s`` satisfying ``f(x + gamma) + f(-x + gamma) <= s(|x|)``, which is
what licenses replacing a pair of opposed margin losses by a single
absolute-gap penalty. All evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


def _check_finite(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x)
    if not finite.all():
        raise DomainError("link argument must be finite", ~finite)
    return x


def eval_link(link: ConvexLink, x):
    """Evaluate the convex link at ``x``.

    logistic(x) = log(1 + e^-x), square(x) = x^2, hinge(x) = max(0, -x),
    squared_hinge(x) = max(0, -x)^2, exponential(x) = e^-x.
    Stable for |x| up to ~700; the logistic path never forms e^-x directly.
    """
    x = _check_finite(x)
    if link is ConvexLink.LOGISTIC:
        out = np.logaddexp(0.0, -x)
    elif link is ConvexLink.SQUARE:
        out = x * x
    elif link is ConvexLink.HINGE:
        out = np.maximum(0.0, -x)
    elif link is ConvexLink.SQUARED_HINGE:
        out = np.maximum(0.0, -x) ** 2
    elif link is ConvexLink.EXPONENTIAL:
        out = np.exp(-x)
    else:  # pragma: no cover
        raise ValueError(f"unknown link {link!r}")
    return out if out.ndim else float(out)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Piecewise form: never exponentiates a positive argument.
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


def link_deriv(link: ConvexLink, x):
    """Derivative of the link; kinked links use subgradient 0 at the kink."""
    x = _check_finite(x)
    if link is ConvexLink.LOGISTIC:
        out = _sigmoid(x) - 1.0
    elif link is ConvexLink.SQUARE:
        out = 2.0 * x
    elif link is ConvexLink.HINGE:
        out = np.where(x < 0, -1.0, 0.0)
    elif link is ConvexLink.SQUARED_HINGE:
        out = np.where(x < 0, 2.0 * x, 0.0)
    elif link is ConvexLink.EXPONENTIAL:
        out = -np.exp(-x)
    else:  # pragma: no cover
        raise ValueError(f"unknown link {link!r}")
    return out if out.ndim else float(out)


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

    The hinge-family envelopes are clamped at zero: the unclamped forms go
    negative on |x| < gamma and cannot dominate a nonnegative link there.
    """
    x = _check_finite(x)
    g = np.asarray(bound.gamma, dtype=np.float64)
    ax = np.abs(x)
    link = bound.link
    if link is ConvexLink.LOGISTIC:
        out = ax + 2.0 * np.logaddexp(0.0, 3.0 * g)
    elif link is ConvexLink.SQUARE:
        out = 2.0 * x * x + 2.0 * g * g
    elif link is ConvexLink.HINGE:
        out = np.maximum(0.0, ax - g)
    elif link is ConvexLink.SQUARED_HINGE:
        out = np.maximum(0.0, x * x - g * g)
    elif link is ConvexLink.EXPONENTIAL:
        # Sum-of-exponentials form matches f(x+g) + f(-x+g) bit-for-bit.
        out = np.exp(-ax - g) + np.exp(ax - g)
    else:  # pragma: no cover
        raise ValueError(f"unknown link {link!r}")
    return out if out.ndim else float(out)
