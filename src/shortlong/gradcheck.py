"""Central-finite-difference validation of every analytic gradient path."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from .forge import ForgedSample
from .losses import (LogProbBundle, Method, MethodConfig, RAMode, grad_solopo, kink_distances,
                     solopo_loss)
from .policy import BOS, EOS, SEP, ToyLM, Vocab, assemble_prompt, logprob
from .training import _prepare, step_gradients

__all__ = ["relative_error", "random_bundle", "check_loss_gradients",
           "check_step_gradients"]

_KINK_MARGIN = 1e-3
# The central-difference step of every check, reported as "h".
_H = 1e-5


def relative_error(analytic, numeric):
    """|a - f| scaled by max(1, |a|, |f|), elementwise; tolerant of true-zero components."""
    scale = np.maximum(np.maximum(1.0, np.abs(analytic)), np.abs(numeric))
    return np.abs(analytic - numeric) / scale


def random_bundle(rng: np.random.Generator, cfg: MethodConfig, n: int,
                  kink_margin: float = _KINK_MARGIN) -> LogProbBundle:
    """``n`` random valid bundles as one bundle of (4, n) arrays, each smooth in
    a ``kink_margin`` ball: the records that fall inside it are redrawn."""
    lp, ref = np.empty((4, n)), np.empty((4, n)) if cfg.needs_reference else None
    lens = np.empty((4, n), dtype=np.int64)
    redraw = np.arange(n)
    while redraw.size:
        for stack in (lp,) if ref is None else (lp, ref):
            stack[:, redraw] = rng.uniform(-12.0, -0.5, (4, redraw.size))
        for row in lens[:2]:  # len_w, then len_l
            row[redraw] = rng.integers(1, 9, redraw.size)
        lens[2:] = lens[:2]
        b = LogProbBundle(lp, lens, ref)
        redraw = np.flatnonzero(np.any([d <= kink_margin for d in kink_distances(cfg, b)],
                                       axis=0))
    return b


def fd_gradient(cfg: MethodConfig, b: LogProbBundle) -> np.ndarray:
    """Independent numerical gradient of the total loss over the four lp rows,
    laid out as :func:`grad_solopo`'s (elementwise, so a stacked bundle is
    differentiated point by point)."""
    def total(i: int, h: float):
        lp = b.lp.copy()
        lp[i] += h
        return solopo_loss(cfg, replace(b, lp=lp)).total
    return np.array([(total(i, _H) - total(i, -_H)) / (2.0 * _H) for i in range(len(b.lp))])


def check_loss_gradients(n_points: int, seed: int) -> dict:
    """Max relative error of grad_solopo vs finite differences per method x
    alignment-mode combo; the points of one combo are checked in one array
    call of each."""
    if n_points < 1:
        raise ValueError("grad-check needs at least one point per combo")
    combos = {}
    for (i, method), (j, mode) in itertools.product(enumerate(Method), enumerate(RAMode)):
        rng = np.random.default_rng([seed, i, j])
        cfg = MethodConfig(method, ra_mode=mode, alpha=float(rng.uniform(0.2, 4.0)),
                           gamma=float(rng.uniform(-1.0, 1.0)), eta=float(rng.uniform(0.5, 3.0)))
        b = random_bundle(rng, cfg, n_points)
        combos[f"{method.value}/{mode.value}"] = float(
            np.max(relative_error(grad_solopo(cfg, b), fd_gradient(cfg, b))))
    return {"h": _H, "points_per_combo": n_points, "combos": combos,
            "max_relative_error": max(combos.values())}


# The random unit directions along which check_step_gradients differentiates
# each combo, as JAX's check_grads does (a per-coordinate sweep is far slower).
_DIRECTIONS = 8


def _tiny_world(rng: np.random.Generator) -> tuple[ToyLM, ToyLM, list[ForgedSample]]:
    """A tiny policy, a tiny reference and two records with contexts of 4 and
    8 tokens and responses of 3 and 2. ToyLM's near-uniform start puts every
    alignment gap within a kink margin, so the models start at 10 times it."""
    vocab = Vocab((BOS, EOS, SEP) + tuple(f"t{i}" for i in range(7)))
    models = [ToyLM(vocab, hidden_dim=8, seed=int(s)) for s in rng.integers(2 ** 31, size=2)]
    for array in (a for model in models for a in model.params.values()):
        array *= 10.0
    texts = [" ".join(rng.choice(vocab.tokens[3:], n)) for _ in range(2) for n in (2, 4, 8, 3, 2)]
    return models[0], models[1], [ForgedSample(texts[i], "", *texts[i + 1:i + 5]) for i in (0, 5)]


def _fields(model: ToyLM, records: list[ForgedSample], po_context: str) -> np.ndarray:
    """The (n, 4) log-prob fields of the records by definition: each
    response's :func:`logprob` under ``assemble_prompt(context, question)``,
    the PO context's first."""
    return np.array([[logprob(model, assemble_prompt(context, r.question),
                              y.split() + [EOS]).total_logprob
                      for context in (r.x_long if po_context == "long" else r.x_short, r.x_long)
                      for y in (r.y_w, r.y_l)] for r in records])


def _bundle(model: ToyLM, records: list[ForgedSample], po_context: str,
            refs: np.ndarray | None) -> LogProbBundle:
    lens = np.array([[len(y.split()) + 1 for y in (r.y_w, r.y_l) * 2] for r in records])
    return LogProbBundle(_fields(model, records, po_context).T, lens.T,
                         None if refs is None else refs.T)


def check_step_gradients(seed: int) -> dict:
    """Max relative error of :func:`~shortlong.training.step_gradients` on a
    two-record batch against central differences of its mean ``total`` along
    ``_DIRECTIONS`` random unit directions, per method x alignment mode x
    ``po_context``. The differences score each field by :func:`_fields`, not
    through the step's rows. A world within ``_KINK_MARGIN`` of a kink is
    redrawn; under ``po_context="long"`` the gaps are identically 0, no kink."""
    combos = {}
    for (i, method), (j, mode), (k, po_context) in itertools.product(
            enumerate(Method), enumerate(RAMode), enumerate(("short", "long"))):
        for attempt in itertools.count():
            rng = np.random.default_rng([seed, i, j, k, attempt])
            cfg = MethodConfig(method, ra_mode=mode, alpha=float(rng.uniform(0.2, 4.0)),
                               gamma=float(rng.uniform(-1, 1)), eta=float(rng.uniform(0.5, 3)))
            model, reference, records = _tiny_world(rng)
            refs = _fields(reference, records, po_context) if cfg.needs_reference else None
            kinks = cfg if po_context == "short" else replace(cfg, alpha=0.0)
            if all((d > _KINK_MARGIN).all()
                   for d in kink_distances(kinks, _bundle(model, records, po_context, refs))):
                break
        rows = replace(_prepare(records, model.vocab, po_context), refs=refs)
        grads = step_gradients(model, cfg, rows, np.arange(len(records)), 0)[2]
        worst = 0.0
        for _ in range(_DIRECTIONS):
            u = {name: rng.normal(size=p.shape) for name, p in model.params.items()}
            norm = np.sqrt(sum(np.vdot(v, v) for v in u.values()))
            u = {name: v / norm for name, v in u.items()}  # a unit direction
            up, down = (solopo_loss(cfg, _bundle(ToyLM(model.vocab, model.hidden_dim, _params={
                name: p + sign * _H * u[name] for name, p in model.params.items()}),
                records, po_context, refs)).total.mean() for sign in (1, -1))
            analytic = sum(np.vdot(grads[name], u[name]) for name in u)
            worst = max(worst, float(relative_error(analytic, (up - down) / (2.0 * _H))))
        combos[f"{method.value}/{mode.value}/{po_context}"] = worst
    return {"h": _H, "directions_per_combo": _DIRECTIONS, "combos": combos,
            "max_relative_error": max(combos.values())}
