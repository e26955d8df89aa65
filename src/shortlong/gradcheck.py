"""Central-finite-difference validation of every analytic gradient path."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .links import ConvexLink
from .losses import (_METHODS, _RA_RESPONSES, GRAD_FIELDS, LogProbBundle, Method, MethodConfig,
                     RAMode, _reward_pass, grad_solopo, solopo_loss)
from .policy import BOS, EOS, SEP, ToyLM, Vocab, encode_prompts, pad_responses, score_rows

__all__ = ["relative_error", "random_bundle", "check_loss_gradients",
           "check_policy_gradients"]

_KINK_MARGIN = 1e-3
# The central-difference step of every check, reported as "h".
_H = 1e-5


def relative_error(analytic, numeric):
    """|a - f| scaled by max(1, |a|, |f|), elementwise; tolerant of true-zero components."""
    scale = np.maximum(np.maximum(1.0, np.abs(analytic)), np.abs(numeric))
    return np.abs(analytic - numeric) / scale


def _kink_distances(cfg: MethodConfig, b: LogProbBundle) -> list[np.ndarray]:
    """Distances to the nearest non-differentiable points of the total loss,
    one (n,) array per kink."""
    _, _, z, gaps, _ = _reward_pass(cfg, b)
    dists = []
    if cfg.link is ConvexLink.HINGE:
        dists.append(abs(z))
    if cfg.alpha > 0:
        if cfg.ra_mode is RAMode.KL_APPROX:
            dists.append(abs(b.lp_w_short - b.lp_w_long))
        elif not _METHODS[cfg.method].squared_gap:  # a squared gap has no kink
            dists += list(abs(gaps[:_RA_RESPONSES[cfg.ra_mode]]))
    return dists


def random_bundle(rng: np.random.Generator, cfg: MethodConfig, n: int,
                  kink_margin: float = _KINK_MARGIN) -> LogProbBundle:
    """``n`` random valid bundles as one bundle of (n,) arrays, each smooth in a
    ``kink_margin`` ball: the rows that fall inside it are redrawn."""
    names = GRAD_FIELDS if cfg.needs_reference else GRAD_FIELDS[:4]
    fields = {name: np.empty(n) for name in names}
    fields.update(len_w=np.empty(n, dtype=np.int64), len_l=np.empty(n, dtype=np.int64))
    redraw = np.arange(n)
    while redraw.size:
        for name in names:
            fields[name][redraw] = rng.uniform(-12.0, -0.5, redraw.size)
        for name in ("len_w", "len_l"):
            fields[name][redraw] = rng.integers(1, 9, redraw.size)
        b = LogProbBundle(**fields)
        redraw = np.flatnonzero(np.any([d <= kink_margin for d in _kink_distances(cfg, b)],
                                       axis=0))
    return b


def fd_gradient(cfg: MethodConfig, b: LogProbBundle) -> dict:
    """Independent numerical gradient of the total loss over the lp fields
    (elementwise, so a stacked bundle is differentiated point by point)."""
    grads = {}
    for name in GRAD_FIELDS:
        base = getattr(b, name)
        if base is None:
            grads[name] = 0.0
            continue
        up = solopo_loss(cfg, replace(b, **{name: base + _H})).total
        down = solopo_loss(cfg, replace(b, **{name: base - _H})).total
        grads[name] = (up - down) / (2.0 * _H)
    return grads


def check_loss_gradients(n_points: int, seed: int) -> dict:
    """Max relative error of grad_solopo vs finite differences per method x
    alignment-mode combo; the points of one combo are checked in one array
    call of each."""
    if n_points < 1:
        raise ValueError("grad-check needs at least one point per combo")
    report = {"h": _H, "points_per_combo": n_points, "combos": {}, "max_relative_error": 0.0}
    for method in Method:
        for mode in RAMode:
            rng = np.random.default_rng([seed, list(Method).index(method),
                                         list(RAMode).index(mode)])
            cfg = MethodConfig(method, ra_mode=mode,
                               alpha=float(rng.uniform(0.2, 4.0)),
                               gamma=float(rng.uniform(-1.0, 1.0)),
                               eta=float(rng.uniform(0.5, 3.0)))
            b = random_bundle(rng, cfg, n_points)
            analytic = grad_solopo(cfg, b)
            numeric = fd_gradient(cfg, b)
            worst = max(float(np.max(relative_error(analytic[k], numeric[k])))
                        for k in GRAD_FIELDS)
            key = f"{method.value}/{mode.value}"
            report["combos"][key] = worst
            report["max_relative_error"] = max(report["max_relative_error"], worst)
    return report


def _tiny_world(seed: int) -> tuple[ToyLM, list[list[str]], list[list[str]]]:
    """A tiny model, two prompts (the short and the long context) and two
    responses of different lengths (y_w and y_l)."""
    vocab = Vocab((BOS, EOS, SEP, "t0", "t1", "t2", "t3", "t4", "t5", "t6"))
    model = ToyLM(vocab, hidden_dim=8, seed=seed)
    rng = np.random.default_rng(seed)
    words = ["t0", "t1", "t2", "t3", "t4", "t5", "t6"]
    prompts = [[words[int(i)] for i in rng.integers(0, len(words), n)] for n in (4, 8)]
    responses = [[words[int(i)] for i in rng.integers(0, len(words), n)] + [EOS]
                 for n in (3, 2)]
    return model, prompts, responses


def check_policy_gradients(seed: int) -> dict:
    """FD-validate backprop through the scorer composed with the loss, in the
    training layout: two prompts with the two responses each, so the
    gradient of each prompt's pooled context sums over its two rows. The rows
    are encoded once, and each evaluation is one scorer pass, whose
    ``backward`` gives the analytic gradient at the unperturbed point."""
    model, prompts, responses = _tiny_world(seed)
    cfg = MethodConfig(Method.ORPO, alpha=1.0)
    rows = (encode_prompts(model.vocab, prompts),
            *pad_responses([model.vocab.encode(r) for r in responses * 2]))
    len_w, len_l = map(len, responses)

    def scored():
        """The loss breakdown of one scorer pass, and that pass's ``backward``."""
        per_token, backward = score_rows(model, *rows)
        lps = per_token.sum(axis=1)
        b = LogProbBundle(*lps, len_w=len_w, len_l=len_l)
        return solopo_loss(cfg, b), backward

    breakdown, backward = scored()
    analytic = backward(np.array([breakdown.grads[k] for k in GRAD_FIELDS[:4]]))
    worst = 0.0
    for name, arr in model.params.items():
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + _H
            up = scored()[0].total
            flat[i] = keep - _H
            down = scored()[0].total
            flat[i] = keep
            worst = max(worst, float(relative_error(float(analytic[name].ravel()[i]),
                                                    (up - down) / (2.0 * _H))))
    return {"h": _H, "max_relative_error": worst}
