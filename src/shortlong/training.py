"""Deterministic optimization loop for the toy policy.

Adam (no weight decay), linear warmup into a cosine decay to zero,
per-step loss-component telemetry (long-context reward margin and rejected
log-prob), and substring-exact-match evaluation under either context variant.
The entire trajectory is a function of (dataset, config, seed).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import asdict, astuple, dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .forge import ForgedSample, sub_em
from .links import DomainError
from .losses import GRAD_FIELDS, LossBreakdown, MethodConfig, solopo_stack
from .policy import (EOS, ToyLM, Vocab, assemble_prompt, decode_rows, encode_prompts,
                     pad_responses, score_rows)
# An alias of policy.logprob, kept importable from here: perfbench/selftest.py
# checks that the tracer patches it.
from .policy import logprob  # noqa: F401

__all__ = [
    "TrainConfig",
    "StepRecord",
    "EvalRecord",
    "TrainLog",
    "NonFiniteLossError",
    "strict_json",
    "AdamW",
    "learning_rate",
    "assemble_prompt",
    "step_gradients",
    "train",
    "evaluate",
    "RunResult",
    "ComparisonReport",
    "run_comparison",
]


@dataclass
class TrainConfig:
    method_cfg: MethodConfig
    lr_max: float = 1e-2
    warmup_ratio: float = 0.1
    batch_size: int = 16
    epochs: int = 1
    seed: int = 0
    eval_every: int = 0          # 0 disables mid-run evaluation
    po_context: str = "short"    # which variant the preference term reads
    telemetry: bool = True       # log reward_margin_long and lp_rejected_long

    def __post_init__(self) -> None:
        if not 0 <= self.lr_max < math.inf:
            raise ValueError(f"lr_max must be finite and nonnegative, got {self.lr_max}")
        if not 0 <= self.warmup_ratio < 1:
            raise ValueError("warmup_ratio must lie in [0, 1)")
        for name, least in (("batch_size", 1), ("epochs", 1), ("eval_every", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.po_context not in ("short", "long"):
            raise ValueError("po_context must be 'short' or 'long'")


@dataclass
class StepRecord:
    step: int
    lr: float
    total: float
    po_term: float
    ra_term: float
    nll_term: float
    reward_margin_long: float
    lp_rejected_long: float


@dataclass
class EvalRecord:
    step: int
    short_acc: float
    long_acc: float


class TrainLog:
    """Step s writes its six term rows, one value per record of its batch, into
    ``terms[s - 1, :, :sizes[s - 1]]``; ``steps`` builds the records when read."""

    def __init__(self, rates: Sequence[float], sizes: Sequence[int]):
        self.rates, self.sizes, self.evals = rates, sizes, []
        self.terms = np.full((len(sizes), 6, max(sizes)), np.nan)

    @property
    def steps(self) -> list[StepRecord]:
        return [StepRecord(step, lr, *terms[:, :n].mean(axis=1).tolist())
                for step, (lr, n, terms) in enumerate(zip(self.rates, self.sizes, self.terms), 1)]

    def write_csv(self, path: str | Path) -> None:
        _write_csv(path, StepRecord.__dataclass_fields__, map(astuple, self.steps))

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(strict_json({"steps": list(map(asdict, self.steps)),
                                           "evals": list(map(asdict, self.evals))}))


def _write_csv(path: str | Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def strict_json(payload) -> str:
    """Sorted JSON of ``payload``, each non-finite float as "nan", "inf" or "-inf"."""
    def finite(value):
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        if isinstance(value, list):
            return list(map(finite, value))
        return str(value) if isinstance(value, float) and not math.isfinite(value) else value
    return json.dumps(finite(payload), sort_keys=True, allow_nan=False)


class NonFiniteLossError(RuntimeError):
    """Raised when a step produces a non-finite loss; carries diagnostics."""

    def __init__(self, message: str, diagnostic: dict):
        super().__init__(message)
        self.diagnostic = diagnostic


class AdamW:
    """Adam moments (beta1 0.9, beta2 0.999, eps 1e-8) over a dict of arrays,
    with weight decay 0. A step updates the moments and the parameters in
    place, with the float operations of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g`` and ``p -= lr * (m_hat / (sqrt(v_hat) + eps))``
    for the ``grads`` the caller wrote; it never writes into ``grads``.

    The parameters, the moments and the gradients each live in one flat
    buffer, so a step is one pass of each operation over all of them: on
    construction every ``params[k]`` is copied into the buffer and rebound to
    a view of it (as ``grads[k]``, ``m[k]`` and ``v[k]`` are), so an array
    taken from ``params`` before then no longer follows the updates."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = params
        self.t = 0
        flat = np.concatenate([p.ravel() for p in params.values()])
        self._p, self._g, self._m, self._v, self._step, self._denom = (
            flat, *(np.zeros_like(flat) for _ in range(5)))
        self.grads, self.m, self.v = {}, {}, {}
        start = 0
        for key, p in params.items():
            span = slice(start, start + p.size)
            start = span.stop
            params[key], self.grads[key], self.m[key], self.v[key] = (
                buf[span].reshape(p.shape) for buf in (self._p, self._g, self._m, self._v))

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        g, m, v, step, denom = self._g, self._m, self._v, self._step, self._denom
        m *= b1
        m += np.multiply(g, 1 - b1, out=step)
        v *= b2
        np.multiply(g, 1 - b2, out=step)
        v += np.multiply(step, g, out=step)
        np.sqrt(np.divide(v, c2, out=denom), out=denom)
        denom += 1e-8
        np.divide(m, c1, out=step)
        step /= denom
        step *= lr
        self._p -= step


def learning_rate(step: int, total_steps: int, lr_max: float,
                  warmup_ratio: float) -> float:
    """Linear warmup to ``lr_max`` at step ceil(ratio * T), cosine to 0 at T."""
    warmup = math.ceil(warmup_ratio * total_steps)
    if step <= warmup:
        return lr_max * step / warmup if warmup else lr_max
    if total_steps == warmup:
        return lr_max
    progress = (step - warmup) / (total_steps - warmup)
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * progress))


# The loss terms a step logs and an abort reports.
_TERMS = ("total", "po_term", "ra_term", "nll_term")


# Encoding depends only on the vocabulary's tokens and the texts, so the last
# 16 distinct eval prompt lists and datasets are memoized, read-only, under
# those values: equal vocabularies share entries, and a changed record encodes again.
@functools.lru_cache(maxsize=16)
def _prompt_rows(vocab: Vocab, pairs: tuple[tuple[str, str], ...]) -> np.ndarray:
    """The read-only (n, V) :func:`~shortlong.policy.encode_prompts` rows of n
    (context, question) pairs."""
    rows = encode_prompts(vocab, (assemble_prompt(c, q) for c, q in pairs))
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class _Rows:
    """Every record's two prompts, the PO prompt and the long prompt, and its
    four scoring rows: (PO prompt, y_w), (PO prompt, y_l), (long prompt, y_w),
    (long prompt, y_l), the log-prob fields ``GRAD_FIELDS`` in order, so
    that each prompt owns two consecutive rows; and, for a method that reads
    a reference, the reference's log-probs of those fields. Every field is
    indexed along the records first."""

    counts: np.ndarray    # (n, 2, V) prompt bags of tokens
    resp_ids: np.ndarray  # (n, 4, T) padded response ids
    mask: np.ndarray      # (n, 4, T) real response positions
    lens: np.ndarray      # (n, 4) response token counts (EOS included, so >= 1), as floats
    refs: np.ndarray | None = None  # (n, 4) reference log-probs

    def __getitem__(self, index) -> _Rows:
        """The rows of the records ``index`` selects; a slice gives views."""
        return _Rows(*[None if a is None else a[index] for a in vars(self).values()])

    def score(self, model: ToyLM) -> tuple[np.ndarray, Callable]:
        """``(lps, backward)``: the (n, 4) log-prob fields under ``model``
        from one :func:`score_rows` pass, and that pass's ``backward``, which
        takes the 4n row weights in record-major order."""
        per_token, backward = score_rows(
            model, *(a.reshape(-1, a.shape[-1]) for a in (self.counts, self.resp_ids, self.mask)))
        return per_token.sum(axis=1).reshape(-1, 4), backward


# The record fields training reads; they key a dataset's memoized rows.
_TEXTS = attrgetter("question", "x_short", "x_long", "y_w", "y_l")


def _prepare(dataset: Sequence[ForgedSample], vocab: Vocab, po_context: str) -> _Rows:
    """Encode each prompt and response once, into read-only rows (a long PO
    prompt is a view of the long prompt's row); an out-of-vocabulary token
    fails here, naming its record."""
    rows = _encode_dataset(vocab, tuple(map(_TEXTS, dataset)))
    return (replace(rows, counts=np.broadcast_to(rows.counts[:, 1:], rows.counts.shape))
            if po_context == "long" else rows)


@functools.lru_cache(maxsize=16)
def _encode_dataset(vocab: Vocab, texts: tuple[tuple[str, str, str, str, str], ...]) -> _Rows:
    """The rows of the ``_TEXTS`` of n records, the short prompt as the PO prompt."""
    counts = np.stack([encode_prompts(vocab, (assemble_prompt(t[side], t[0]) for t in texts))
                       for side in (1, 2)], axis=1)  # x_short, then x_long
    responses = []
    try:
        for i, (*_, y_w, y_l) in enumerate(texts):  # as (y_w, y_l, y_w, y_l)
            responses += [vocab.encode(y.split() + [EOS]) for y in (y_w, y_l)] * 2
    except ValueError as exc:
        raise ValueError(f"record {i}: {exc}") from None
    ids, mask = pad_responses(responses)
    arrays = (counts, *(a.reshape(len(texts), 4, a.shape[1]) for a in (ids, mask)),
              mask.sum(axis=1).reshape(-1, 4).astype(np.float64))
    for array in arrays:
        array.setflags(write=False)
    return _Rows(*arrays)


def _non_finite(message: str, step: int, sample_index: int, **detail) -> NonFiniteLossError:
    """The abort of one step, naming the step and the offending record."""
    return NonFiniteLossError(f"{message} at step {step}, sample {sample_index}",
                              {"step": step, "sample_index": sample_index, **detail})


def step_gradients(model: ToyLM, method_cfg: MethodConfig, batch: _Rows, records: np.ndarray,
                   step: int, out: dict | None = None) -> tuple[LossBreakdown, np.ndarray, dict]:
    """``(breakdown, lp_l_long, grads)`` of the n records of ``batch``: one
    :meth:`_Rows.score` pass, one :func:`solopo_stack` call, and that pass's
    ``backward`` into ``out`` with the field gradients over n as row weights,
    the gradient of the mean ``total``. A non-finite score or loss, or an ORPO
    log-odds singularity, raises :class:`NonFiniteLossError` naming ``step``
    and the record's dataset index from ``records``."""
    n = len(records)
    lps, backward = batch.score(model)
    bad = ~np.isfinite(lps)
    if bad.any():
        j = int(np.flatnonzero(bad.any(axis=1))[0])
        values = {k: float(v) for k, v, b in zip(GRAD_FIELDS, lps[j], bad[j]) if b}
        raise _non_finite(f"non-finite log-probability in {list(values)}", step,
                          int(records[j]), fields=list(values), values=values)
    lp = lps.T.copy()  # contiguous, as the kernel's small ufuncs run fastest
    try:
        breakdown = solopo_stack(method_cfg, lp, batch.lens.T,
                                 None if batch.refs is None else batch.refs.T)
    except DomainError as exc:  # the ORPO log-odds singularity, in a (4, n) stack
        raise _non_finite(str(exc), step, int(records[exc.index % n]), error=str(exc)) from exc
    if not np.isfinite(breakdown.total).all():
        j = int(np.flatnonzero(~np.isfinite(breakdown.total))[0])
        terms = {k: float(np.broadcast_to(getattr(breakdown, k), n)[j]) for k in _TERMS}
        raise _non_finite("non-finite loss", step, int(records[j]), breakdown=terms)
    return breakdown, lp[3], backward((breakdown.grads.T * (1.0 / n)).ravel(), out)


def train(model: ToyLM, dataset: Sequence[ForgedSample], cfg: TrainConfig,
          vocab: Vocab, eval_set: Sequence[ForgedSample] | None = None
          ) -> tuple[ToyLM, TrainLog]:
    """Run the optimization loop; returns the mutated model and its log.

    Each step is one :func:`step_gradients` call into the AdamW gradients,
    one AdamW step and one slot of the :class:`TrainLog`. With an ``eval_set``, one
    :class:`EvalRecord` is logged at every ``eval_every``-th step and at the
    last step; an empty ``eval_set`` fails before the first step. ``vocab``
    must be the model's vocabulary. A positive ``lr_max`` whose schedule is
    0 at every step (one step with ``warmup_ratio`` 0) raises ValueError.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if eval_set is not None and not eval_set:
        raise ValueError("eval set must be non-empty")
    if vocab != model.vocab:
        raise ValueError("vocab differs from the model's vocabulary")
    starts = range(0, len(dataset), cfg.batch_size)
    total_steps = len(starts) * cfg.epochs
    rates = [learning_rate(s, total_steps, cfg.lr_max, cfg.warmup_ratio)
             for s in range(1, total_steps + 1)]
    if cfg.lr_max > 0 and not any(rates):
        raise ValueError(f"with warmup_ratio {cfg.warmup_ratio} the learning rate is 0 at "
                         f"every step (of {total_steps}); raise warmup_ratio or the step count")
    mc = cfg.method_cfg
    rows = _prepare(dataset, model.vocab, cfg.po_context)
    if mc.needs_reference:  # the reference (the model before any step) is scored once
        rows = replace(rows, refs=rows.score(model)[0])
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.params)
    log = TrainLog(rates, [min(cfg.batch_size, len(dataset) - s) for s in starts] * cfg.epochs)
    step = 0
    for _ in range(cfg.epochs):
        # The epoch's rows in permuted order, gathered once; a step reads a slice.
        order = rng.permutation(len(dataset))
        epoch = rows[order]
        for start in starts:
            step += 1
            at = slice(start, start + cfg.batch_size)
            chunk = order[at]
            breakdown, lp_l_long, _ = step_gradients(model, mc, epoch[at], chunk, step, opt.grads)
            opt.step(rates[step - 1])
            # A scalar term (a disabled NLL) fills its row; no telemetry leaves two NaN.
            terms = [getattr(breakdown, k) for k in _TERMS]
            if cfg.telemetry:
                terms += [breakdown.reward_margin_long, lp_l_long]
            for row, term in zip(log.terms[step - 1, :, :len(chunk)], terms):
                row[...] = term
            if eval_set is not None and (step == total_steps or
                                         cfg.eval_every and step % cfg.eval_every == 0):
                log.evals.append(EvalRecord(step, *(evaluate(model, eval_set, kind, vocab)
                                                    for kind in ("short", "long"))))
    return model, log


def evaluate(model: ToyLM, eval_set: Sequence[ForgedSample], context_kind: str,
             vocab: Vocab, max_len: int = 4) -> float:
    """Greedy-decode accuracy under substring exact match: the prompts'
    memoized rows are decoded together in one :func:`decode_rows` call and
    graded from the returned token ids with one :func:`sub_em` call per
    distinct (decoded ids, answer) pair. ``vocab`` must be the model's
    vocabulary."""
    if vocab != model.vocab:
        raise ValueError("vocab differs from the model's vocabulary")
    if context_kind not in ("short", "long"):
        raise ValueError("context_kind must be 'short' or 'long'")
    if not eval_set:
        raise ValueError("eval set must be non-empty")
    counts = _prompt_rows(vocab, tuple((s.x_short if context_kind == "short" else s.x_long,
                                        s.question) for s in eval_set))
    ids, lengths = decode_rows(model, counts, max_len)
    tokens, eos = vocab.tokens, vocab.eos_id
    keys = [(tuple(row[:n]), s.answer)
            for row, n, s in zip(ids.tolist(), lengths.tolist(), eval_set)]
    # One sub_em call per distinct key, on its ScoredSequence.text (EOS dropped).
    hit = {key: sub_em(" ".join(tokens[t] for t in key[0] if t != eos), key[1])
           for key in set(keys)}
    return sum(map(hit.__getitem__, keys)) / len(keys)


@dataclass
class RunResult:
    label: str
    seed: int
    short_acc: float
    long_acc: float
    log: TrainLog


@dataclass
class ComparisonReport:
    rows: list[RunResult]

    def aggregates(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        labels = sorted({r.label for r in self.rows})
        for label in labels:
            short = np.array([r.short_acc for r in self.rows if r.label == label])
            long_ = np.array([r.long_acc for r in self.rows if r.label == label])
            out[label] = {
                "n": int(short.size),
                "short_mean": float(short.mean()), "short_std": float(short.std(ddof=1)) if short.size > 1 else 0.0,
                "long_mean": float(long_.mean()), "long_std": float(long_.std(ddof=1)) if long_.size > 1 else 0.0,
            }
        return out

    def write_csv(self, path: str | Path) -> None:
        _write_csv(path, ["label", "seed", "short_acc", "long_acc"],
                   ([r.label, r.seed, r.short_acc, r.long_acc] for r in self.rows))

    def write_margins_csv(self, path: str | Path) -> None:
        """Plot-ready wide table: one long-margin column per run."""
        columns = {f"{r.label}#seed{r.seed}": [s.reward_margin_long for s in r.log.steps]
                   for r in self.rows}
        _write_csv(path, ["step", *columns], ([i, *row] for i, row in enumerate(
            itertools.zip_longest(*columns.values(), fillvalue=""), 1)))

    def write_json(self, path: str | Path) -> None:
        payload = {"rows": [{"label": r.label, "seed": r.seed,
                             "short_acc": r.short_acc, "long_acc": r.long_acc}
                            for r in self.rows],
                   "aggregates": self.aggregates()}
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def run_comparison(configs: Sequence[tuple[str, TrainConfig]], dataset: Sequence[ForgedSample],
                   eval_set: Sequence[ForgedSample], starts: dict[int, ToyLM]
                   ) -> ComparisonReport:
    """Train every (config, seed) cell from a clone of ``starts[seed]`` with
    the config's seed set to ``seed``, and evaluate on ``eval_set``. The
    starts must share one vocabulary, so that every cell is scored over the
    same tokens; an empty ``eval_set`` fails before any cell trains."""
    vocabs = {model.vocab for model in starts.values()}
    if len(vocabs) != 1:
        raise ValueError("starts must hold at least one model, all with one vocabulary")
    if not eval_set:
        raise ValueError("eval set must be non-empty")
    (vocab,) = vocabs
    rows = []
    for label, cfg in configs:
        for seed, start in starts.items():
            trained, log = train(start.clone(), dataset, replace(cfg, seed=seed), vocab)
            rows.append(RunResult(label, seed, *(evaluate(trained, eval_set, kind, vocab)
                                                 for kind in ("short", "long")), log))
    return ComparisonReport(rows=rows)
