"""Deterministic optimization loop for the toy policy.

Adam (no weight decay), linear warmup into a cosine decay to zero,
per-step loss-component telemetry (long-context reward margin and rejected
log-prob), and substring-exact-match evaluation under either context variant.
The entire trajectory is a function of (dataset, config, seed).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .forge import ForgedSample, sub_em
from .links import DomainError
from .losses import GRAD_FIELDS, LogProbBundle, MethodConfig, solopo_loss
from .policy import (EOS, ToyLM, Vocab, assemble_prompt, decode_rows, encode_contexts,
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
    "AdamW",
    "learning_rate",
    "assemble_prompt",
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


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in StepRecord.__dataclass_fields__.values()])
            for rec in self.steps:
                writer.writerow([getattr(rec, f) for f in StepRecord.__dataclass_fields__])

    def write_json(self, path: str | Path) -> None:
        payload = {"steps": [asdict(s) for s in self.steps],
                   "evals": [asdict(e) for e in self.evals]}
        Path(path).write_text(json.dumps(payload, sort_keys=True))


class NonFiniteLossError(RuntimeError):
    """Raised when a step produces a non-finite loss; carries diagnostics."""

    def __init__(self, message: str, diagnostic: dict):
        super().__init__(message)
        self.diagnostic = diagnostic


class AdamW:
    """Adam moments (beta1 0.9, beta2 0.999, eps 1e-8) over a dict of arrays,
    with weight decay 0. A step updates the moments and the parameters in
    place, with the float operations of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g`` and ``p -= lr * (m_hat / (sqrt(v_hat) + eps))``;
    it never writes into ``grads``."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._bufs = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for key, p in self.params.items():
            g, m, v = grads[key], self.m[key], self.v[key]
            step, denom = self._bufs[key]
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
            p -= step


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


@dataclass
class _Rows:
    """Every record's scoring rows, encoded once per dataset: (PO prompt, y_w),
    (PO prompt, y_l), (long prompt, y_w), (long prompt, y_l), the log-prob
    fields ``GRAD_FIELDS[:4]`` in order."""

    counts: np.ndarray    # (n, 4, V) prompt bags of tokens
    resp_ids: np.ndarray  # (n, 4, T) padded response ids
    mask: np.ndarray      # (n, 4, T) real response positions
    len_w: np.ndarray     # (n,) response token counts
    len_l: np.ndarray

    def batch(self, records: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 4 * len(records) rows of ``records`` as one kernel input."""
        return (self.counts[records].reshape(-1, self.counts.shape[-1]),
                self.resp_ids[records].reshape(-1, self.resp_ids.shape[-1]),
                self.mask[records].reshape(-1, self.mask.shape[-1]))


def _prepare(dataset: Sequence[ForgedSample], vocab: Vocab, po_context: str) -> _Rows:
    """Encode each prompt and response once; an out-of-vocabulary token fails
    here, naming its record."""
    questions = [s.question for s in dataset]
    short, long_ = (encode_contexts(vocab, [s.x_short for s in dataset], questions),
                    encode_contexts(vocab, [s.x_long for s in dataset], questions))
    po = long_ if po_context == "long" else short
    # texts[2i] and texts[2i + 1] are record i's y_w and y_l; each distinct
    # one is encoded once, all of them in one lookup.
    texts = [text for s in dataset for text in (s.y_w, s.y_l)]
    distinct: dict[str, int] = {}
    slots = np.array([distinct.setdefault(text, len(distinct)) for text in texts])
    words = [text.split() + [EOS] for text in distinct]
    try:
        flat = vocab.encode([w for ws in words for w in ws])
    except ValueError as exc:
        # The bad token is the first one of the first text that holds one.
        known = set(vocab.tokens)
        bad = next(i for i, text in enumerate(texts) if not known.issuperset(text.split()))
        raise ValueError(f"record {bad // 2}: {exc}") from None
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    ends = np.cumsum(lengths).tolist()
    ids, mask = pad_responses([flat[end - n:end] for end, n in zip(ends, lengths.tolist())])
    order = slots.reshape(-1, 2)[:, [0, 1, 0, 1]]  # (y_w, y_l, y_w, y_l) per record
    return _Rows(np.stack((po, po, long_, long_), axis=1), ids[order], mask[order],
                 lengths[order[:, 0]], lengths[order[:, 1]])


def _non_finite(message: str, step: int, sample_index: int, **detail) -> NonFiniteLossError:
    """The abort of one step, naming the step and the offending record."""
    return NonFiniteLossError(f"{message} at step {step}, sample {sample_index}",
                              {"step": step, "sample_index": sample_index, **detail})


def train(model: ToyLM, dataset: Sequence[ForgedSample], cfg: TrainConfig,
          vocab: Vocab, eval_set: Sequence[ForgedSample] | None = None
          ) -> tuple[ToyLM, TrainLog]:
    """Run the optimization loop; returns the mutated model and its log.

    Each step makes one pass of :func:`~shortlong.policy.score_rows` over all
    four rows of every record in the batch, makes one
    :func:`~shortlong.losses.solopo_loss` call over the batch's (n,) arrays
    for the loss terms, the long-context reward margin and the field
    gradients, and backpropagates through that pass's ``backward`` with the
    field gradients as row weights. A non-finite score or loss, or an ORPO
    log-odds singularity in any of the four fields, aborts with
    :class:`NonFiniteLossError` naming the record.
    ``vocab`` must be the model's vocabulary. A positive ``lr_max`` whose
    schedule is 0 at every step (one step with ``warmup_ratio`` 0) raises
    ValueError.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if model.frozen:
        raise ValueError("cannot train a frozen model")
    if vocab != model.vocab:
        raise ValueError("vocab differs from the model's vocabulary")
    total_steps = math.ceil(len(dataset) / cfg.batch_size) * cfg.epochs
    if cfg.lr_max > 0 and not any(learning_rate(s, total_steps, cfg.lr_max, cfg.warmup_ratio)
                                  for s in range(1, total_steps + 1)):
        raise ValueError(f"with warmup_ratio {cfg.warmup_ratio} the learning rate is 0 at "
                         f"every step (of {total_steps}); raise warmup_ratio or the step count")
    mc = cfg.method_cfg
    rows = _prepare(dataset, model.vocab, cfg.po_context)
    ref_lps = None
    if mc.needs_reference:  # the reference (the model before any step) is scored once
        per_token, _ = score_rows(model, *rows.batch(np.arange(len(dataset))))
        ref_lps = per_token.sum(axis=1).reshape(-1, 4)
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.params)
    log = TrainLog()
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), cfg.batch_size):
            step += 1
            lr = learning_rate(step, total_steps, cfg.lr_max, cfg.warmup_ratio)
            chunk = order[start:start + cfg.batch_size]
            n = len(chunk)
            per_token, backward = score_rows(model, *rows.batch(chunk))
            lps = per_token.sum(axis=1).reshape(-1, 4)
            bad = ~np.isfinite(lps)
            if bad.any():
                j = int(np.flatnonzero(bad.any(axis=1))[0])
                values = {k: float(v) for k, v, b in zip(GRAD_FIELDS[:4], lps[j], bad[j]) if b}
                fields = list(values)
                raise _non_finite(f"non-finite log-probability in {fields}", step, int(chunk[j]),
                                  fields=fields, values=values)
            refs = () if ref_lps is None else ref_lps[chunk].T
            bundle = LogProbBundle(*lps.T, rows.len_w[chunk], rows.len_l[chunk], *refs)
            try:
                breakdown = solopo_loss(mc, bundle)
            except DomainError as exc:  # the ORPO log-odds singularity, in a (4, n) stack
                raise _non_finite(str(exc), step, int(chunk[exc.index % n]),
                                  error=str(exc)) from exc
            bad_total = np.flatnonzero(~np.isfinite(breakdown.total))
            if bad_total.size:
                j = int(bad_total[0])
                terms = {k: float(np.broadcast_to(getattr(breakdown, k), n)[j]) for k in _TERMS}
                raise _non_finite("non-finite loss", step, int(chunk[j]), breakdown=terms)
            weights = np.empty((n, 4))
            for j, key in enumerate(GRAD_FIELDS[:4]):
                weights[:, j] = breakdown.grads[key]
            weights *= 1.0 / n
            opt.step(backward(weights.ravel()), lr)
            # One row mean per logged term; a scalar term (a disabled NLL) fills
            # its row, and the telemetry columns are NaN without telemetry.
            terms = [getattr(breakdown, k) for k in _TERMS]
            if cfg.telemetry:
                terms += [breakdown.reward_margin_long, bundle.lp_l_long]
            stacked = np.empty((len(terms), n))
            for j, term in enumerate(terms):
                stacked[j] = term
            means = stacked.mean(axis=1).tolist()
            if not cfg.telemetry:
                means += [float("nan")] * 2
            log.steps.append(StepRecord(step, lr, *means))
            if cfg.eval_every and eval_set is not None and step % cfg.eval_every == 0:
                log.evals.append(EvalRecord(step, *(evaluate(model, eval_set, kind, vocab)
                                                    for kind in ("short", "long"))))
    if eval_set is not None:
        log.evals.append(EvalRecord(step, *(evaluate(model, eval_set, kind, vocab)
                                            for kind in ("short", "long"))))
    return model, log


def evaluate(model: ToyLM, eval_set: Sequence[ForgedSample], context_kind: str,
             vocab: Vocab, max_len: int = 4) -> float:
    """Greedy-decode accuracy under substring exact match: the prompts are
    encoded by one :func:`encode_contexts` call (which reads the pairs
    ``vocab`` has encoded before from its cache), decoded together in one
    :func:`decode_rows` call, and graded from the returned token ids with
    one :func:`sub_em` call per distinct (decoded ids, answer) pair.
    ``vocab`` must be the model's vocabulary."""
    if vocab != model.vocab:
        raise ValueError("vocab differs from the model's vocabulary")
    if context_kind not in ("short", "long"):
        raise ValueError("context_kind must be 'short' or 'long'")
    if not eval_set:
        raise ValueError("eval set must be non-empty")
    counts = encode_contexts(vocab, [s.x_short if context_kind == "short" else s.x_long
                                     for s in eval_set], [s.question for s in eval_set])
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "seed", "short_acc", "long_acc"])
            for r in self.rows:
                writer.writerow([r.label, r.seed, r.short_acc, r.long_acc])

    def write_margins_csv(self, path: str | Path) -> None:
        """Plot-ready wide table: one long-margin column per run."""
        columns = {f"{r.label}#seed{r.seed}": [s.reward_margin_long for s in r.log.steps]
                   for r in self.rows}
        n_steps = max((len(v) for v in columns.values()), default=0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step"] + list(columns))
            for i in range(n_steps):
                writer.writerow([i + 1] + [col[i] if i < len(col) else ""
                                           for col in columns.values()])

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
    the config's seed set to ``seed``, and evaluate. The starts must share one
    vocabulary, so every cell reads the eval rows from one row cache."""
    vocabs = {model.vocab for model in starts.values()}
    if len(vocabs) != 1:
        raise ValueError("starts must hold at least one model, all with one vocabulary")
    (vocab,) = vocabs
    rows = []
    for label, cfg in configs:
        for seed, start in starts.items():
            trained, log = train(start.clone(), dataset, replace(cfg, seed=seed), vocab)
            rows.append(RunResult(label, seed, *(evaluate(trained, eval_set, kind, vocab)
                                                 for kind in ("short", "long")), log))
    return ComparisonReport(rows=rows)
