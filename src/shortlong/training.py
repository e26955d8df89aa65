"""Deterministic optimization loop for the toy policy.

Adam with decoupled weight decay, linear warmup into a cosine decay to zero,
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
from typing import Callable, Sequence

import numpy as np

from .forge import ForgedSample, sub_em
from .losses import (LogProbBundle, MethodConfig, RAMode, grad_solopo,
                     reward, solopo_loss)
from .policy import SEP, ToyLM, Vocab, freeze, greedy_decode, logprob, logprob_with_grad

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
    telemetry: bool = True       # score the long variant even when unused

    def __post_init__(self) -> None:
        if self.lr_max < 0:
            raise ValueError("lr_max must be nonnegative")
        if not 0 <= self.warmup_ratio < 1:
            raise ValueError("warmup_ratio must lie in [0, 1)")
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
    """Adam moments with decoupled weight decay over a dict of arrays."""

    def __init__(self, params: dict[str, np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, p in self.params.items():
            g = grads[key]
            self.m[key] = b1 * self.m[key] + (1 - b1) * g
            self.v[key] = b2 * self.v[key] + (1 - b2) * g * g
            m_hat = self.m[key] / (1 - b1 ** self.t)
            v_hat = self.v[key] / (1 - b2 ** self.t)
            p -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p)


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


def assemble_prompt(context_text: str, question: str) -> list[str]:
    return context_text.split() + [SEP] + question.split()


@dataclass
class _Prepared:
    prompt_short: list[str]
    prompt_long: list[str]
    y_w: list[str]
    y_l: list[str]


def _prepare(sample: ForgedSample, vocab: Vocab) -> _Prepared:
    from .policy import EOS

    prep = _Prepared(
        prompt_short=assemble_prompt(sample.x_short, sample.question),
        prompt_long=assemble_prompt(sample.x_long, sample.question),
        y_w=sample.y_w.split() + [EOS],
        y_l=sample.y_l.split() + [EOS],
    )
    for seq in (prep.prompt_short, prep.prompt_long, prep.y_w, prep.y_l):
        vocab.encode(seq)  # fail fast on out-of-vocabulary tokens
    return prep


def _needed_scores(cfg: TrainConfig) -> tuple[bool, bool]:
    """(need chosen-long score, need rejected-long score) for the objective."""
    mc = cfg.method_cfg
    if cfg.telemetry:
        return True, True
    if mc.alpha == 0.0:
        return False, False
    return True, mc.ra_mode is RAMode.BOTH


def _score_bundle(model: ToyLM, ref: ToyLM | None, prep: _Prepared,
                  cfg: TrainConfig) -> tuple[LogProbBundle, dict[str, tuple[list[str], list[str]]]]:
    """Score one sample; returns the bundle plus the scoring task per field."""
    po_prompt = prep.prompt_long if cfg.po_context == "long" else prep.prompt_short
    need_wl, need_ll = _needed_scores(cfg)
    tasks = {"lp_w_short": (po_prompt, prep.y_w), "lp_l_short": (po_prompt, prep.y_l)}
    if need_wl:
        tasks["lp_w_long"] = (prep.prompt_long, prep.y_w)
    if need_ll:
        tasks["lp_l_long"] = (prep.prompt_long, prep.y_l)
    values = {k: logprob(model, ctx, resp).total_logprob for k, (ctx, resp) in tasks.items()}
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise NonFiniteLossError(f"non-finite log-probability in {bad}",
                                 {"fields": bad, "values": {k: values[k] for k in bad}})
    values.setdefault("lp_w_long", values["lp_w_short"])
    values.setdefault("lp_l_long", values["lp_l_short"])
    refs: dict[str, float | None] = {k: None for k in
                                     ("ref_lp_w_short", "ref_lp_l_short",
                                      "ref_lp_w_long", "ref_lp_l_long")}
    if ref is not None:
        refs["ref_lp_w_short"] = logprob(ref, po_prompt, prep.y_w).total_logprob
        refs["ref_lp_l_short"] = logprob(ref, po_prompt, prep.y_l).total_logprob
        refs["ref_lp_w_long"] = logprob(ref, prep.prompt_long, prep.y_w).total_logprob
        refs["ref_lp_l_long"] = logprob(ref, prep.prompt_long, prep.y_l).total_logprob
    bundle = LogProbBundle(lp_w_short=values["lp_w_short"], lp_l_short=values["lp_l_short"],
                           lp_w_long=values["lp_w_long"], lp_l_long=values["lp_l_long"],
                           len_w=len(prep.y_w), len_l=len(prep.y_l), **refs)
    return bundle, tasks


def train(model: ToyLM, dataset: Sequence[ForgedSample], cfg: TrainConfig,
          vocab: Vocab, eval_set: Sequence[ForgedSample] | None = None
          ) -> tuple[ToyLM, TrainLog]:
    """Run the optimization loop; returns the mutated model and its log."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if model.frozen:
        raise ValueError("cannot train a frozen model")
    mc = cfg.method_cfg
    ref = freeze(model) if mc.needs_reference else None
    prepared = [_prepare(s, vocab) for s in dataset]
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.params)
    steps_per_epoch = math.ceil(len(prepared) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    log = TrainLog()
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(prepared))
        for start in range(0, len(prepared), cfg.batch_size):
            step += 1
            lr = learning_rate(step, total_steps, cfg.lr_max, cfg.warmup_ratio)
            chunk = order[start:start + cfg.batch_size]
            grads = model.zero_grads()
            sums = {"total": 0.0, "po": 0.0, "ra": 0.0, "nll": 0.0,
                    "margin": 0.0, "lp_rej": 0.0}
            for idx in chunk:
                prep = prepared[idx]
                bundle, tasks = _score_bundle(model, ref, prep, cfg)
                try:
                    breakdown = solopo_loss(mc, bundle)
                    if not math.isfinite(breakdown.total):
                        raise NonFiniteLossError(
                            f"non-finite loss at step {step}",
                            {"step": step, "sample_index": int(idx),
                             "breakdown": asdict(breakdown)})
                    field_grads = grad_solopo(mc, bundle)
                    if cfg.telemetry:
                        margin = (reward(mc, bundle.lp_w_long, bundle.ref_lp_w_long, bundle.len_w)
                                  - reward(mc, bundle.lp_l_long, bundle.ref_lp_l_long, bundle.len_l))
                except ValueError as exc:  # the ORPO log-odds singularity
                    raise NonFiniteLossError(
                        f"{exc} at step {step}, sample {int(idx)}",
                        {"step": step, "sample_index": int(idx), "error": str(exc)}) from exc
                scale = 1.0 / len(chunk)
                for key, (ctx, resp) in tasks.items():
                    weight = field_grads[key] * scale
                    if weight != 0.0:
                        logprob_with_grad(model, ctx, resp, upstream=weight, grads=grads)
                sums["total"] += breakdown.total
                sums["po"] += breakdown.po_term
                sums["ra"] += breakdown.ra_term
                sums["nll"] += breakdown.nll_term
                if cfg.telemetry:
                    sums["margin"] += margin
                    sums["lp_rej"] += bundle.lp_l_long
            n = len(chunk)
            opt.step(grads, lr)
            log.steps.append(StepRecord(
                step=step, lr=lr, total=sums["total"] / n, po_term=sums["po"] / n,
                ra_term=sums["ra"] / n, nll_term=sums["nll"] / n,
                reward_margin_long=sums["margin"] / n if cfg.telemetry else float("nan"),
                lp_rejected_long=sums["lp_rej"] / n if cfg.telemetry else float("nan")))
            if cfg.eval_every and eval_set is not None and step % cfg.eval_every == 0:
                log.evals.append(EvalRecord(
                    step=step,
                    short_acc=evaluate(model, eval_set, "short", vocab),
                    long_acc=evaluate(model, eval_set, "long", vocab)))
    if eval_set is not None:
        log.evals.append(EvalRecord(step=step,
                                    short_acc=evaluate(model, eval_set, "short", vocab),
                                    long_acc=evaluate(model, eval_set, "long", vocab)))
    return model, log


def evaluate(model: ToyLM, eval_set: Sequence[ForgedSample], context_kind: str,
             vocab: Vocab, max_len: int = 4) -> float:
    """Greedy-decode accuracy under substring exact match."""
    if context_kind not in ("short", "long"):
        raise ValueError("context_kind must be 'short' or 'long'")
    if not eval_set:
        raise ValueError("eval set must be non-empty")
    hits = 0
    for sample in eval_set:
        ctx = sample.x_short if context_kind == "short" else sample.x_long
        decoded = greedy_decode(model, assemble_prompt(ctx, sample.question), max_len)
        hits += sub_em(decoded.text, sample.answer)
    return hits / len(eval_set)


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


def run_comparison(seeds: Sequence[int], configs: Sequence[tuple[str, TrainConfig]],
                   dataset: Sequence[ForgedSample], eval_set: Sequence[ForgedSample],
                   vocab: Vocab, model_factory: Callable[[int], ToyLM]) -> ComparisonReport:
    """Train every (config, seed) cell on the shared dataset and evaluate."""
    rows = []
    for label, cfg in configs:
        for seed in seeds:
            model = model_factory(seed)
            run_cfg = replace(cfg, seed=seed)
            trained, log = train(model, dataset, run_cfg, vocab)
            rows.append(RunResult(
                label=label, seed=seed,
                short_acc=evaluate(trained, eval_set, "short", vocab),
                long_acc=evaluate(trained, eval_set, "long", vocab),
                log=log))
    return ComparisonReport(rows=rows)
