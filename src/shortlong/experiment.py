"""The bundled end-to-end directional experiment.

Protocol: forge a needle-retrieval dataset (64-token short contexts, 512-token
long contexts, closed vocabulary), warm-start a scorer per seed with the plain
short-context objective until it masters short retrieval (the stand-in for an
instruction-tuned starting point), then continue training one arm per
alignment coefficient from the shared warm snapshot. The alignment arm that
maximizes mean long-context accuracy is compared against the alpha=0 arm:
long accuracy should beat it decisively while short accuracy stays level.
Chosen-only and both-sides alignment arms continue from the same snapshots
for the margin curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import (PrefixedStubGenerator, build_chain_corpus, needle_profile,
                     needle_vocab, value_token)
from .forge import ForgedSample, HaystackConfig, forge_dataset
from .losses import Method, MethodConfig, RAMode
from .policy import ToyLM, Vocab
from .training import TrainConfig, run_comparison, train

__all__ = ["ExperimentConfig", "build_experiment_data", "directional_experiment",
           "pooled_se"]


@dataclass
class ExperimentConfig:
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    alphas: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    short_tokens: int = 64
    long_tokens: int = 512
    n_train: int = 384
    n_eval: int = 96
    hidden_dim: int = 32
    warm_epochs: int = 24
    warm_lr: float = 0.1
    arm_epochs: int = 8
    arm_lr: float = 0.05
    batch_size: int = 16
    data_seed: int = 100
    method: Method = Method.ORPO
    ra_mode: RAMode = RAMode.CHOSEN_ONLY

    def __post_init__(self) -> None:
        for name in ("seeds", "alphas"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        # Each alpha labels its arm "alpha=<a:g>", beside the alpha=0 baseline.
        labels = [f"{a:g}" for a in self.alphas]
        for label, a in zip(labels, self.alphas):
            if not (math.isfinite(a) and a > 0):
                raise ValueError(f"alphas must be finite and positive (alpha=0 is the "
                                 f"baseline arm), got alpha={label}")
            if labels.count(label) > 1:
                raise ValueError(f"alphas must be distinct, got alpha={label} "
                                 f"{labels.count(label)} times in {self.alphas}")
        for name in ("n_train", "n_eval", "hidden_dim", "warm_epochs", "arm_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def build_experiment_data(cfg: ExperimentConfig
                          ) -> tuple[list[ForgedSample], list[ForgedSample], Vocab]:
    """Forge the shared train/eval datasets for the bundled task."""
    profile = needle_profile()
    vocab = needle_vocab(profile)
    values = tuple(value_token(profile, i) for i in range(profile.n_values))
    prefixes = tuple(profile.entity(i) for i in range(profile.n_entities))
    generator = PrefixedStubGenerator(p_correct=0.5, n=32, values=values,
                                      prefixes=prefixes)
    train_sources, pool = build_chain_corpus(cfg.n_train + 220, 360,
                                             seed=cfg.data_seed, profile=profile)
    eval_sources, _ = build_chain_corpus(cfg.n_eval + 60, 360,
                                         seed=cfg.data_seed + 1, profile=profile)
    hay_train = HaystackConfig(cfg.short_tokens, cfg.long_tokens, seed=cfg.data_seed + 2)
    hay_eval = HaystackConfig(cfg.short_tokens, cfg.long_tokens, seed=cfg.data_seed + 3)
    train_data, _ = forge_dataset(train_sources, pool, generator, hay_train,
                                  n_target=cfg.n_train)
    eval_data, _ = forge_dataset(eval_sources, pool, generator, hay_eval,
                                 n_target=cfg.n_eval)
    return train_data, eval_data, vocab


def pooled_se(a: np.ndarray, b: np.ndarray) -> float:
    """Standard error of the difference of two seed-level means."""
    va = a.var(ddof=1) / a.size if a.size > 1 else 0.0
    vb = b.var(ddof=1) / b.size if b.size > 1 else 0.0
    return float(np.sqrt(va + vb))


def directional_experiment(cfg: ExperimentConfig | None = None) -> dict:
    """Run the whole study from one forge and one warm-up per seed: the alpha
    sweep with its aggregates and headline stats, and under ``"margins"`` the
    chosen-only vs both-sides alignment runs (alpha = 0.5, the first two
    seeds) for margin-curve overlays."""
    cfg = cfg or ExperimentConfig()
    train_data, eval_data, vocab = build_experiment_data(cfg)
    warm = MethodConfig(cfg.method, alpha=0.0)
    starts = {seed: train(ToyLM(vocab, hidden_dim=cfg.hidden_dim, seed=seed), train_data,
                          TrainConfig(warm, lr_max=cfg.warm_lr, batch_size=cfg.batch_size,
                                      epochs=cfg.warm_epochs, seed=1000 + seed), vocab)[0]
              for seed in cfg.seeds}

    def arm(label: str, alpha: float, ra_mode: RAMode) -> tuple[str, TrainConfig]:
        return label, TrainConfig(MethodConfig(cfg.method, alpha=alpha, ra_mode=ra_mode),
                                  lr_max=cfg.arm_lr, batch_size=cfg.batch_size,
                                  epochs=cfg.arm_epochs)

    report = run_comparison([arm(f"alpha={a:g}", a, cfg.ra_mode)
                             for a in (0.0,) + tuple(cfg.alphas)],
                            train_data, eval_data, starts)
    margins = run_comparison([arm(f"ra={mode.value}", 0.5, mode)
                              for mode in (RAMode.CHOSEN_ONLY, RAMode.BOTH)],
                             train_data, eval_data,
                             {seed: starts[seed] for seed in cfg.seeds[:2]})
    agg = report.aggregates()

    def accs(label: str, which: str) -> np.ndarray:
        return np.array([getattr(r, which) for r in report.rows if r.label == label])

    baseline = "alpha=0"
    tuned = max((f"alpha={a:g}" for a in cfg.alphas),
                key=lambda lbl: agg[lbl]["long_mean"])
    long_gap = agg[tuned]["long_mean"] - agg[baseline]["long_mean"]
    long_se = pooled_se(accs(tuned, "long_acc"), accs(baseline, "long_acc"))
    short_gap = agg[tuned]["short_mean"] - agg[baseline]["short_mean"]
    short_se = pooled_se(accs(tuned, "short_acc"), accs(baseline, "short_acc"))
    return {
        "aggregates": agg,
        "baseline": baseline,
        "selected": tuned,
        "long_gap": long_gap,
        "long_pooled_se": long_se,
        "short_gap": short_gap,
        "short_pooled_se": short_se,
        "long_improved": long_gap > max(long_se, 1e-12),
        # "maintained" is one-sided: only degradation beyond one pooled
        # standard error counts against the tuned arm.
        "short_maintained": short_gap >= -max(short_se, 1e-12),
        "report": report,
        "margins": margins,
    }
