"""Analytic training-cost model and the speedup/crossover analysis.

Cost abstraction: one forward/backward over a length-n sequence costs n^2
units (quadratic attention), reference-model passes excluded. Vanilla
preference training processes the long context twice (chosen and rejected);
the decomposed objective processes the short context twice plus the long
context once for the chosen-side alignment term.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .losses import RAMode

__all__ = [
    "CostModel",
    "CROSSOVER_COMPRESSION",
    "flops",
    "speedup",
    "report_rows",
    "write_report_csv",
]

CROSSOVER_COMPRESSION = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CostModel:
    """Long-context length in tokens and the short/long compression rate."""

    long_tokens: float
    compression: float
    ra_mode: RAMode = RAMode.CHOSEN_ONLY

    def __post_init__(self) -> None:
        if not (math.isfinite(self.long_tokens) and self.long_tokens > 0):
            raise ValueError(f"long_tokens must be positive and finite, got {self.long_tokens}")
        if not 0.0 < self.compression <= 1.0:
            raise ValueError("compression must lie in (0, 1]")


def flops(model: CostModel, variant: str) -> float:
    """Cost units for one training pass.

    vanilla -> 2 N^2; decomposed chosen-only and kl_approx (both read only
    the chosen response's long row) -> (2 c^2 + 1) N^2; decomposed both-sides
    -> (2 c^2 + 2) N^2 (the rejected response scores the long context a
    second time — an extension beyond the chosen-only accounting).
    """
    n2 = model.long_tokens * model.long_tokens
    c2 = model.compression * model.compression
    if variant == "vanilla":
        return 2.0 * n2
    if variant == "solo":
        long_passes = 2.0 if model.ra_mode is RAMode.BOTH else 1.0
        return (2.0 * c2 + long_passes) * n2
    raise ValueError("variant must be 'vanilla' or 'solo'")


def speedup(c: float) -> float:
    """Vanilla-to-decomposed cost ratio 2 / (2 c^2 + 1); exceeds 1 iff c < 1/sqrt(2)."""
    if not 0.0 < c <= 1.0:
        raise ValueError("compression must lie in (0, 1]")
    return 2.0 / (2.0 * c * c + 1.0)


def report_rows(models: Sequence[CostModel]) -> list[dict]:
    """One row per model; ``speedup`` and ``crossover`` are read off the
    row's own flops, so they follow its ``ra_mode``."""
    rows = []
    for m in models:
        vanilla, solo = flops(m, "vanilla"), flops(m, "solo")
        rows.append({
            "long_tokens": m.long_tokens,
            "compression": m.compression,
            "flops_vanilla": vanilla,
            "flops_solo": solo,
            "speedup": vanilla / solo,
            "crossover": solo < vanilla,
        })
    return rows


def write_report_csv(models: Sequence[CostModel], path: str | Path) -> None:
    rows = report_rows(models)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

