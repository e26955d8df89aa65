"""Which ``shortlong`` functions the traced run probes, and the per-layer
metrics derived from their spans and counts.

Span names are ``<module>.<function>``. Two functions may feed one span name
when they are one step in two variants (``theorem1_exact_slack`` and
``theorem1_sform_slack`` both feed ``bounds.theorem1_slack``). ``efficiency``
(the analytic cost model, never mixed with wall clock) and ``gradcheck`` (a
verification tool off every user hot path) are not probed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from spans import Probe, Tracer


def _arg(i: int, key: str):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[key]
    return get


_tokens = _arg(1, "tokens")          # Vocab.encode(self, tokens)
_context = _arg(1, "context_ids")    # ToyLM.context_hidden(self, context_ids)
_link_x = _arg(1, "x")               # eval_link(link, x) / eval_bound(bound, x)
_path = _arg(1, "path")              # write_forged_jsonl(samples, path)

PROBES: list[Probe] = [
    # policy: prompt encoding, pooling, scoring, backward, decoding
    Probe("policy.encode", "shortlong.policy:Vocab", "encode",
          sizes=(("tokens", lambda a, k, r: len(_tokens(a, k))),)),
    Probe("policy.context_hidden", "shortlong.policy:ToyLM", "context_hidden",
          sizes=(("tokens", lambda a, k, r: len(_context(a, k))),)),
    Probe("policy.logprob", "shortlong.policy", "logprob"),
    Probe("policy.logprob_with_grad", "shortlong.policy", "logprob_with_grad"),
    Probe("policy.sample", "shortlong.policy", "sample"),
    # losses
    Probe("losses.solopo_loss", "shortlong.losses", "solopo_loss"),
    Probe("losses.grad_solopo", "shortlong.losses", "grad_solopo"),
    Probe("losses.reward", "shortlong.losses", "reward", timed=False),
    # training
    Probe("training.adamw_step", "shortlong.training:AdamW", "step"),
    Probe("training.train", "shortlong.training", "train"),
    Probe("training.evaluate", "shortlong.training", "evaluate"),
    # experiment
    Probe("experiment.build_experiment_data", "shortlong.experiment", "build_experiment_data"),
    # bounds
    Probe("bounds.random_scenario", "shortlong.bounds", "random_scenario"),
    Probe("bounds.theorem1_slack", "shortlong.bounds", "theorem1_exact_slack"),
    Probe("bounds.theorem1_slack", "shortlong.bounds", "theorem1_sform_slack"),
    Probe("bounds.check_theorem2", "shortlong.bounds", "check_theorem2"),
    Probe("bounds.theorem1_suite", "shortlong.bounds", "run_theorem1_suite"),
    Probe("bounds.theorem2_suite", "shortlong.bounds", "run_theorem2_suite"),
    Probe("bounds.lemma1_suite", "shortlong.bounds", "run_lemma1_suite"),
    Probe("bounds.necessity_search", "shortlong.bounds", "run_assumption_necessity_search"),
    # links
    Probe("links.eval_link", "shortlong.links", "eval_link",
          sizes=(("elements", lambda a, k, r: np.size(_link_x(a, k))),)),
    Probe("links.eval_bound", "shortlong.links", "eval_bound",
          sizes=(("elements", lambda a, k, r: np.size(_link_x(a, k))),)),
    # forge
    Probe("forge.synthesize_context", "shortlong.forge", "synthesize_context"),
    Probe("forge.token_count", "shortlong.forge", "token_count", timed=False),
    Probe("forge.sub_em", "shortlong.forge", "sub_em", timed=False),
    Probe("forge.check_invariants", "shortlong.forge:ForgedSample", "check_invariants"),
    Probe("forge.forge_dataset", "shortlong.forge", "forge_dataset",
          sizes=(("emitted", lambda a, k, r: r[1].emitted),
                 ("sources_seen", lambda a, k, r: r[1].sources_seen))),
    Probe("forge.write_forged_jsonl", "shortlong.forge", "write_forged_jsonl",
          sizes=(("bytes", lambda a, k, r: os.path.getsize(_path(a, k))),)),
    # corpus
    Probe("corpus.build_chain_corpus", "shortlong.corpus", "build_chain_corpus"),
    Probe("corpus.generator", "shortlong.corpus:StubGenerator", "__call__"),
    Probe("corpus.generator", "shortlong.corpus:PrefixedStubGenerator", "__call__"),
    # cli: parsing, manifest and stats sidecar around the forge call
    Probe("cli.main", "shortlong.cli", "main"),
]

# Per-layer metrics, name -> unit, as BENCHMARK.json declares them. A name is
# ``<span>.<field>``: ``calls`` and ``self_s`` come from the spans, any other
# field is a summed size. ``forge.emitted_ratio`` and ``trace.*`` are derived.
PER_LAYER: dict[str, str] = {
    m["name"]: m["unit"] for m in
    json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


def layer_metrics(tracer: Tracer, rounds: int, walls: dict[int, float],
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer values for one traced set-up (run id 0) plus one round.

    Round values are means over the ``rounds`` traced rounds (run ids 1..n),
    so counts stay exact: every round does identical work. ``walls`` maps a
    run id to the benchmark's own wall clock around that run's calls.
    """
    self_s = tracer.self_times()

    def per_run(table: dict[tuple[str, int], float], key: str) -> float:
        setup = table.get((key, 0), 0.0)
        body = sum(table.get((key, r), 0.0) for r in range(1, rounds + 1))
        return setup + body / rounds

    out: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span == "trace" or name == "forge.emitted_ratio":
            continue
        if field == "calls":
            out[name] = per_run(tracer.calls, span)
        elif field == "self_s":
            out[name] = per_run(self_s, span)
        else:
            out[name] = per_run(tracer.sizes, name)
    seen = per_run(tracer.sizes, "forge.forge_dataset.sources_seen")
    emitted = per_run(tracer.sizes, "forge.forge_dataset.emitted")
    out["forge.emitted_ratio"] = emitted / seen if seen else 0.0
    wall = walls.get(0, 0.0) + sum(walls[r] for r in range(1, rounds + 1)) / rounds
    setup_self = sum(v for (_span, run), v in self_s.items() if run == 0)
    body_self = sum(v for (_span, run), v in self_s.items() if run > 0)
    self_sum = setup_self + body_self / rounds
    out["trace.wall_s"] = wall
    out["trace.self_sum_s"] = self_sum
    out["trace.coverage"] = self_sum / wall if wall else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return {name: out[name] for name in PER_LAYER}
