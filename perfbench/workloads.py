"""The three benchmark workloads: ``train``, ``certify`` and ``forge``.

Each workload generates its inputs from one input seed in :meth:`setup`,
runs one round of timed calls into public ``shortlong`` functions in
:meth:`run_round`, and checks that round's outputs in :meth:`check` against
``references.json`` (recorded at the seed commit by ``record.py``). Every
round does identical work, so a round's counts repeat exactly.

A round reports rate samples (units of work per second) for two rates,
``primary`` and ``secondary``; :data:`RATE_NAMES` gives their meaning per
workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from shortlong import bounds, cli, corpus, experiment, forge, losses, policy, training

# Inputs come from one of INPUT_SETS recorded input sets: seed % INPUT_SETS.
INPUT_SETS = 64
# Never used while tuning the benchmark; later performance claims must also
# hold on it.
HELD_OUT_SEED = 63

# Train check tolerance. Reordering float64 sums (a batched kernel) moves the
# final loss and the decoded log-probabilities by far less than 1e-6
# relative, and no greedy choice is that close to a tie, so the decoded
# tokens and the accuracies must match exactly.
RTOL = 1e-6

# Forge sizes. The criterion-9 forge: builtin-word pool and token targets.
FORGE_POOL = 2200
FORGE_TOKENS = (1100, 7500)
# The needle forge: the experiment's pool and 64/512-token targets, forged in
# NEEDLE_CHUNKS calls.
NEEDLE_POOL = 360
NEEDLE_TOKENS = (64, 512)
NEEDLE_CHUNKS = 3

RATE_NAMES = {
    "train": ("train.samples_per_s", "eval.decodes_per_s"),
    "certify": ("certify.scenarios_per_s", "certify.lemma_instances_per_s"),
    "forge": ("forge.sources_per_s", "forge.needle_sources_per_s"),
}

clock = time.perf_counter


@dataclass
class Round:
    primary: list[float]
    secondary: list[float]
    output: Any = None


@dataclass
class Check:
    """Operations checked in one round and the messages of those that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ------------------------------------------------------------------- train


class TrainWorkload:
    """Train a fresh ``ToyLM(d=32)`` with the criterion-10 arm objective
    (ORPO, alpha=1, chosen-only alignment, telemetry on, batch 16), then
    greedy-decode the eval set under both context variants.
    """

    modules = ("shortlong.experiment", "shortlong.training")

    def __init__(self, input_seed: int, *, n_train: int = 384, n_eval: int = 96,
                 epochs: int = 2, eval_passes: int = 16):
        self.input_seed = input_seed
        self.epochs = epochs
        self.eval_passes = eval_passes
        self.cfg = experiment.ExperimentConfig(n_train=n_train, n_eval=n_eval,
                                               data_seed=1000 + 4 * input_seed)
        self.train_cfg = training.TrainConfig(
            losses.MethodConfig(losses.Method.ORPO, alpha=1.0,
                                ra_mode=losses.RAMode.CHOSEN_ONLY),
            lr_max=self.cfg.arm_lr, batch_size=self.cfg.batch_size, epochs=epochs,
            seed=input_seed, telemetry=True)

    def sizes(self) -> dict:
        c = self.cfg
        return {"train_records": c.n_train, "eval_records": c.n_eval,
                "short_tokens": c.short_tokens, "long_tokens": c.long_tokens,
                "hidden_dim": c.hidden_dim, "epochs": self.epochs,
                "eval_passes": self.eval_passes, "data_seed": c.data_seed}

    def setup(self) -> None:
        self.train_data, self.eval_data, self.vocab = \
            experiment.build_experiment_data(self.cfg)

    def run_round(self) -> Round:
        model = policy.ToyLM(self.vocab, hidden_dim=self.cfg.hidden_dim,
                             seed=self.input_seed)
        t0 = clock()
        _, log = training.train(model, self.train_data, self.train_cfg, self.vocab)
        t1 = clock()
        accs, decode_rates = [], []
        for _ in range(self.eval_passes):
            t2 = clock()
            accs.append((training.evaluate(model, self.eval_data, "short", self.vocab),
                         training.evaluate(model, self.eval_data, "long", self.vocab)))
            decode_rates.append(2 * len(self.eval_data) / (clock() - t2))
        return Round(primary=[len(self.train_data) * self.epochs / (t1 - t0)],
                     secondary=decode_rates, output=(log, accs, model))

    def decoded(self, model) -> tuple[str, float]:
        """SHA-256 of the greedy decodes of every eval prompt, short then
        long, and the sum of their log-probabilities."""
        digest, total = hashlib.sha256(), 0.0
        for kind in ("short", "long"):
            for sample in self.eval_data:
                ctx = sample.x_short if kind == "short" else sample.x_long
                out = policy.greedy_decode(
                    model, training.assemble_prompt(ctx, sample.question))
                digest.update(json.dumps(out.tokens).encode() + b"\n")
                total += out.total_logprob
        return digest.hexdigest(), total

    def summary(self, rnd: Round) -> dict:
        log, accs, model = rnd.output
        tokens_sha256, logprob_sum = self.decoded(model)
        return {"final_loss": log.steps[-1].total,
                "short_acc": accs[0][0], "long_acc": accs[0][1],
                "decoded_sha256": tokens_sha256, "decoded_logprob_sum": logprob_sum}

    def check(self, rnd: Round, ref: dict) -> Check:
        log, accs, model = rnd.output
        chk = Check()
        terms = [v for s in log.steps for v in (s.total, s.po_term, s.ra_term, s.nll_term,
                                                s.reward_margin_long, s.lp_rejected_long)]
        finite = all(math.isfinite(v) for v in terms)
        final = log.steps[-1].total
        chk.expect(finite and math.isclose(final, ref["final_loss"], rel_tol=RTOL),
                   f"train: final loss {final!r} vs reference {ref['final_loss']!r}"
                   f" (all finite: {finite})")
        expected = (ref["short_acc"], ref["long_acc"])
        chk.expect(all(acc == expected for acc in accs),
                   f"eval: accuracies {sorted(set(accs))} vs reference {expected}")
        # Checked outside the timed calls, once per round: what the decoder
        # emits, not only how often it hits.
        tokens_sha256, logprob_sum = self.decoded(model)
        chk.expect(tokens_sha256 == ref["decoded_sha256"]
                   and math.isclose(logprob_sum, ref["decoded_logprob_sum"], rel_tol=RTOL),
                   f"decode: tokens sha256 {tokens_sha256}, log-probability sum "
                   f"{logprob_sum!r} vs reference {ref['decoded_sha256']}, "
                   f"{ref['decoded_logprob_sum']!r}")
        return chk


# ----------------------------------------------------------------- certify


class CertifyWorkload:
    """The ``verify-bounds`` suites at the default count ratios, scaled down.

    Defaults are 10^4 scenarios per Theorem-1 link and per Theorem-2 p,
    10^6 lemma instances and 10^5 necessity attempts, i.e. 1 : 100 : 10.
    The vectorized lemma and necessity calls are repeated ``lemma_reps``
    times so that their phase lasts long enough to time.
    """

    modules = ("shortlong.bounds",)

    def __init__(self, input_seed: int, *, scenarios: int = 300, lemma_reps: int = 40):
        self.seed = input_seed
        self.n = scenarios
        self.lemma_reps = lemma_reps
        self.links = bounds.ALL_LINKS

    def sizes(self) -> dict:
        return {"theorem1_scenarios_per_link": self.n, "theorem2_scenarios_per_p": self.n,
                "lemma_instances": 100 * self.n, "necessity_attempts": 10 * self.n,
                "lemma_reps": self.lemma_reps, "suite_seed": self.seed}

    def setup(self) -> None:
        """Nothing to generate: the suites draw their scenarios from the seed
        inside the timed calls, so set-up is the import alone."""

    def run_round(self) -> Round:
        n = self.n
        t0 = clock()
        exact = bounds.run_theorem1_suite(n, self.seed, form="exact")
        sform = bounds.run_theorem1_suite(n, self.seed, form="sform")
        thm2 = bounds.run_theorem2_suite(n, self.seed)
        t1 = clock()
        for _ in range(self.lemma_reps):
            lemma = bounds.run_lemma1_suite(100 * n, self.seed)
            necessity = bounds.run_assumption_necessity_search(10 * n, self.seed)
        t2 = clock()
        scenarios = sum(r.instances for r in (*exact.values(), *sform.values(), *thm2.values()))
        instances = self.lemma_reps * (lemma.instances + necessity.instances)
        return Round(primary=[scenarios / (t1 - t0)], secondary=[instances / (t2 - t1)],
                     output=(exact, sform, thm2, lemma, necessity))

    def check(self, rnd: Round, ref: dict | None = None) -> Check:
        exact, sform, thm2, lemma, necessity = rnd.output
        chk = Check()
        for form, reports in (("exact", exact), ("sform", sform)):
            for link in self.links:
                rep = reports[link.value]
                chk.expect(rep.passed and rep.instances == self.n,
                           f"theorem1_{form}[{link.value}]: max_violation "
                           f"{rep.max_violation:.3e} over {rep.instances} scenarios")
        for key in ("1", "2", "inf"):
            rep = thm2[key]
            chk.expect(rep.passed and rep.condition_failures == 0 and rep.instances == self.n,
                       f"theorem2[p={key}]: max_violation {rep.max_violation:.3e}, "
                       f"{rep.condition_failures} condition failures")
        chk.expect(lemma.passed and lemma.instances == 100 * self.n,
                   f"lemma1: max_violation {lemma.max_violation:.3e}")
        chk.expect(necessity.max_violation > bounds.TOLERANCE,
                   f"necessity search found no witness in {necessity.instances} attempts")
        return chk


# ------------------------------------------------------------------- forge


class ForgeWorkload:
    """``shortlong forge`` in-process at criterion-9 size (builtin-word corpus,
    1100/7500-token targets, stub generator, JSONL and manifest written),
    then a needle forge at 64/512 tokens (the experiment's data recipe),
    where per-source rather than per-token cost dominates. The needle
    corpus is forged in ``NEEDLE_CHUNKS`` calls, each one rate sample.
    """

    modules = ("shortlong.cli",)

    def __init__(self, input_seed: int, out_dir: Path, *, sources: int = 520,
                 needle_sources: int = 600):
        self.seed = input_seed
        self.out = Path(out_dir)
        self.n_sources = sources
        self.needle_sources = needle_sources
        self.verified_digest: str | None = None
        self.cfg = forge.HaystackConfig(*FORGE_TOKENS, seed=input_seed)
        self.needle_cfg = forge.HaystackConfig(*NEEDLE_TOKENS, seed=input_seed)
        self.argv = ["forge", "--out", str(self.out), "--seed", str(input_seed),
                     "--set", "corpus=builtin-word",
                     "--set", f"corpus_sources={sources}", "--set", f"corpus_pool={FORGE_POOL}",
                     "--set", f"target_short_tokens={FORGE_TOKENS[0]}",
                     "--set", f"target_long_tokens={FORGE_TOKENS[1]}"]

    def sizes(self) -> dict:
        return {"sources": self.n_sources, "pool": FORGE_POOL,
                "short_tokens": FORGE_TOKENS[0], "long_tokens": FORGE_TOKENS[1],
                "needle_sources": self.needle_sources, "needle_pool": NEEDLE_POOL,
                "needle_chunks": NEEDLE_CHUNKS, "needle_tokens": list(NEEDLE_TOKENS),
                "seed": self.seed}

    def setup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        profile = corpus.needle_profile()
        values = tuple(corpus.value_token(profile, i) for i in range(profile.n_values))
        prefixes = tuple(profile.entity(i) for i in range(profile.n_entities))
        self.generator = corpus.PrefixedStubGenerator(p_correct=0.5, n=32, values=values,
                                                      prefixes=prefixes)
        sources, self.needle_pool = corpus.build_chain_corpus(
            self.needle_sources, NEEDLE_POOL, seed=self.seed, profile=profile)
        size = -(-len(sources) // NEEDLE_CHUNKS)
        self.needle_parts = [sources[i:i + size] for i in range(0, len(sources), size)]

    def run_round(self) -> Round:
        sink = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(self.argv)
        t1 = clock()
        samples, emitted, needle_rates = [], 0, []
        for part in self.needle_parts:
            t2 = clock()
            forged, stats = forge.forge_dataset(part, self.needle_pool, self.generator,
                                                self.needle_cfg)
            needle_rates.append(stats.sources_seen / (clock() - t2))
            samples += forged
            emitted += stats.emitted
        return Round(primary=[self.n_sources / (t1 - t0)], secondary=needle_rates,
                     output=(rc, samples, emitted))

    @staticmethod
    def needle_digest(samples) -> str:
        digest = hashlib.sha256()
        for s in samples:
            digest.update(json.dumps(asdict(s), sort_keys=True).encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def summary(self, rnd: Round) -> dict:
        _, samples, _ = rnd.output
        return {"forged_sha256": _sha256_file(self.out / "data" / "forged.jsonl"),
                "needle_sha256": self.needle_digest(samples)}

    def _forged_ok(self, path: Path) -> tuple[int, list[str]]:
        """Stream the JSONL; every record must pass ``check_invariants``."""
        count, bad = 0, []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                count += 1
                try:
                    forge.ForgedSample(**json.loads(line)).check_invariants(self.cfg)
                except (ValueError, TypeError) as exc:
                    bad.append(f"line {lineno}: {exc}")
        return count, bad

    def check(self, rnd: Round, ref: dict) -> Check:
        rc, samples, emitted = rnd.output
        chk = Check()
        path = self.out / "data" / "forged.jsonl"
        problems = []
        if rc != 0 or not path.is_file():
            problems.append(f"exit code {rc}")
        else:
            digest = _sha256_file(path)
            if digest != ref["forged_sha256"]:
                problems.append(f"forged.jsonl sha256 {digest} != {ref['forged_sha256']}")
            # Bytes equal to a file already read back in this run need no
            # second read-back.
            if digest != self.verified_digest:
                count, bad = self._forged_ok(path)
                problems += bad[:3]
                stats = json.loads((self.out / "data" / "forge_stats.json").read_text())
                if count != stats["emitted"] or count == 0:
                    problems.append(f"{count} records on disk, {stats['emitted']} reported")
                if not problems:
                    self.verified_digest = digest
        chk.expect(not problems, "forge cli: " + "; ".join(problems))
        problems = []
        digest = self.needle_digest(samples)
        if digest != ref["needle_sha256"]:
            problems.append(f"needle sha256 {digest} != {ref['needle_sha256']}")
        for i, s in enumerate(samples):
            try:
                s.check_invariants(self.needle_cfg)
            except ValueError as exc:
                problems.append(f"record {i}: {exc}")
        if not samples or emitted != len(samples):
            problems.append(f"{len(samples)} needle records, {emitted} reported")
        chk.expect(not problems, "needle forge: " + "; ".join(problems[:4]))
        return chk


def make(name: str, input_seed: int, work_dir: Path):
    """The workload ``name``; it may write files under ``work_dir``."""
    if name == "train":
        return TrainWorkload(input_seed)
    if name == "certify":
        return CertifyWorkload(input_seed)
    if name == "forge":
        return ForgeWorkload(input_seed, work_dir / "forge")
    raise ValueError(f"unknown workload {name!r}")
