"""Bundled synthetic corpora and candidate generators.

The corpus is built from two-hop entity-relation chains: each source asks for
the value at the end of a chain (``A --rel_a--> B --rel_b--> value``) and ships
the two chain documents as supporting evidence. The distractor pool holds only
first-hop style documents (entity -> entity), so the value token of a source
is unique inside any haystack built around it.

Two profiles of the same generator:

* ``word_profile`` — open vocabulary, word-like identifiers, used for
  forge-contract runs at realistic token lengths;
* ``needle_profile`` — a closed vocabulary small enough for the toy scorer,
  used by the end-to-end training experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .policy import BOS, EOS, SEP, ToyLM, Vocab, assemble_prompt, sample

__all__ = [
    "SourceSample",
    "ChainCorpusProfile",
    "word_profile",
    "needle_profile",
    "needle_vocab",
    "value_token",
    "build_chain_corpus",
    "StubGenerator",
    "PrefixedStubGenerator",
    "PolicyCandidateGenerator",
]

NO_ANSWER = "noanswer"


@dataclass(frozen=True)
class SourceSample:
    """One raw QA record: question, gold answer, supporting documents."""

    question: str
    answer: str
    supporting_docs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.answer:
            raise ValueError("answer must be non-empty")
        if not self.supporting_docs:
            raise ValueError("at least one supporting document is required")
        for i, doc in enumerate(self.supporting_docs):
            if not doc.split():
                raise ValueError(f"supporting_docs[{i}] has no tokens")
        object.__setattr__(self, "supporting_docs", tuple(self.supporting_docs))


@dataclass(frozen=True)
class ChainCorpusProfile:
    """Naming scheme and sizes for the chain generator."""

    n_entities: int
    n_values: int
    entity_fmt: str
    value_fmt: str
    relation_a: str
    relation_b: str
    question_fmt: str  # receives {a}

    def entity(self, i: int) -> str:
        return self.entity_fmt.format(i)

    def value(self, i: int) -> str:
        return self.value_fmt.format(i)


def word_profile() -> ChainCorpusProfile:
    return ChainCorpusProfile(
        n_entities=300, n_values=240,
        entity_fmt="org{:03d}", value_fmt="{}",
        relation_a="acquired", relation_b="established",
        question_fmt="which year was the partner of {a} established ?",
    )


def needle_profile() -> ChainCorpusProfile:
    return ChainCorpusProfile(
        n_entities=20, n_values=20,
        entity_fmt="e{:02d}", value_fmt="v{:02d}",
        relation_a="owns", relation_b="founded",
        question_fmt="? founded {a}",
    )


def needle_vocab(profile: ChainCorpusProfile | None = None) -> Vocab:
    """Closed vocabulary covering everything the needle profile can emit."""
    p = profile or needle_profile()
    tokens = [BOS, EOS, SEP, "?", p.relation_a, p.relation_b, NO_ANSWER]
    tokens += [p.entity(i) for i in range(p.n_entities)]
    tokens += [p.value(i) for i in range(p.n_values)]
    return Vocab(tuple(tokens))


def value_token(profile: ChainCorpusProfile, i: int) -> str:
    # Word profile renders values as distinct equal-length years.
    if profile.value_fmt == "{}":
        return str(1800 + i)
    return profile.value(i)


def build_chain_corpus(n_sources: int, pool_size: int, seed: int,
                       profile: ChainCorpusProfile | None = None
                       ) -> tuple[list[SourceSample], list[str]]:
    """Generate sources and a shared distractor pool.

    Pool documents are distinct ordered entity pairs rendered through
    ``relation_a``; sources draw their own chain head, bridge and value.
    """
    p = profile or word_profile()
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(n_sources):
        a, b = (p.entity(int(i)) for i in rng.choice(p.n_entities, size=2, replace=False))
        v = value_token(p, int(rng.integers(p.n_values)))
        docs = (f"{a} {p.relation_a} {b}", f"{b} {p.relation_b} {v}")
        sources.append(SourceSample(question=p.question_fmt.format(a=a),
                                    answer=v, supporting_docs=docs))
    max_pairs = p.n_entities * (p.n_entities - 1)
    if pool_size > max_pairs:
        raise ValueError(f"pool_size {pool_size} exceeds the {max_pairs} distinct entity pairs")
    flat = rng.choice(max_pairs, size=pool_size, replace=False)
    pool = []
    for code in flat:
        x = int(code) // (p.n_entities - 1)
        rem = int(code) % (p.n_entities - 1)
        y = rem if rem < x else rem + 1
        pool.append(f"{p.entity(x)} {p.relation_a} {p.entity(y)}")
    return sources, pool


@dataclass
class StubGenerator:
    """Test/experiment candidate generator with a controlled accuracy rate.

    Each of the ``n`` candidates is the gold answer with probability
    ``p_correct``, otherwise a draw from ``wrong_answers`` (skipping those that
    contain the gold answer). With ``prefixes``, each candidate is led by a
    uniformly random prefix token (modeling the lead-in diversity of
    temperature-sampled reasoning traces), which keeps a trained scorer's
    per-token probability of any chosen response bounded away from 1, so
    odds-based rewards stay well-conditioned.
    """

    p_correct: float
    n: int = 32
    wrong_answers: tuple[str, ...] = (NO_ANSWER,)
    prefixes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.p_correct <= 1:
            raise ValueError(f"p_correct must lie in [0, 1], got {self.p_correct}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")

    def __call__(self, context: str, source: SourceSample,
                 rng: np.random.Generator) -> list[str]:
        answer, prefixes = source.answer, self.prefixes
        pool = [w for w in self.wrong_answers if answer not in w] or [NO_ANSWER]
        out = []
        for _ in range(self.n):
            prefix = prefixes[int(rng.integers(len(prefixes)))] if prefixes else None
            if rng.random() < self.p_correct:
                verdict = answer
            else:
                verdict = pool[int(rng.integers(len(pool)))]
            out.append(verdict if prefix is None else f"{prefix} {verdict}")
        return out


class PrefixedStubGenerator(StubGenerator):
    """A prefixed :class:`StubGenerator` whose wrong verdicts are ``values``
    or an abstention."""

    def __init__(self, p_correct: float, n: int, values: tuple[str, ...],
                 prefixes: tuple[str, ...]) -> None:
        super().__init__(p_correct, n, tuple(values) + (NO_ANSWER,), tuple(prefixes))

    # Bound here too: perfbench's corpus.generator probe patches __call__ in
    # this class's own namespace.
    __call__ = StubGenerator.__call__


@dataclass
class PolicyCandidateGenerator:
    """Samples candidate responses from a toy policy conditioned on the context."""

    model: ToyLM
    n: int = 32
    temperature: float = 0.85
    max_len: int = 6

    def __post_init__(self) -> None:
        for name in ("n", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature}")

    def __call__(self, context: str, source: SourceSample,
                 rng: np.random.Generator) -> list[str]:
        scored = sample(self.model, assemble_prompt(context, source.question), self.n,
                        self.temperature, self.max_len, rng)
        return [s.text for s in scored]
