"""Haystack synthesis and preference-pair curation.

Pipeline per source: embed the supporting documents among randomly drawn
distractors at two target lengths (short and long), sample candidate responses
from a pluggable generator conditioned on the short context, split them by
substring exact match against the gold answer, and draw one chosen and one
rejected response. Sources where every candidate lands on one side are
discarded. The whole pipeline is a pure function of (inputs, seed).
"""

from __future__ import annotations

import functools
import json
import logging
import math
import string
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import SourceSample
from .policy import SEP

__all__ = [
    "HaystackConfig",
    "ForgedSample",
    "ForgeStats",
    "InsufficientPoolError",
    "DistractorPool",
    "token_count",
    "synthesize_context",
    "sub_em",
    "iter_forged",
    "forge_dataset",
    "text_lines",
    "iter_source_jsonl",
    "read_distractor_pool",
    "write_forged_jsonl",
    "read_forged_jsonl",
]

log = logging.getLogger(__name__)

ANSWER_MARKER = "the answer is:"
_ARTICLES = frozenset({"a", "an", "the"})
_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


class InsufficientPoolError(RuntimeError):
    """The distractor pool ran out before the target length was reached."""


@dataclass
class HaystackConfig:
    """Target context lengths (whitespace tokens) and reproducibility seed."""

    target_short_tokens: int = 1100
    target_long_tokens: int = 7500
    tolerance_frac: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_short_tokens <= 0 or self.target_long_tokens <= 0:
            raise ValueError("token targets must be positive")
        if self.target_short_tokens >= self.target_long_tokens:
            raise ValueError("short target must be below the long target")
        if not (math.isfinite(self.tolerance_frac) and self.tolerance_frac >= 0):
            raise ValueError(f"tolerance_frac must be a finite number >= 0, "
                             f"got {self.tolerance_frac}")
        tol = self.tolerance_frac
        short, long = ((t * (1 - tol), t * (1 + tol))
                       for t in (self.target_short_tokens, self.target_long_tokens))
        if short[1] >= long[0]:
            raise ValueError(f"tolerance_frac {tol} makes the length bands overlap: "
                             f"short [{short[0]:.0f}, {short[1]:.0f}], "
                             f"long [{long[0]:.0f}, {long[1]:.0f}]")

    @property
    def target_compression(self) -> float:
        return self.target_short_tokens / self.target_long_tokens


@dataclass
class ForgedSample:
    """One emitted training record."""

    question: str
    answer: str
    x_short: str
    x_long: str
    y_w: str
    y_l: str

    def check_invariants(self, cfg: HaystackConfig,
                         supporting_docs: Sequence[str] | None = None) -> tuple[int, int]:
        """Raise if any emission invariant is broken; return the (short, long)
        token counts measured."""
        counts = []
        for target, text, name in ((cfg.target_short_tokens, self.x_short, "x_short"),
                                   (cfg.target_long_tokens, self.x_long, "x_long")):
            count = token_count(text)
            if not (target * (1 - cfg.tolerance_frac) - 1e-9 <= count
                    <= target * (1 + cfg.tolerance_frac) + 1e-9):
                raise ValueError(f"{name} has {count} tokens, outside tolerance of {target}")
            if supporting_docs is not None:
                for doc in supporting_docs:
                    if doc not in text:
                        raise ValueError(f"supporting document missing from {name}: {doc!r}")
            counts.append(count)
        if not sub_em(self.y_w, self.answer):
            raise ValueError("chosen response fails substring exact match")
        if sub_em(self.y_l, self.answer):
            raise ValueError("rejected response passes substring exact match")
        return counts[0], counts[1]


# From this many characters on, an ASCII text is counted by one numpy scan of
# its bytes instead of ``str.split``, whose token list then costs more than
# the scan's fixed overhead.
_SCAN_MIN_CHARS = 2048


def token_count(text: str) -> int:
    """Whitespace token count — the unit all length targets are stated in.

    Exactly ``len(text.split())``, without building the token list for a long
    ASCII text: a token ends at each non-whitespace byte followed by
    whitespace or by the end of the text."""
    if len(text) < _SCAN_MIN_CHARS or not text.isascii():
        return len(text.split())
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # str.split's ASCII whitespace is 9-13 (\t \n \v \f \r) and 28-32 (\x1c-\x1f
    # and space); uint8 subtraction wraps, so each range is one comparison.
    space = ((b - 9) <= 4) | ((b - 28) <= 4)
    return int(np.count_nonzero(space[:-1] < space[1:])) + (not space[-1])


class DistractorPool:
    """Distractor documents: ``counts`` holds each one's :func:`token_count`
    and ``heads`` the id of its first token (ids in ``head_ids``). A document
    with no tokens is rejected."""

    def __init__(self, docs: Sequence[str]):
        self.head_ids: dict[str, int] = {}
        counts, heads = [], []
        for i, doc in enumerate(docs):
            head = doc.split(None, 1)
            if not head:
                raise ValueError(f"distractor {i} has no tokens")
            counts.append(token_count(doc))
            heads.append(self.head_ids.setdefault(head[0], len(self.head_ids)))
        self.docs = np.array(docs, dtype=object)
        self.counts = np.array(counts, dtype=np.int64)
        self.heads = np.array(heads, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.docs)

    def subset(self, keep: np.ndarray) -> DistractorPool:
        """The documents where the boolean mask ``keep`` is set, in pool order."""
        sub = object.__new__(DistractorPool)
        sub.head_ids = self.head_ids
        sub.docs, sub.counts, sub.heads = self.docs[keep], self.counts[keep], self.heads[keep]
        return sub


def synthesize_context(src: SourceSample, pool: DistractorPool,
                       target_tokens: int, rng: np.random.Generator, *,
                       tolerance_frac: float = 0.05) -> str:
    """Supporting docs plus sampled distractors, shuffled and joined by ``SEP``.

    Distractors are drawn without replacement in a seeded random order until
    the joined length enters the tolerance band; docs that would overshoot the
    band are skipped. Raises :class:`InsufficientPoolError` if the pool runs
    out first, and ValueError if the supporting docs alone overshoot the band.
    """
    if not (math.isfinite(tolerance_frac) and tolerance_frac >= 0):
        raise ValueError(f"tolerance_frac must be a finite number >= 0, got {tolerance_frac}")
    sep_cost = token_count(SEP)
    supporting = src.supporting_docs
    total = sum(token_count(d) for d in supporting) + sep_cost * (len(supporting) - 1)
    lower = target_tokens * (1 - tolerance_frac)
    upper = target_tokens * (1 + tolerance_frac)
    if total > upper + 1e-9:
        raise ValueError(f"supporting documents alone exceed the target length: {total} "
                         f"tokens for a target of {target_tokens} (band [{lower:.0f}, "
                         f"{upper:.0f}])")
    perm = rng.permutation(len(pool))
    costs = pool.counts[perm] + sep_cost
    take = np.zeros(len(perm), dtype=bool)
    start = 0
    # Every draw below the band fits it (lower <= upper), so the draws up to
    # the first running total >= lower are all taken; the crossing draw is
    # taken if it stays inside the band, else skipped, and the fill goes on
    # from the next draw.
    while total < lower and start < len(perm):
        running = total + np.cumsum(costs[start:])
        cross = int(np.searchsorted(running, lower))
        fits = cross < len(running) and int(running[cross]) <= upper + 1e-9
        stop = cross + 1 if fits else cross
        take[start:start + stop] = True
        if stop:
            total = int(running[stop - 1])
        start += cross + 1
    if total < lower - 1e-9:
        raise InsufficientPoolError(
            f"pool exhausted at {total} tokens; target band [{lower:.0f}, {upper:.0f}]")
    docs = np.concatenate((np.array(supporting, dtype=object), pool.docs[perm[take]]))
    return f" {SEP} ".join(docs[rng.permutation(len(docs))].tolist())


@functools.lru_cache(maxsize=4096)
def _normalize(text: str) -> str:
    """Lowercase, punctuation stripped, articles dropped, whitespace collapsed.
    Memoized: gold answers and decoded texts repeat across calls."""
    words = text.lower().translate(_PUNCT_TABLE).split()
    return " ".join(w for w in words if w not in _ARTICLES)


def _answer_span(prediction: str) -> str:
    """The text after the last answer marker (case-insensitive), else all of it."""
    pos = prediction.lower().rfind(ANSWER_MARKER)
    return prediction[pos + len(ANSWER_MARKER):] if pos >= 0 else prediction


def sub_em(prediction: str, gold: str) -> bool:
    """Substring exact match on the prediction's answer span.

    The answer span is the text after the last ``"The answer is:"`` marker
    (case-insensitive) when present, else the whole prediction. Both sides are
    normalized: lowercase, punctuation stripped, whitespace collapsed,
    articles dropped.
    """
    return _normalize(gold) in _normalize(_answer_span(prediction))


def _partition(candidates: Sequence[str], gold: str) -> tuple[list[str], list[str]]:
    """Candidates that pass :func:`sub_em` and those that fail, each in input
    order; the gold answer is normalized once."""
    target = _normalize(gold)
    correct, incorrect = [], []
    for c in candidates:
        (correct if target in _normalize(_answer_span(c)) else incorrect).append(c)
    return correct, incorrect


def _draw_pair(correct: Sequence[str], incorrect: Sequence[str],
               rng: np.random.Generator) -> tuple[str, str]:
    return (correct[int(rng.integers(len(correct)))],
            incorrect[int(rng.integers(len(incorrect)))])


@dataclass
class ForgeStats:
    """Sidecar statistics for one forge run."""

    sources_seen: int = 0
    emitted: int = 0
    discarded_all_correct: int = 0
    discarded_all_incorrect: int = 0
    discarded_intersection: int = 0
    generator_failures: int = 0
    mean_short_tokens: float = 0.0
    mean_long_tokens: float = 0.0
    achieved_compression: float = 0.0
    target_compression: float = 0.0
    discard_rate: float = 0.0
    # Counter name -> index (in the input sources) of the first source it counted.
    discard_examples: dict[str, int] = field(default_factory=dict)

    def discard(self, counter: str, idx: int) -> None:
        """Count source ``idx`` under ``counter``, keeping the first as an example."""
        setattr(self, counter, getattr(self, counter) + 1)
        self.discard_examples.setdefault(counter, idx)

    def finalize(self, short_total: int, long_total: int, cfg: HaystackConfig) -> None:
        """Fill the derived fields from the emitted samples' summed (short,
        long) token counts."""
        if self.emitted:
            self.mean_short_tokens = short_total / self.emitted
            self.mean_long_tokens = long_total / self.emitted
            self.achieved_compression = self.mean_short_tokens / self.mean_long_tokens
        self.target_compression = cfg.target_compression
        if self.sources_seen:
            self.discard_rate = 1.0 - self.emitted / self.sources_seen

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _conflict_free_pool(pool: DistractorPool, src: SourceSample) -> DistractorPool:
    # A haystack doc opening with a supporting doc's subject could contradict
    # the needle; skip those.
    firsts = {d.split(None, 1)[0] for d in src.supporting_docs}
    conflict = np.zeros(len(pool.head_ids), dtype=bool)  # indexed by head id
    conflict[[pool.head_ids[h] for h in firsts if h in pool.head_ids]] = True
    return pool.subset(~conflict[pool.heads])


Generator = Callable[[str, SourceSample, np.random.Generator], list[str]]


def _generate(generator: Generator, context: str, src: SourceSample, rng: np.random.Generator,
              idx: int, stats: ForgeStats) -> tuple[list[str], list[str]] | None:
    """The candidates for ``context`` split by :func:`sub_em` into (correct,
    incorrect), or None once a failed call (one that raises or returns no
    candidates) is counted under ``generator_failures``."""
    try:
        candidates = generator(context, src, rng)
    except Exception:
        log.warning("candidate generation failed for source %d", idx, exc_info=True)
        candidates = []
    if not candidates:
        stats.discard("generator_failures", idx)
        return None
    return _partition(candidates, src.answer)


def iter_forged(sources: Iterable[SourceSample], pool: Sequence[str],
                generator: Generator, cfg: HaystackConfig, stats: ForgeStats,
                n_target: int | None = None, *, condition_on: str = "short",
                intersection: bool = False) -> Iterator[ForgedSample]:
    """The pipeline as a stream: each sample is yielded as soon as it passes
    :meth:`ForgedSample.check_invariants`; deterministic given (inputs,
    cfg.seed).

    ``stats`` is filled as sources are read and is complete (finalized) only
    once the iterator is exhausted. ``condition_on`` selects which context
    variant the generator sees for the emitted pair ("short" or "long");
    ``intersection`` additionally requires that the other variant also
    yields a valid pair. Nothing runs, and no argument is checked, before the
    first sample is asked for.
    """
    if condition_on not in ("short", "long"):
        raise ValueError("condition_on must be 'short' or 'long'")
    short_total = long_total = 0
    distractors = DistractorPool(pool)
    for idx, src in enumerate(sources):
        if n_target is not None and stats.emitted >= n_target:
            break
        stats.sources_seen += 1
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(idx,)))
        local_pool = _conflict_free_pool(distractors, src)
        try:
            x_short = synthesize_context(src, local_pool, cfg.target_short_tokens, rng,
                                         tolerance_frac=cfg.tolerance_frac)
            x_long = synthesize_context(src, local_pool, cfg.target_long_tokens, rng,
                                        tolerance_frac=cfg.tolerance_frac)
        except (InsufficientPoolError, ValueError) as exc:
            raise type(exc)(f"source {idx}: {exc}") from None
        primary, other = (x_short, x_long) if condition_on == "short" else (x_long, x_short)
        split = _generate(generator, primary, src, rng, idx, stats)
        if split is None:
            continue
        correct, incorrect = split
        if not incorrect:
            stats.discard("discarded_all_correct", idx)
            continue
        if not correct:
            stats.discard("discarded_all_incorrect", idx)
            continue
        y_w, y_l = _draw_pair(correct, incorrect, rng)
        if intersection:
            split = _generate(generator, other, src, rng, idx, stats)
            if split is None:
                continue
            if not all(split):
                stats.discard("discarded_intersection", idx)
                continue
        sample = ForgedSample(question=src.question, answer=src.answer,
                              x_short=x_short, x_long=x_long, y_w=y_w, y_l=y_l)
        n_short, n_long = sample.check_invariants(cfg, supporting_docs=src.supporting_docs)
        stats.emitted += 1
        short_total += n_short
        long_total += n_long
        yield sample
    stats.finalize(short_total, long_total, cfg)


def forge_dataset(sources: Sequence[SourceSample], pool: Sequence[str],
                  generator: Generator, cfg: HaystackConfig,
                  n_target: int | None = None, *,
                  condition_on: str = "short",
                  intersection: bool = False) -> tuple[list[ForgedSample], ForgeStats]:
    """:func:`iter_forged` collected into a list, with its finalized stats."""
    stats = ForgeStats()
    return list(iter_forged(sources, pool, generator, cfg, stats, n_target,
                            condition_on=condition_on, intersection=intersection)), stats


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line without its ending) for each line of a UTF-8 text
    file, read one line at a time; LF, CR-LF and a lone CR each end a line.
    A byte that is not valid UTF-8 raises ValueError naming the path and the
    line."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                # surrogateescape decodes an undecodable byte b to U+DC00 + b.
                raise ValueError(f"{path}: line {lineno}: not valid UTF-8 (byte "
                                 f"0x{ord(line[exc.start]) - 0xDC00:02x} at column "
                                 f"{exc.start + 1})") from None
            yield lineno, line.rstrip("\n")


def _jsonl_records(path: str | Path, parse: Callable[[object], object]) -> Iterator:
    """``parse`` of the JSON value of each non-blank line, read as the values
    are asked for; a line that is not JSON, or whose value ``parse`` rejects,
    raises ValueError naming the path and the line."""
    for lineno, line in text_lines(path):
        if line.strip():
            try:
                record = parse(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise ValueError(f"{path}: malformed JSONL at line {lineno}: {exc}") from exc
            yield record


def _source(obj) -> SourceSample:
    docs = obj["supporting_docs"]
    for key in ("question", "answer"):
        if not isinstance(obj[key], str):
            raise TypeError(f"field {key!r} must be a string, got {obj[key]!r}")
    if not isinstance(docs, list) or not all(isinstance(d, str) for d in docs):
        raise TypeError(f"field 'supporting_docs' must be a list of strings, got {docs!r}")
    return SourceSample(question=obj["question"], answer=obj["answer"],
                        supporting_docs=tuple(docs))


def iter_source_jsonl(path: str | Path) -> Iterator[SourceSample]:
    """SourceSample records, one line at a time, so a consumer that stops
    early leaves the rest of the file unread (and unchecked); malformed
    lines, and fields that are not a string (``question``, ``answer``) or a
    list of strings (``supporting_docs``), report their line number."""
    return _jsonl_records(path, _source)


def _distractor(doc) -> str:
    if not isinstance(doc, str) or not doc.split(None, 1):
        raise ValueError(f"a distractor must be a non-empty JSON string, got {doc!r}")
    return doc


def read_distractor_pool(path: str | Path) -> list[str]:
    """Load distractor documents, one JSON string per non-blank line; a line
    that is not a non-empty JSON string raises ValueError naming the path and
    line."""
    return list(_jsonl_records(path, _distractor))


_FORGED_FIELDS = ("question", "answer", "x_short", "x_long", "y_w", "y_l")
# The bytes json.dumps writes unescaped: printable ASCII but '"' and '\\'.
_PLAIN = bytes(b for b in range(0x20, 0x7F) if b not in b'"\\')


def _json_string(text: str) -> str:
    """``json.dumps(text)``; text of plain bytes only is quoted as it is,
    without the per-character escaper."""
    if text.isascii() and not text.encode("ascii").translate(None, _PLAIN):
        return f'"{text}"'
    return json.dumps(text)


def write_forged_jsonl(samples: Iterable[ForgedSample], path: str | Path) -> None:
    """One ``json.dumps(record, sort_keys=True)`` line per sample, byte for
    byte, with each line built from its fields' JSON strings."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write("{" + ", ".join(f'"{k}": {_json_string(getattr(s, k))}'
                                     for k in sorted(_FORGED_FIELDS)) + "}\n")


def _forged(obj) -> ForgedSample:
    fields = {k: obj[k] for k in _FORGED_FIELDS}
    wrong = [k for k, value in fields.items() if not isinstance(value, str)]
    if wrong:
        raise TypeError(f"field {wrong[0]!r} must be a string, "
                        f"got {type(fields[wrong[0]]).__name__}")
    return ForgedSample(**fields)


def read_forged_jsonl(path: str | Path) -> list[ForgedSample]:
    return list(_jsonl_records(path, _forged))
