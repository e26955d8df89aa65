"""A tiny differentiable autoregressive scorer over a closed vocabulary.

Architecture: the context is mean-pooled through an embedding table, passed
through one tanh layer, and added to the previous response token's embedding
to produce per-step logits (a conditional bigram model with a context summary).
Small enough that haystack dilution measurably hurts it, which is the point.

Checkpoint format (JSON, ``format_version`` 1): ``tokens`` (vocabulary, in
order), ``hidden_dim``, ``seed``, and ``arrays`` holding base64-encoded raw
little-endian float64 bytes for ``emb`` (V x d, row-major), ``ctx_w`` (d x d)
and ``out_w`` (d x V).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "assemble_prompt",
    "Vocab",
    "ToyLM",
    "ScoredSequence",
    "bag_of_tokens",
    "encode_prompts",
    "encode_contexts",
    "pad_responses",
    "score_rows",
    "logprob",
    "decode_rows",
    "sample",
    "greedy_decode",
    "logprob_with_grad",
    "freeze",
    "save_model",
    "load_model",
]

BOS = "<bos>"
EOS = "<eos>"
SEP = "<sep>"


def assemble_prompt(context_text: str, question: str) -> list[str]:
    """Prompt tokens: the context, then ``SEP``, then the question."""
    return context_text.split() + [SEP] + question.split()


@dataclass(frozen=True)
class Vocab:
    """Ordered token set; must contain the three specials and >= 8 entries.

    Each object also holds the read-only :func:`encode_contexts` row of
    every (context, question) pair it has encoded, so a pair is tokenized
    once per object; equal objects do not share rows.
    """

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        if len(self.tokens) < 8:
            raise ValueError("vocabulary must hold at least 8 tokens")
        for special in (BOS, EOS, SEP):
            if special not in self.tokens:
                raise ValueError(f"vocabulary must contain {special}")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})
        object.__setattr__(self, "_rows", {})  # (context, question) -> (V,) row

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def bos_id(self) -> int:
        return self._index[BOS]

    @property
    def eos_id(self) -> int:
        return self._index[EOS]

    @property
    def sep_id(self) -> int:
        return self._index[SEP]

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        try:
            return np.array(list(map(self._index.__getitem__, tokens)), dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"token not in vocabulary: {exc.args[0]!r}") from None

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[int(i)] for i in ids]


class ToyLM:
    """Mean-pooled-context conditional bigram scorer with float64 parameters."""

    def __init__(self, vocab: Vocab, hidden_dim: int = 16, seed: int = 0,
                 _params: dict[str, np.ndarray] | None = None):
        self.vocab = vocab
        self.hidden_dim = hidden_dim
        self.seed = seed
        self.frozen = False
        if _params is not None:
            self.params = _params
        else:
            rng = np.random.default_rng(seed)
            v, d = vocab.size, hidden_dim
            # Xavier-style scales, shrunk 10x so the model starts near-uniform.
            self.params = {
                "emb": rng.normal(0.0, 0.1 * np.sqrt(2.0 / (v + d)), (v, d)),
                "ctx_w": rng.normal(0.0, 0.1 * np.sqrt(1.0 / d), (d, d)),
                "out_w": rng.normal(0.0, 0.1 * np.sqrt(2.0 / (d + v)), (d, v)),
            }

    def hidden_states(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pooled context embeddings, tanh hidden states), both (B, d), of B
        :func:`bag_of_tokens` rows."""
        pooled = counts @ self.params["emb"]
        return pooled, np.tanh(pooled @ self.params["ctx_w"].T)

    def context_hidden(self, context_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pooled context embedding, tanh hidden state) of one prompt."""
        pooled, hidden = self.hidden_states(bag_of_tokens(context_ids, self.vocab.size)[None])
        return pooled[0], hidden[0]

    def step_logits(self, hidden: np.ndarray, prev_id: int | np.ndarray) -> np.ndarray:
        """Next-token logits: (V,) for one hidden state, (B, V) for B rows."""
        state = hidden + self.params["emb"][prev_id]
        return state @ self.params["out_w"]

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def clone(self) -> "ToyLM":
        return ToyLM(self.vocab, self.hidden_dim, self.seed,
                     _params={k: v.copy() for k, v in self.params.items()})


@dataclass
class ScoredSequence:
    """A response with its exact sequence log-probability."""

    tokens: tuple[str, ...]
    total_logprob: float
    per_token_logprobs: tuple[float, ...]

    @property
    def text(self) -> str:
        return " ".join(t for t in self.tokens if t != EOS)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax of each row (over the last axis)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def bag_of_tokens(ids: np.ndarray, size: int) -> np.ndarray:
    """Token counts of a prompt divided by its length: the (size,) vector whose
    product with the embedding table is the mean-pooled context. All zeros for
    an empty prompt."""
    counts = np.bincount(ids, minlength=size).astype(np.float64)
    return counts / len(ids) if len(ids) else counts


def encode_prompts(vocab: Vocab, prompts: Iterable[Sequence[str]]) -> np.ndarray:
    """The (B, V) :func:`bag_of_tokens` rows of B token-list prompts. Only one
    prompt's tokens need be alive at a time when ``prompts`` is a generator."""
    return np.array([bag_of_tokens(vocab.encode(p), vocab.size) for p in prompts]
                    ).reshape(-1, vocab.size)


def encode_contexts(vocab: Vocab, contexts: Sequence[str], questions: Sequence[str]
                    ) -> np.ndarray:
    """The (B, V) rows ``bag_of_tokens(vocab.encode(assemble_prompt(c, q)), V)``
    of B (context, question) pairs, in a new array.

    A pair that ``vocab`` has encoded before is read from its row cache; any
    other is encoded by that definition, in row order, and cached read-only.
    An out-of-vocabulary token raises ``ValueError`` naming the first row
    that holds one (``record i``) and that row's first such token; a row
    that fails is not cached.
    """
    if len(contexts) != len(questions):
        raise ValueError("need one question per context")
    size, cache = vocab.size, vocab._rows
    pairs = list(zip(contexts, questions))
    for i, pair in enumerate(pairs):
        if pair not in cache:
            try:
                row = bag_of_tokens(vocab.encode(assemble_prompt(*pair)), size)
            except ValueError as exc:
                raise ValueError(f"record {i}: {exc}") from None
            row.setflags(write=False)
            cache[pair] = row
    return np.array([cache[pair] for pair in pairs]).reshape(-1, size)


def pad_responses(responses: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) response ids, zero-padded to the longest, and the (B, T) mask of
    real positions."""
    lengths = np.fromiter(map(len, responses), dtype=np.int64, count=len(responses))
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    if len(responses):
        ids[mask] = np.concatenate(responses)
    return ids, mask


def score_rows(model: ToyLM, counts: np.ndarray, resp_ids: np.ndarray, mask: np.ndarray
               ) -> tuple[np.ndarray, Callable[[np.ndarray], dict[str, np.ndarray]]]:
    """Teacher-forced scores of B (prompt, response) rows in one pass.

    ``counts`` is (B, V), one :func:`bag_of_tokens` row per prompt;
    ``resp_ids`` and ``mask`` are (B, T) as :func:`pad_responses` builds them
    (each row's real positions first). Returns the (B, T) per-token
    log-probabilities, exactly 0 at padded positions, so row sums are the
    sequence log-probabilities, and ``backward``: given per-row weights
    ``upstream`` (B,), it returns ``sum_b upstream[b] * d logprob_b / d params``
    from this pass's activations (so call it before the parameters change);
    rows whose weight is 0 are left out.
    """
    emb, ctx_w, out_w = model.params["emb"], model.params["ctx_w"], model.params["out_w"]
    pooled, hidden = model.hidden_states(counts)
    prev = np.concatenate([np.full((len(resp_ids), 1), model.vocab.bos_id, dtype=np.int64),
                           resp_ids[:, :-1]], axis=1)
    rows, cols = np.nonzero(mask)
    prev, tok = prev[rows, cols], resp_ids[rows, cols]
    state = hidden[rows] + emb[prev]
    logp = _log_softmax(state @ out_w)
    per_token = np.zeros(mask.shape)
    per_token[rows, cols] = logp[np.arange(len(tok)), tok]

    def backward(upstream: np.ndarray) -> dict[str, np.ndarray]:
        keep = upstream != 0.0
        live = np.flatnonzero(keep)
        at = keep[rows]
        row_of = (np.cumsum(keep) - 1)[rows[at]]  # each position's rank among the live rows
        # d logprob_t / d logits = onehot - softmax
        d_logits = -np.exp(logp[at])
        d_logits[np.arange(len(row_of)), tok[at]] += 1.0
        d_logits *= upstream[live][row_of, None]
        d_state = d_logits @ out_w.T
        # Each live row's d_state summed over its positions, and d emb[prev] +=
        # d_state, each in one bincount over (row or token, coordinate) bins.
        d = emb.shape[1]
        d_row = np.bincount((row_of[:, None] * d + np.arange(d)).ravel(), d_state.ravel(),
                            minlength=len(live) * d).reshape(len(live), d)
        # hidden = tanh(pooled @ ctx_w.T); pooled = counts @ emb
        d_pre = (1.0 - hidden[live] ** 2) * d_row
        bins = (prev[at, None] * d + np.arange(d)).ravel()
        d_prev = np.bincount(bins, d_state.ravel(), minlength=emb.size).reshape(emb.shape)
        return {"emb": d_prev + counts[live].T @ (d_pre @ ctx_w),
                "ctx_w": d_pre.T @ pooled[live],
                "out_w": state[at].T @ d_logits}

    return per_token, backward


def _encode_rows(vocab: Vocab, items: Sequence[tuple[Sequence[str], Sequence[str]]]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`score_rows` input for (context, response) token lists."""
    if any(not len(resp) for _, resp in items):
        raise ValueError("response must be non-empty")
    return (encode_prompts(vocab, [ctx for ctx, _ in items]),
            *pad_responses([vocab.encode(resp) for _, resp in items]))


def _scored(response: Sequence[str], per_token: np.ndarray) -> ScoredSequence:
    values = per_token[:len(response)].tolist()
    return ScoredSequence(tokens=tuple(response), total_logprob=float(sum(values)),
                          per_token_logprobs=tuple(values))


def logprob(model: ToyLM, context: Sequence[str], response: Sequence[str]) -> ScoredSequence:
    """Teacher-forced log-probability of ``response`` given ``context``."""
    per_token, _ = score_rows(model, *_encode_rows(model.vocab, [(context, response)]))
    return _scored(response, per_token[0])


def decode_rows(model: ToyLM, counts: np.ndarray, max_len: int, temperature: float = 0.0,
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Decode B prompts together in at most ``max_len`` vectorized steps.

    ``counts`` is (B, V), one :func:`bag_of_tokens` row per prompt. Temperature
    0 is greedy. Otherwise each step draws one ``rng.random`` double per
    unfinished row, in row order, and inverts that row's CDF exactly as
    ``Generator.choice(p=...)`` does. A row stops after it emits EOS or at
    ``max_len`` tokens.

    Returns ``(ids, lengths)``: the (B, max_len) int64 token ids, 0 past each
    row's length, and the (B,) number of tokens each row emitted.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature > 0 and rng is None:
        raise ValueError("sampling at a positive temperature needs an rng")
    vocab = model.vocab
    _, hidden = model.hidden_states(counts)
    ids = np.zeros((len(counts), max_len), dtype=np.int64)
    lengths = np.zeros(len(counts), dtype=np.int64)
    prev = np.full(len(counts), vocab.bos_id)
    live = np.arange(len(counts))  # rows that have not emitted EOS
    for step in range(max_len):
        if not live.size:
            break
        logits = model.step_logits(hidden[live], prev[live])
        if temperature == 0.0:
            tok = np.argmax(logits, axis=1)
        else:
            probs = np.exp(_log_softmax(logits / temperature))
            probs /= probs.sum(axis=1, keepdims=True)
            cdf = probs.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            # searchsorted(cdf, u, side="right") of each row
            tok = (cdf <= rng.random(len(live))[:, None]).sum(axis=1)
        ids[live, step] = tok
        lengths[live] += 1
        prev[live] = tok
        live = live[tok != vocab.eos_id]
    return ids, lengths


def sample(model: ToyLM, context: Sequence[str], n: int, temperature: float,
           max_len: int, rng: np.random.Generator | None) -> list[ScoredSequence]:
    """``n`` ancestral samples at the given temperature; 0 means greedy (and
    needs no ``rng``). One :func:`decode_rows` call over ``n`` copies of the
    prompt, so with ``max_len`` > 1 the draws are made step by step across
    the samples, then one :func:`score_rows` pass gives the log-probabilities
    of the decoded tokens under the model's own (temperature 1) scores."""
    rows = np.repeat(encode_prompts(model.vocab, [context]), n, axis=0)
    ids, lengths = decode_rows(model, rows, max_len, temperature, rng)
    per_token, _ = score_rows(model, rows, ids, np.arange(max_len) < lengths[:, None])
    return [_scored(model.vocab.decode(row[:k]), lps)
            for row, lps, k in zip(ids, per_token, lengths)]


def greedy_decode(model: ToyLM, context: Sequence[str], max_len: int = 4) -> ScoredSequence:
    return sample(model, context, 1, 0.0, max_len, None)[0]


def logprob_with_grad(model: ToyLM, context: Sequence[str], response: Sequence[str],
                      upstream: float = 1.0,
                      grads: dict[str, np.ndarray] | None = None
                      ) -> tuple[ScoredSequence, dict[str, np.ndarray]]:
    """Score a response and accumulate ``upstream * d logprob / d params``."""
    per_token, backward = score_rows(model, *_encode_rows(model.vocab, [(context, response)]))
    if grads is None:
        grads = model.zero_grads()
    for key, g in backward(np.array([upstream], dtype=np.float64)).items():
        grads[key] += g
    return _scored(response, per_token[0]), grads


def freeze(model: ToyLM) -> ToyLM:
    """Deep, immutable snapshot for use as a reference policy."""
    snapshot = model.clone()
    for arr in snapshot.params.values():
        arr.setflags(write=False)
    snapshot.frozen = True
    return snapshot


def save_model(model: ToyLM, path: str | Path) -> None:
    arrays = {k: base64.b64encode(np.ascontiguousarray(v, dtype="<f8").tobytes()).decode("ascii")
              for k, v in model.params.items()}
    payload = {
        "format_version": 1,
        "tokens": list(model.vocab.tokens),
        "hidden_dim": model.hidden_dim,
        "seed": model.seed,
        "arrays": arrays,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_model(path: str | Path) -> ToyLM:
    """Read a checkpoint; a missing field, a ``format_version`` that is not
    the integer 1, ``tokens`` that are not a list of strings, a ``hidden_dim``
    that is not an integer >= 1, a ``seed`` that is not an integer, or a
    wrongly sized array or one with a non-finite entry, raises ValueError
    naming the path."""
    try:
        payload = json.loads(Path(path).read_text())
        version, tokens = payload["format_version"], payload["tokens"]
        if type(version) is not int or version != 1:
            raise ValueError(f"unsupported checkpoint version: {version!r}")
        if type(tokens) is not list or not all(type(t) is str for t in tokens):
            raise ValueError("tokens must be a list of strings")
        vocab = Vocab(tuple(tokens))
        d, seed = payload["hidden_dim"], payload["seed"]
        if type(d) is not int or d < 1:
            raise ValueError(f"hidden_dim must be an integer >= 1, got {d!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        raws = {name: base64.b64decode(payload["arrays"][name])
                for name in ("emb", "ctx_w", "out_w")}
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: bad checkpoint: {exc}") from None
    v = vocab.size
    params = {}
    for name, (rows, cols) in {"emb": (v, d), "ctx_w": (d, d), "out_w": (d, v)}.items():
        if len(raws[name]) != 8 * rows * cols:
            raise ValueError(f"{path}: array {name!r} holds {len(raws[name])} bytes, not the "
                             f"{8 * rows * cols} of a {rows}x{cols} float64 array")
        params[name] = np.frombuffer(raws[name], dtype="<f8").astype(np.float64).reshape(rows, cols)
        if not np.isfinite(params[name]).all():
            raise ValueError(f"{path}: array {name!r} holds a non-finite entry")
    return ToyLM(vocab, d, seed, _params=params)
