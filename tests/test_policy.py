"""Toy scorer: exact log-probabilities, sampling, cloning, serialization."""

import itertools
import math
import re

import numpy as np
import pytest

from shortlong.corpus import StubGenerator, build_chain_corpus, word_profile
from shortlong.forge import ForgedSample, HaystackConfig, forge_dataset, sub_em
from shortlong.policy import (BOS, EOS, SEP, ScoredSequence, ToyLM, Vocab, assemble_prompt,
                              bag_of_tokens, decode_rows, encode_contexts, encode_prompts,
                              greedy_decode, load_model, logprob, logprob_with_grad,
                              pad_responses, sample, save_model, score_rows)
from shortlong.training import evaluate

WORDS = ("w0", "w1", "w2", "w3", "w4", "w5", "w6")


@pytest.fixture
def vocab():
    return Vocab((BOS, EOS, SEP) + WORDS)


@pytest.fixture
def model(vocab):
    return ToyLM(vocab, hidden_dim=8, seed=3)


class TestVocab:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Vocab((BOS, EOS, SEP, "a"))

    def test_specials_required(self):
        with pytest.raises(ValueError):
            Vocab(tuple(f"t{i}" for i in range(10)))

    def test_unique(self):
        with pytest.raises(ValueError):
            Vocab((BOS, EOS, SEP, "a", "a", "b", "c", "d"))

    def test_out_of_vocab(self, vocab):
        with pytest.raises(ValueError, match="not in vocabulary"):
            vocab.encode(["nope"])


class TestLogprob:
    def test_zero_weights_are_uniform(self, vocab):
        m = ToyLM(vocab, hidden_dim=8, seed=0)
        for k in m.params:
            m.params[k][:] = 0.0
        scored = logprob(m, ["w0", "w1"], ["w2", "w3", EOS])
        v = vocab.size
        assert scored.total_logprob == pytest.approx(-3 * math.log(v), abs=1e-12)
        for lp in scored.per_token_logprobs:
            assert lp == pytest.approx(-math.log(v), abs=1e-12)

    def test_total_is_sum_of_per_token(self, model):
        scored = logprob(model, ["w0", "w5"], ["w1", "w2", EOS, "w3"])
        assert scored.total_logprob == pytest.approx(sum(scored.per_token_logprobs))
        assert all(lp <= 0 for lp in scored.per_token_logprobs)

    def test_normalization_by_enumeration(self, model):
        """Sum of exp(logprob) over all length-3 responses must be 1."""
        ctx = ["w0", "w1", "w6"]
        tokens = model.vocab.tokens
        total = 0.0
        for resp in itertools.product(tokens, repeat=3):
            total += math.exp(logprob(model, ctx, list(resp)).total_logprob)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_response_rejected(self, model):
        with pytest.raises(ValueError):
            logprob(model, ["w0"], [])

    def test_deterministic(self, model):
        a = logprob(model, ["w0"], ["w1", "w2"])
        b = logprob(model, ["w0"], ["w1", "w2"])
        assert a == b


class TestSampling:
    def test_greedy_all_identical(self, model):
        out = sample(model, ["w0", "w3"], n=5, temperature=0.0, max_len=4,
                     rng=np.random.default_rng(0))
        assert all(s.tokens == out[0].tokens for s in out)

    def test_seeded_reproducibility(self, model):
        a = sample(model, ["w1"], 32, 0.85, 6, np.random.default_rng(99))
        b = sample(model, ["w1"], 32, 0.85, 6, np.random.default_rng(99))
        assert [s.tokens for s in a] == [s.tokens for s in b]
        assert [s.total_logprob for s in a] == [s.total_logprob for s in b]

    def test_terminates_at_eos_or_max_len(self, model):
        for s in sample(model, ["w1"], 64, 1.2, 5, np.random.default_rng(4)):
            assert len(s.tokens) <= 5
            if len(s.tokens) < 5:
                assert s.tokens[-1] == EOS

    def test_recorded_scores_match_rescoring(self, model):
        for s in sample(model, ["w2", "w4"], 16, 0.85, 6, np.random.default_rng(5)):
            rescored = logprob(model, ["w2", "w4"], list(s.tokens))
            assert s.total_logprob == rescored.total_logprob
            assert s.per_token_logprobs == rescored.per_token_logprobs

    def test_one_step_frequencies_match_softmax(self, vocab):
        """Empirical first-token frequencies converge to the step distribution
        (multinomial 3-sigma bounds at n = 1e5)."""
        m = ToyLM(vocab, hidden_dim=8, seed=8)
        ctx = ["w0", "w1"]
        _, hidden = m.context_hidden(m.vocab.encode(ctx))
        logits = m.step_logits(hidden, m.vocab.bos_id)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        n = 100_000
        draws = sample(m, ctx, n, 1.0, 1, np.random.default_rng(17))
        counts = np.zeros(vocab.size)
        for s in draws:
            counts[vocab.encode([s.tokens[0]])[0]] += 1
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) <= 3.0 * sigma + 1e-9)

    def test_greedy_decode_helper(self, model):
        d = greedy_decode(model, ["w0"], max_len=3)
        assert isinstance(d, ScoredSequence)
        assert 1 <= len(d.tokens) <= 3


def _greedy_alone(model, context, max_len):
    """Per-token reference decoder: one prompt, one token per Python step."""
    _, hidden = model.context_hidden(model.vocab.encode(context))
    prev, tokens, lps = model.vocab.bos_id, [], []
    for _ in range(max_len):
        logits = model.step_logits(hidden, prev)
        shifted = logits - logits.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        prev = int(np.argmax(logits))
        tokens.append(model.vocab.tokens[prev])
        lps.append(float(logp[prev]))
        if prev == model.vocab.eos_id:
            break
    return tuple(tokens), lps


class TestDecodeRows:
    @pytest.fixture
    def sharp(self, vocab):
        """Scaled-up weights, so greedy decodes stop at EOS after 1, 3 or 4
        tokens for some of the prompts below and run to max_len for others."""
        m = ToyLM(vocab, hidden_dim=8, seed=6)
        for arr in m.params.values():
            arr *= 40.0
        return m

    def test_batch_equals_prompts_decoded_alone(self, sharp):
        rng = np.random.default_rng(0)
        prompts = [[]] + [list(rng.choice(WORDS, rng.integers(0, 12))) for _ in range(48)]
        max_len = 5
        counts = encode_prompts(sharp.vocab, prompts)
        ids, lengths = decode_rows(sharp, counts, max_len)
        assert ids.shape == (len(prompts), max_len)
        assert (ids.dtype, lengths.shape) == (np.int64, (len(prompts),))
        # The batch's log-probabilities as sample computes them: one
        # teacher-forced score_rows pass over the decoded ids.
        per_token, _ = score_rows(sharp, counts, ids, np.arange(max_len) < lengths[:, None])
        ends = set()
        for context, row, n, lps_row in zip(prompts, ids, lengths, per_token):
            tokens, lps = _greedy_alone(sharp, context, max_len)
            assert tuple(sharp.vocab.decode(row[:n])) == tokens
            assert np.allclose(lps_row[:n], lps, rtol=0.0, atol=1e-12)
            assert not row[n:].any() and not lps_row[n:].any()
            got = greedy_decode(sharp, context, max_len)
            assert got.tokens == tokens
            assert np.allclose(got.per_token_logprobs, lps, rtol=0.0, atol=1e-12)
            assert got.total_logprob == pytest.approx(sum(lps), abs=1e-12)
            ends.add((len(tokens), tokens[-1] == EOS))
        # Rows stop at EOS at different steps, and some are cut at max_len.
        assert {(1, True), (3, True), (4, True), (max_len, False)} <= ends

    def test_no_rows_and_no_steps(self, sharp):
        ids, lengths = decode_rows(sharp, encode_prompts(sharp.vocab, []), 4)
        assert (ids.shape, lengths.shape) == ((0, 4), (0,))
        ids, lengths = decode_rows(sharp, encode_prompts(sharp.vocab, [["w0"], []]), 0)
        assert (ids.shape, lengths.tolist()) == ((2, 0), [0, 0])
        assert [s.tokens for s in sample(sharp, ["w0"], 2, 0.0, 0, None)] == [(), ()]

    def test_negative_max_len_fails_by_name(self, sharp):
        message = r"^max_len must be >= 0, got -1$"
        with pytest.raises(ValueError, match=message):
            decode_rows(sharp, encode_prompts(sharp.vocab, [["w0"]]), -1)
        with pytest.raises(ValueError, match=message):
            sample(sharp, ["w0"], 2, 0.0, -1, None)
        eval_set = [ForgedSample("w0", "w1", "w2", "w2 w3", "w1", "w4")]
        with pytest.raises(ValueError, match=message):
            evaluate(sharp, eval_set, "short", sharp.vocab, max_len=-1)

    def test_evaluate_grades_greedy_decode_texts(self, sharp):
        """evaluate's texts, formed from token ids, grade exactly as the
        greedy ScoredSequence texts do, for rows that stop at EOS at
        different steps and rows cut at max_len."""
        rng = np.random.default_rng(1)
        max_len = 5

        def context():
            return " ".join(rng.choice(WORDS, rng.integers(1, 12)))

        eval_set = []
        for i in range(60):
            x_short, x_long = context(), context()
            decoded = greedy_decode(sharp, assemble_prompt(x_short, "w0"), max_len).text
            # A decoded word, a random word, or a special that only leaks into
            # a text if EOS or the padding past a row's length is not dropped.
            answer = [decoded.split()[-1] if decoded else EOS, str(rng.choice(WORDS)),
                      EOS, BOS][i % 4]
            eval_set.append(ForgedSample("w0", answer, x_short, x_long, answer, "w6"))
        for kind in ("short", "long"):
            hits = [sub_em(greedy_decode(
                sharp, assemble_prompt(getattr(s, f"x_{kind}"), s.question), max_len).text,
                s.answer) for s in eval_set]
            assert 0 < sum(hits) < len(hits)
            assert evaluate(sharp, eval_set, kind, sharp.vocab, max_len) == \
                sum(hits) / len(hits)

    def test_evaluate_grades_each_distinct_decode_once(self, sharp, monkeypatch):
        """evaluate makes one sub_em call per distinct (decoded ids, answer)
        pair and still returns the mean of the per-row greedy-decode grades,
        when each decoded row meets several different answers, pairs repeat,
        and rows stop at EOS or are cut at max_len."""
        import shortlong.training as training_mod

        rng = np.random.default_rng(2)
        max_len = 5
        contexts = [" ".join(rng.choice(WORDS, rng.integers(1, 12))) for _ in range(16)]
        decoded = [greedy_decode(sharp, assemble_prompt(c, "w0"), max_len) for c in contexts]
        assert {d.tokens[-1] == EOS for d in decoded} == {True, False}
        assert len({d.tokens for d in decoded}) < len(decoded)  # contexts that decode alike
        eval_set, expected, pairs = [], [], set()
        for c, d in zip(contexts, decoded):
            for answer in (d.text.split()[-1] if d.text else EOS, "w1", "w5", EOS) * 2:
                eval_set.append(ForgedSample("w0", answer, c, c, answer, "w6"))
                expected.append(sub_em(d.text, answer))
                pairs.add((d.tokens, answer))
        assert 0 < sum(expected) < len(expected)
        calls = []

        def spy(prediction, gold):
            calls.append((prediction, gold))
            return sub_em(prediction, gold)

        monkeypatch.setattr(training_mod, "sub_em", spy)
        assert evaluate(sharp, eval_set, "short", sharp.vocab, max_len) == \
            sum(expected) / len(expected)
        assert len(calls) == len(set(calls)) == len(pairs) < len(eval_set)

    def test_sampled_output_matches_recorded(self, vocab):
        """Temperature-0.85 draws for a fixed rng, recorded before decode_rows
        returned arrays: the same tokens and log-probabilities, exactly."""
        m = ToyLM(vocab, hidden_dim=8, seed=8)
        for arr in m.params.values():
            arr *= 10.0
        got = sample(m, ["w2", "w4"], 6, 0.85, 5, np.random.default_rng(5))
        assert [(" ".join(s.tokens), s.per_token_logprobs) for s in got] == [
            ("w2 w0 w0 w1 w0", (-3.0867636349711125, -2.0916166939766083, -2.342808745394931,
                                -2.2150634134342733, -2.392963305230806)),
            ("w2 <bos> <sep> w2 w5", (-3.0867636349711125, -1.9583777798352549,
                                      -1.8945169774251074, -2.6849813325439453,
                                      -1.7330441416996516)),
            ("w0 <bos> w6 w3 <bos>", (-1.8354936561012052, -2.3468506025575016,
                                      -3.0231762140463245, -1.1411891678222483,
                                      -2.19183998651098)),
            ("<eos>", (-2.5021863820449566,)),
            ("<bos> w6 w5 <eos>", (-1.490290387691808, -3.0231762140463245,
                                   -2.341147137013939, -2.700444428613051)),
            ("<sep> w3 w5 w3 w3", (-1.8945169774251074, -1.8353009599890517,
                                   -2.0999381462525046, -2.1544130786656694,
                                   -2.8083003334512786)),
        ]

    def test_one_step_draws_match_generator_choice(self, vocab):
        m = ToyLM(vocab, hidden_dim=8, seed=8)
        ctx = ["w2", "w6", "w6"]
        _, hidden = m.context_hidden(m.vocab.encode(ctx))
        logits = m.step_logits(hidden, m.vocab.bos_id)
        shifted = logits - logits.max()
        probs = np.exp(shifted - np.log(np.exp(shifted).sum()))
        probs = probs / probs.sum()
        rng = np.random.default_rng(23)
        expected = [vocab.tokens[rng.choice(vocab.size, p=probs)] for _ in range(2000)]
        got = sample(m, ctx, 2000, 1.0, 1, np.random.default_rng(23))
        assert [s.tokens[0] for s in got] == expected

    def test_positive_temperature_needs_rng(self, model):
        with pytest.raises(ValueError, match="rng"):
            sample(model, ["w0"], 2, 0.5, 3, None)


class TestParamGrad:
    def test_matches_finite_differences(self, model):
        """``score_rows``' backward with per-item weights is the gradient of
        the weighted sum of the items' log-probabilities."""
        rng = np.random.default_rng(2)
        items = [(["w0", "w3", "w1"], ["w2", EOS]), (["w5"], ["w6", "w1", EOS])]
        weights = rng.normal(size=len(items))

        def loss(lps):
            return float(weights @ lps)

        _, backward = score_rows(model, encode_prompts(model.vocab, [c for c, _ in items]),
                                 *pad_responses([model.vocab.encode(r) for _, r in items]))
        grads = backward(weights)
        h = 1e-5
        worst = 0.0
        for name, arr in model.params.items():
            flat = arr.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss(np.array([logprob(model, c, r).total_logprob
                                    for c, r in items]))
                flat[i] = keep - h
                down = loss(np.array([logprob(model, c, r).total_logprob
                                      for c, r in items]))
                flat[i] = keep
                fd = (up - down) / (2 * h)
                a = float(grads[name].ravel()[i])
                worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
        assert worst < 1e-4

    def test_composed_loss_gradcheck(self):
        from shortlong.gradcheck import check_policy_gradients

        report = check_policy_gradients(seed=0)
        assert report["max_relative_error"] < 1e-4


class TestScoreRows:
    ITEMS = [(["w0", "w3", "w1", "w3"], ["w2", EOS]),
             ([], ["w6", "w1", "w4", EOS]),
             (["w5"], [EOS]),
             (["w2", "w2", "w6", "w0", "w1", "w4", "w5"], ["w1", "w0", EOS])]

    def rows(self, vocab, items):
        counts = np.array([bag_of_tokens(vocab.encode(c), vocab.size) for c, _ in items])
        return (counts, *pad_responses([vocab.encode(r) for _, r in items]))

    def test_batch_rows_equal_rows_scored_alone(self, model, vocab):
        weights = np.array([0.7, -1.3, 2.1, 0.0])
        per_token, backward = score_rows(model, *self.rows(vocab, self.ITEMS))
        grads = backward(weights)
        total = model.zero_grads()
        for i, (ctx, resp) in enumerate(self.ITEMS):
            alone, alone_backward = score_rows(model, *self.rows(vocab, [(ctx, resp)]))
            row_grads = alone_backward(weights[i:i + 1])
            np.testing.assert_allclose(per_token[i, :len(resp)], alone[0], rtol=0, atol=1e-12)
            assert per_token[i].sum() == pytest.approx(
                logprob(model, ctx, resp).total_logprob, abs=1e-12)
            for k in total:
                total[k] += row_grads[k]
        for k in total:
            np.testing.assert_allclose(grads[k], total[k], rtol=0, atol=1e-12)

    def test_pad_responses(self):
        ids, mask = pad_responses([np.array([3, 4, 5]), np.array([], dtype=np.int64),
                                   np.array([6])])
        assert ids.dtype == np.int64 and mask.dtype == bool
        assert ids.tolist() == [[3, 4, 5], [0, 0, 0], [6, 0, 0]]
        assert mask.tolist() == [[True] * 3, [False] * 3, [True, False, False]]
        ids, mask = pad_responses([])
        assert ids.shape == mask.shape == (0, 0)

    def test_padding_contributes_nothing(self, model, vocab):
        counts, ids, mask = self.rows(vocab, self.ITEMS)
        weights = np.array([0.7, -1.3, 2.1, 0.4])
        per_token, backward = score_rows(model, counts, ids, mask)
        grads = backward(weights)
        assert np.all(per_token[~mask] == 0.0)
        garbage = np.where(mask, ids, vocab.size - 1)
        per_token2, backward2 = score_rows(model, counts, garbage, mask)
        grads2 = backward2(weights)
        np.testing.assert_array_equal(per_token, per_token2)
        for k in grads:
            np.testing.assert_array_equal(grads[k], grads2[k])

    def test_row_without_positions_contributes_nothing(self, model, vocab):
        """A weighted row whose mask is all False adds no gradient, wherever
        it sits among the segments the backward sums."""
        counts, ids, mask = self.rows(vocab, self.ITEMS)
        weights = np.array([0.7, -1.3, 2.1, 0.4])
        grads = score_rows(model, counts, ids, mask)[1](weights)
        for at in (0, 2, 4):
            empty = np.zeros((1, mask.shape[1]), dtype=bool)
            with_empty = score_rows(model, np.insert(counts, at, counts[1], axis=0),
                                    np.insert(ids, at, ids[1], axis=0),
                                    np.insert(mask, at, empty, axis=0))[1]
            got = with_empty(np.insert(weights, at, 5.0))
            for k in grads:
                np.testing.assert_allclose(got[k], grads[k], rtol=0, atol=1e-12)

    def test_zero_weights_give_zero_gradients(self, model, vocab):
        _, backward = score_rows(model, *self.rows(vocab, self.ITEMS))
        grads = backward(np.zeros(len(self.ITEMS)))
        assert set(grads) == set(model.params)
        for k, g in grads.items():
            assert g.shape == model.params[k].shape
            assert not g.any()

    def test_zero_weight_rows_are_left_out(self, model, vocab):
        """Rows of weight 0 contribute nothing: the backward equals the one
        over the batch with those rows removed."""
        counts, ids, mask = self.rows(vocab, self.ITEMS + self.ITEMS[::-1])
        weights = np.array([0.7, 0.0, 2.1, 0.0, 0.0, -0.5, 1.2, 0.0])
        kept = np.flatnonzero(weights)
        grads = score_rows(model, counts, ids, mask)[1](weights)
        alone = score_rows(model, counts[kept], ids[kept], mask[kept])[1](weights[kept])
        for k in grads:  # the two passes' matmuls may block differently
            np.testing.assert_allclose(grads[k], alone[k], rtol=0, atol=1e-12)

    def test_backward_is_repeatable_and_linear(self, model, vocab):
        """One pass serves any number of backward calls: each equals a fresh
        pass's backward bit for bit, and the gradient is linear in the weights."""
        rows = self.rows(vocab, self.ITEMS)
        _, backward = score_rows(model, *rows)
        a, b = np.array([0.7, -1.3, 2.1, 0.0]), np.array([0.0, 0.5, -0.25, 1.5])
        first = backward(a)
        again = backward(a)
        fresh = score_rows(model, *rows)[1](a)
        summed = backward(a + b)
        parts = backward(b)
        for k in first:
            np.testing.assert_array_equal(first[k], again[k])
            np.testing.assert_array_equal(first[k], fresh[k])
            np.testing.assert_allclose(summed[k], first[k] + parts[k], rtol=0, atol=1e-12)

    def test_logprob_with_grad_accumulates_one_row(self, model, vocab):
        ctx, resp = self.ITEMS[0]
        scored, grads = logprob_with_grad(model, ctx, resp, upstream=0.5)
        _, again = logprob_with_grad(model, ctx, resp, upstream=0.5, grads=grads)
        row = score_rows(model, *self.rows(vocab, [(ctx, resp)]))[1](np.array([1.0]))
        assert scored == logprob(model, ctx, resp)
        for k in row:
            np.testing.assert_allclose(again[k], row[k], rtol=1e-12, atol=1e-15)


def prompt_rows(vocab, contexts, questions):
    """The per-prompt reference that :func:`encode_contexts` must match."""
    return np.array([bag_of_tokens(vocab.encode(assemble_prompt(c, q)), vocab.size)
                     for c, q in zip(contexts, questions)]).reshape(-1, vocab.size)


def first_error(vocab, contexts, questions):
    """``record i: <message>`` of the first prompt the per-prompt path rejects."""
    for i, (c, q) in enumerate(zip(contexts, questions)):
        try:
            vocab.encode(assemble_prompt(c, q))
        except ValueError as exc:
            return f"record {i}: {exc}"
    return None


class TestEncodeContexts:
    # Joints between documents, several of which are not the split literal
    # " <sep> " (no spaces, other whitespace, doubled separators). "<sep>"
    # glued to a word makes an out-of-vocabulary token such as "w0<sep>".
    JOINTS = (" <sep> ", " <sep> ", " <sep>  ", "  <sep> ", " <sep> <sep> ", "<sep>",
              " <sep>", "<sep> ", "\t<sep>\n", "\xa0<sep>\xa0", " \u3000 ", "\n", "\t ", " ")
    SPACES = (" ", " ", " ", "  ", "\t", "\n", "\xa0", "\u3000")

    def fuzz_batch(self, rng, vocab, n_rows, clean):
        """Rows of repeated documents; with ``clean`` every row encodes."""
        words = WORDS + (SEP, BOS, EOS)
        docs = ["".join(rng.choice(self.SPACES) + rng.choice(words)
                        for _ in range(rng.integers(0, 6))) for _ in range(12)]
        # Some documents have no leading or trailing whitespace.
        docs = [d.strip() if rng.random() < 0.5 else d + rng.choice(self.SPACES) for d in docs]

        def row():
            k = int(rng.integers(0, 8))
            # Documents repeat across and within rows, as haystacks do.
            text = rng.choice(self.JOINTS).join(docs[int(rng.integers(len(docs)))]
                                                for _ in range(k))
            if rng.random() < 0.2:
                text = rng.choice(self.JOINTS) + text
            if rng.random() < 0.2:
                text = text + rng.choice(self.JOINTS)
            question = docs[int(rng.integers(len(docs)))] if rng.random() < 0.9 else ""
            return text, question

        contexts, questions = [], []
        while len(contexts) < n_rows:
            text, question = row()
            if not clean or first_error(vocab, [text], [question]) is None:
                contexts.append(text)
                questions.append(question)
        return contexts, questions

    def test_fuzz_equals_per_prompt_encoding(self, vocab):
        """Bit for bit the rows of the per-prompt path; where that path
        rejects a prompt, the same record and token."""
        rng = np.random.default_rng(2024)
        outcomes = set()
        for trial in range(80):
            # A fresh vocabulary has no cached rows: the first call encodes
            # every pair, and the second call reads the cache.
            vocab = Vocab(vocab.tokens)
            contexts, questions = self.fuzz_batch(rng, vocab, int(rng.integers(0, 20)),
                                                  clean=trial % 4 != 0)
            error = first_error(vocab, contexts, questions)
            outcomes.add(error is None)
            for _ in range(2):
                if error is None:
                    got = encode_contexts(vocab, contexts, questions)
                    assert got.shape == (len(contexts), vocab.size)
                    np.testing.assert_array_equal(got, prompt_rows(vocab, contexts, questions))
                else:
                    with pytest.raises(ValueError) as exc:
                        encode_contexts(vocab, contexts, questions)
                    assert str(exc.value) == error
        assert outcomes == {True, False}

    def test_edge_contexts(self, vocab):
        contexts = ["", " ", f" {SEP} ", f"{SEP}", f" {SEP}  {SEP} w1", f"w0 {SEP} {SEP} w1 ",
                    f"w0 {SEP} w0 {SEP} w0", "w2\xa0<sep>\u3000w3", "\tw4\n"]
        questions = ["w5", "", "w6 w6", "", "w0", "w1", "w2", "", "w3"]
        np.testing.assert_array_equal(encode_contexts(vocab, contexts, questions),
                                      prompt_rows(vocab, contexts, questions))
        assert encode_contexts(vocab, [], []).shape == (0, vocab.size)

    def test_large_batch_of_long_contexts(self, vocab):
        rng = np.random.default_rng(5)
        docs = [" ".join(rng.choice(WORDS, size=9)) for _ in range(40)]
        contexts = [f" {SEP} ".join(rng.choice(docs, size=120)) for _ in range(80)]
        questions = [" ".join(rng.choice(WORDS, size=3)) for _ in contexts]
        np.testing.assert_array_equal(encode_contexts(vocab, contexts, questions),
                                      prompt_rows(vocab, contexts, questions))

    def test_forged_word_corpus_records(self):
        sources, pool = build_chain_corpus(10, 300, seed=7, profile=word_profile())
        data, _ = forge_dataset(sources, pool, StubGenerator(p_correct=0.5, n=8),
                                HaystackConfig(target_short_tokens=60, target_long_tokens=400,
                                               seed=8))
        tokens = {t for s in data for text in (s.x_short, s.x_long, s.question)
                  for t in text.split()}
        vocab = Vocab((BOS, EOS, SEP) + tuple(sorted(tokens - {BOS, EOS, SEP})))
        questions = [s.question for s in data]
        for contexts in ([s.x_short for s in data], [s.x_long for s in data]):
            np.testing.assert_array_equal(encode_contexts(vocab, contexts, questions),
                                          prompt_rows(vocab, contexts, questions))

    def test_out_of_vocabulary_names_record_and_first_token(self, vocab):
        contexts = [f"w0 {SEP} w1", f"w2 {SEP} w3 zz {SEP} yy", f"yy {SEP} w0"]
        with pytest.raises(ValueError, match=r"^record 1: token not in vocabulary: 'zz'$"):
            encode_contexts(vocab, contexts, ["w4", "w5", "w6"])
        # A known document does not hide an unknown question token.
        with pytest.raises(ValueError, match=r"^record 0: token not in vocabulary: 'qq'$"):
            encode_contexts(vocab, ["w0"], ["w1 qq"])

    def test_one_question_per_context(self, vocab):
        with pytest.raises(ValueError, match="question"):
            encode_contexts(vocab, ["w0", "w1"], ["w2"])

    CONTEXTS = [f"w0 {SEP} w1", f"w2 {SEP} w3 {SEP} w0", "w4", ""]
    QUESTIONS = ["w5", "w6", "w0 w1", "w2"]

    def spy_tokenized(self, monkeypatch) -> list[list[str]]:
        """The token lists passed to ``Vocab.encode`` from now on, in order."""
        seen = []
        original = Vocab.encode

        def spy(vocab, tokens):
            seen.append(list(tokens))
            return original(vocab, tokens)

        monkeypatch.setattr(Vocab, "encode", spy)
        return seen

    def test_repeated_pairs_are_read_from_the_cache(self, vocab, monkeypatch):
        """A second call on the same pairs, in any order, tokenizes nothing;
        a call that adds one pair tokenizes only that pair's prompt."""
        expected = prompt_rows(vocab, self.CONTEXTS, self.QUESTIONS)
        tokenized = self.spy_tokenized(monkeypatch)
        first = encode_contexts(vocab, self.CONTEXTS, self.QUESTIONS)
        assert tokenized
        tokenized.clear()
        again = encode_contexts(vocab, self.CONTEXTS[::-1], self.QUESTIONS[::-1])
        assert tokenized == []
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(again, expected[::-1])
        more = encode_contexts(vocab, self.CONTEXTS + [f"w6 {SEP} w0"], self.QUESTIONS + ["w4"])
        assert tokenized == [assemble_prompt(f"w6 {SEP} w0", "w4")]
        np.testing.assert_array_equal(more[:-1], expected)
        np.testing.assert_array_equal(
            more[-1:], prompt_rows(vocab, [f"w6 {SEP} w0"], ["w4"]))

    def test_returned_rows_are_the_callers(self, vocab):
        """Writing into a returned array does not change the next call's rows."""
        expected = prompt_rows(vocab, self.CONTEXTS, self.QUESTIONS)
        for _ in range(2):
            got = encode_contexts(vocab, self.CONTEXTS, self.QUESTIONS)
            np.testing.assert_array_equal(got, expected)
            got[:] = -1.0

    def test_out_of_vocabulary_after_cached_rows(self, vocab):
        """Cached pairs before an unknown token keep the caller's row index in
        the error, and a failed row is never cached, so a retry fails the same
        way; the rows before it still encode."""
        encode_contexts(vocab, self.CONTEXTS[2:], self.QUESTIONS[2:])
        contexts = self.CONTEXTS + [f"w1 {SEP} zz", "w5", f"w1 {SEP} zz"]
        questions = self.QUESTIONS + ["w2", "w3", "w2"]
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^record 4: token not in vocabulary: 'zz'$"):
                encode_contexts(vocab, contexts, questions)
        np.testing.assert_array_equal(encode_contexts(vocab, contexts[:4], questions[:4]),
                                      prompt_rows(vocab, contexts[:4], questions[:4]))

    def test_equal_vocabularies_encode_alone(self, vocab, monkeypatch):
        """Equal but distinct vocabularies hold their own rows: each encodes
        the pairs itself, and both get the per-prompt rows."""
        other = Vocab(vocab.tokens)
        assert other == vocab and other is not vocab
        expected = prompt_rows(vocab, self.CONTEXTS, self.QUESTIONS)
        tokenized = self.spy_tokenized(monkeypatch)
        for v in (vocab, other):
            tokenized.clear()
            np.testing.assert_array_equal(encode_contexts(v, self.CONTEXTS, self.QUESTIONS),
                                          expected)
            assert tokenized


class TestClone:
    def test_snapshot_independent_and_stable(self, model, vocab):
        ref = model.clone()
        before = {k: v.copy() for k, v in ref.params.items()}
        # mutate the live model heavily; the snapshot must not move
        for k in model.params:
            model.params[k] += 1.0
        for k, v in ref.params.items():
            np.testing.assert_array_equal(v, before[k])

    def test_margin_zero_at_reference(self, model):
        """A policy identical to its reference scores every margin at zero."""
        from shortlong.losses import LogProbBundle, Method, MethodConfig, solopo_loss

        ref = model.clone()
        ctx, y_w, y_l = ["w0", "w1"], ["w2", EOS], ["w3", EOS]
        b = LogProbBundle(
            lp_w_short=logprob(model, ctx, y_w).total_logprob,
            lp_l_short=logprob(model, ctx, y_l).total_logprob,
            lp_w_long=logprob(model, ctx, y_w).total_logprob,
            lp_l_long=logprob(model, ctx, y_l).total_logprob,
            len_w=2, len_l=2,
            ref_lp_w_short=logprob(ref, ctx, y_w).total_logprob,
            ref_lp_l_short=logprob(ref, ctx, y_l).total_logprob,
            ref_lp_w_long=logprob(ref, ctx, y_w).total_logprob,
            ref_lp_l_long=logprob(ref, ctx, y_l).total_logprob)
        bd = solopo_loss(MethodConfig(Method.DPO), b)
        assert bd.po_term + bd.nll_term == pytest.approx(math.log(2), abs=1e-12)


class TestSerialization:
    def test_round_trip_bit_exact(self, model, tmp_path):
        path = tmp_path / "ckpt.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab.tokens == model.vocab.tokens
        assert loaded.hidden_dim == model.hidden_dim
        for k in model.params:
            np.testing.assert_array_equal(loaded.params[k], model.params[k])
        # scoring must agree bit-for-bit
        a = logprob(model, ["w0"], ["w1", EOS]).total_logprob
        b = logprob(loaded, ["w0"], ["w1", EOS]).total_logprob
        assert a == b

    def test_version_checked(self, model, tmp_path):
        import json

        path = tmp_path / "ckpt.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("field,value", [
        ("hidden_dim", 0), ("hidden_dim", -2), ("hidden_dim", 4.7), ("hidden_dim", True),
        ("hidden_dim", "8"), ("seed", 4.7), ("seed", True), ("seed", "8")])
    def test_non_integer_header_rejected(self, model, tmp_path, field, value):
        """``hidden_dim`` must be a JSON integer >= 1 and ``seed`` a JSON
        integer; anything else fails naming the path, whatever the arrays."""
        import json

        path = tmp_path / "ckpt.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload[field] = value
        if field == "hidden_dim" and value == 0:  # arrays of the d = 0 shapes
            payload["arrays"] = {name: "" for name in payload["arrays"]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad checkpoint: "
                                             f"{field} must be an integer"):
            load_model(path)

    @pytest.mark.parametrize("field,value,message", [
        ("format_version", True, "unsupported checkpoint version: True"),
        ("format_version", 1.0, "unsupported checkpoint version: 1.0"),
        ("format_version", "1", "unsupported checkpoint version: '1'"),
        ("tokens", [BOS, EOS, SEP, "w0", "w1", "w2", 7, None, "w5", "w6"],
         "tokens must be a list of strings"),
        ("tokens", "".join((BOS, EOS, SEP) + WORDS), "tokens must be a list of strings")])
    def test_bad_version_or_tokens_rejected(self, model, tmp_path, field, value, message):
        """``format_version`` must be the JSON integer 1 and ``tokens`` a list
        of strings; anything else fails naming the path."""
        import json

        path = tmp_path / "ckpt.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad checkpoint: "
                                             f"{re.escape(message)}$"):
            load_model(path)
