"""Trainer: schedule, determinism, telemetry, evaluation, comparisons."""

import math
from dataclasses import replace

import numpy as np
import pytest

from shortlong.corpus import (PrefixedStubGenerator, build_chain_corpus,
                              needle_profile, needle_vocab, value_token)
from shortlong.forge import ForgedSample, HaystackConfig, forge_dataset
from shortlong.losses import Method, MethodConfig, RAMode
from shortlong.policy import BOS, EOS, ToyLM, Vocab, freeze, logprob, pad_responses
from shortlong.training import (AdamW, NonFiniteLossError, TrainConfig, _prepare,
                                assemble_prompt, evaluate, learning_rate, run_comparison,
                                train)


@pytest.fixture(scope="module")
def world():
    profile = needle_profile()
    vocab = needle_vocab(profile)
    sources, pool = build_chain_corpus(80, 360, seed=50, profile=profile)
    gen = PrefixedStubGenerator(
        p_correct=0.5, n=16,
        values=tuple(value_token(profile, i) for i in range(profile.n_values)),
        prefixes=tuple(profile.entity(i) for i in range(profile.n_entities)))
    cfg = HaystackConfig(target_short_tokens=48, target_long_tokens=160, seed=51)
    data, _ = forge_dataset(sources, pool, gen, cfg, n_target=48)
    return vocab, data[:32], data[32:]


class TestSchedule:
    def test_peak_at_end_of_warmup_and_zero_at_end(self):
        T = 40
        warm = math.ceil(0.1 * T)
        assert learning_rate(warm, T, 0.5, 0.1) == pytest.approx(0.5)
        assert learning_rate(T, T, 0.5, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_linear_warmup(self):
        assert learning_rate(1, 100, 1.0, 0.1) == pytest.approx(0.1)
        assert learning_rate(5, 100, 1.0, 0.1) == pytest.approx(0.5)

    def test_monotone_decay_after_warmup(self):
        lrs = [learning_rate(s, 50, 1.0, 0.1) for s in range(5, 51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_no_warmup(self):
        assert learning_rate(1, 10, 1.0, 0.0) == pytest.approx(1.0, abs=0.05)


class TestAdamW:
    def test_matches_reference_formula_one_step(self):
        params = {"w": np.array([1.0, -2.0])}
        opt = AdamW(params)
        g = {"w": np.array([0.5, -0.25])}
        opt.step(g, lr=0.1)
        # bias-corrected first step reduces to -lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -0.25]) \
            * (np.abs([0.5, -0.25]) / (np.abs([0.5, -0.25]) + 1e-8))
        np.testing.assert_allclose(params["w"], expected, atol=1e-9)

    def test_in_place_steps_equal_textbook_update(self):
        """Several steps equal the textbook update bit for bit, and the
        caller's gradient arrays are never written."""
        rng = np.random.default_rng(5)
        params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        p_ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        opt = AdamW(params)
        for t, lr in enumerate((0.1, 0.05, 0.02, 0.3), start=1):
            grads = {k: rng.normal(size=x.shape) for k, x in params.items()}
            before = {k: g.copy() for k, g in grads.items()}
            opt.step(grads, lr)
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                m_hat, v_hat = m[k] / (1 - 0.9 ** t), v[k] / (1 - 0.999 ** t)
                p_ref[k] = p_ref[k] - lr * (m_hat / (np.sqrt(v_hat) + 1e-8))
                assert np.array_equal(grads[k], before[k])
                assert np.array_equal(params[k], p_ref[k])
                assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k])


class TestTrain:
    def test_zero_lr_is_identity(self, world):
        vocab, data, _ = world
        model = ToyLM(vocab, hidden_dim=8, seed=1)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = TrainConfig(MethodConfig(Method.ORPO), lr_max=0.0, batch_size=8, seed=0)
        model, log = train(model, data, cfg, vocab)
        for k, v in model.params.items():
            np.testing.assert_array_equal(v, before[k])
        assert len(log.steps) == math.ceil(len(data) / 8)

    def test_schedule_zero_at_every_step_rejected(self, world):
        """One step with warmup_ratio 0: the cosine is 0 at the last (and only)
        step, so a positive lr_max would move nothing."""
        vocab, data, _ = world
        model = ToyLM(vocab, hidden_dim=8, seed=1)
        cfg = TrainConfig(MethodConfig(Method.ORPO), lr_max=0.1, warmup_ratio=0.0,
                          batch_size=len(data))
        assert learning_rate(1, 1, cfg.lr_max, cfg.warmup_ratio) == 0.0
        with pytest.raises(ValueError, match="warmup_ratio 0.0 .* 0 at every step"):
            train(model, data, cfg, vocab)
        _, log = train(model, data, replace(cfg, warmup_ratio=0.1), vocab)
        assert [s.lr for s in log.steps] == [0.1]

    def test_deterministic_trajectory(self, world):
        vocab, data, _ = world
        logs = []
        finals = []
        for _ in range(2):
            model = ToyLM(vocab, hidden_dim=8, seed=1)
            cfg = TrainConfig(MethodConfig(Method.ORPO, alpha=1.0), lr_max=1e-2,
                              batch_size=8, epochs=2, seed=3)
            model, log = train(model, data, cfg, vocab)
            logs.append([(s.total, s.po_term, s.ra_term) for s in log.steps])
            finals.append({k: v.copy() for k, v in model.params.items()})
        assert logs[0] == logs[1]
        for k in finals[0]:
            np.testing.assert_array_equal(finals[0][k], finals[1][k])

    def test_alpha_zero_matches_vanilla_short_run(self, world):
        """With alpha = 0 the trajectory ignores the long contexts entirely."""
        vocab, data, _ = world
        runs = []
        for telemetry in (True, False):
            model = ToyLM(vocab, hidden_dim=8, seed=2)
            cfg = TrainConfig(MethodConfig(Method.ORPO, alpha=0.0), lr_max=1e-2,
                              batch_size=8, seed=5, telemetry=telemetry)
            model, log = train(model, data, cfg, vocab)
            runs.append(([s.total for s in log.steps], model.params,
                         [s.ra_term for s in log.steps]))
        assert runs[0][0] == pytest.approx(runs[1][0], abs=0)
        for k in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])
        # Telemetry only adds log columns: the logged alignment term is the
        # true one (not 0 from long scores replaced by short ones) either way.
        assert runs[0][2] == runs[1][2]
        assert any(ra != 0.0 for ra in runs[0][2])

    def test_one_scorer_pass_per_step(self, world, monkeypatch):
        """Each step scores and backpropagates through one score_rows pass;
        DPO and IPO add one pass for the frozen reference."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        calls = []
        original = training_mod.score_rows

        def counting(model, *rows):
            calls.append(len(rows[0]))
            return original(model, *rows)

        monkeypatch.setattr(training_mod, "score_rows", counting)
        for method in Method:
            for telemetry in (True, False):
                calls.clear()
                cfg = TrainConfig(MethodConfig(method), batch_size=8, epochs=2, seed=0,
                                  telemetry=telemetry)
                _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
                reference = [4 * len(data)] if method in (Method.DPO, Method.IPO) else []
                assert calls == reference + [4 * 8] * len(log.steps)

    def test_one_loss_pass_per_step(self, world, monkeypatch):
        """Each step reads the loss terms and the field gradients from one
        solopo_loss call, and never calls grad_solopo."""
        import shortlong.losses as losses_mod
        import shortlong.training as training_mod

        vocab, data, _ = world
        calls = []
        original = training_mod.solopo_loss

        def counting(cfg, bundle):
            calls.append(len(bundle.lp_w_short))
            return original(cfg, bundle)

        def forbidden(cfg, bundle):
            raise AssertionError("train called grad_solopo")

        monkeypatch.setattr(training_mod, "solopo_loss", counting)
        monkeypatch.setattr(losses_mod, "grad_solopo", forbidden)
        for method in Method:
            calls.clear()
            cfg = TrainConfig(MethodConfig(method), batch_size=8, epochs=2, seed=0)
            _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
            assert calls == [8] * len(log.steps)
        assert not hasattr(training_mod, "grad_solopo")

    def test_long_equal_short_degenerates_to_vanilla(self, world):
        """alpha > 0 with x_long == x_short reproduces the alpha = 0 trajectory."""
        vocab, data, _ = world
        collapsed = [ForgedSample(question=s.question, answer=s.answer,
                                  x_short=s.x_short, x_long=s.x_short,
                                  y_w=s.y_w, y_l=s.y_l) for s in data]
        totals = {}
        for alpha in (0.0, 2.0):
            model = ToyLM(vocab, hidden_dim=8, seed=2)
            cfg = TrainConfig(MethodConfig(Method.ORPO, alpha=alpha), lr_max=1e-2,
                              batch_size=8, seed=5)
            model, log = train(model, collapsed, cfg, vocab)
            totals[alpha] = ([s.total for s in log.steps],
                             {k: v.copy() for k, v in model.params.items()})
        assert totals[0.0][0] == pytest.approx(totals[2.0][0], abs=1e-12)
        for k in totals[0.0][1]:
            np.testing.assert_allclose(totals[0.0][1][k], totals[2.0][1][k], atol=1e-12)

    def test_logged_components_recompose(self, world):
        vocab, data, _ = world
        model = ToyLM(vocab, hidden_dim=8, seed=4)
        mc = MethodConfig(Method.ORPO, alpha=1.5)
        cfg = TrainConfig(mc, lr_max=1e-2, batch_size=8, seed=6)
        model, log = train(model, data, cfg, vocab)
        for rec in log.steps:
            assert rec.total == pytest.approx(
                rec.po_term + mc.alpha * rec.ra_term + rec.nll_term, abs=1e-10)

    def test_reference_model_never_moves(self, world):
        vocab, data, _ = world
        model = ToyLM(vocab, hidden_dim=8, seed=7)
        ref_before = freeze(model)
        cfg = TrainConfig(MethodConfig(Method.DPO), lr_max=5e-2, batch_size=8, seed=8)
        trained, _ = train(model, data, cfg, vocab)
        # re-freezing the ORIGINAL initialization must equal what train used:
        # the trained model changed, the snapshot did not
        fresh = ToyLM(vocab, hidden_dim=8, seed=7)
        for k in fresh.params:
            np.testing.assert_array_equal(ref_before.params[k], fresh.params[k])
        assert any(not np.array_equal(trained.params[k], fresh.params[k])
                   for k in fresh.params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostic(self, world):
        # An absurd learning rate drives parameter products past float range
        # within a couple of steps; training must stop with diagnostics.
        vocab, data, _ = world
        model = ToyLM(vocab, hidden_dim=8, seed=9)
        cfg = TrainConfig(MethodConfig(Method.SIMPO), lr_max=1e160, batch_size=4,
                          epochs=4, seed=10, warmup_ratio=0.0)
        with pytest.raises(NonFiniteLossError) as err:
            train(model, data, cfg, vocab)
        assert err.value.diagnostic
        assert {"step", "sample_index"} <= set(err.value.diagnostic)

    def test_log_odds_singularity_aborts_with_diagnostic(self, world):
        # A bigram-only scorer (hidden state 0, one-hot embeddings) whose
        # output weights are scaled until the chosen response's log-prob is
        # exactly 0.0: ORPO's log-odds reward is singular there.
        vocab, data, _ = world
        sample = data[0]
        v = vocab.size
        model = ToyLM(vocab, hidden_dim=v, seed=0)
        model.params["emb"] = np.eye(v)
        model.params["ctx_w"] = np.zeros((v, v))
        model.params["out_w"] = np.zeros((v, v))
        chain = [BOS] + sample.y_w.split() + [EOS]
        for prev, nxt in zip(chain, chain[1:]):
            model.params["out_w"][vocab.encode([prev])[0], vocab.encode([nxt])[0]] = 1.0
        prompt = assemble_prompt(sample.x_short, sample.question)
        while logprob(model, prompt, chain[1:]).total_logprob != 0.0:
            model.params["out_w"] *= 2.0
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=1, seed=0)
        with pytest.raises(NonFiniteLossError, match="singularity") as err:
            train(model, [sample], cfg, vocab)
        assert err.value.diagnostic["step"] == 1
        assert err.value.diagnostic["sample_index"] == 0

    @pytest.mark.parametrize("field, telemetry", [(2, True), (3, False)])
    def test_singular_long_field_names_its_record(self, world, monkeypatch, field, telemetry):
        """A log-odds singularity in a long-context field of a record that is
        not first in its batch names that record, not its position in the
        stacked (4, n) reward pass. Every field is evaluated, so ORPO aborts
        on a singular lp_l_long even with telemetry off and chosen-only
        alignment, where no term reads it."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        original = training_mod.score_rows

        def singular(model, *rows):
            per_token, backward = original(model, *rows)
            per_token[4 * 6 + field] = 0.0  # record 6 of the batch: lp_w_long or lp_l_long
            return per_token, backward

        monkeypatch.setattr(training_mod, "score_rows", singular)
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8, seed=0, telemetry=telemetry)
        with pytest.raises(NonFiniteLossError, match="singularity") as err:
            train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
        assert err.value.diagnostic["step"] == 1
        first_batch = np.random.default_rng(0).permutation(32)[:8]
        assert err.value.diagnostic["sample_index"] == int(first_batch[6])

    @pytest.mark.parametrize("method", list(Method))
    def test_margin_telemetry_equals_public_reward(self, world, monkeypatch, method):
        """Each step's reward_margin_long is the batch mean of the public
        reward's long-context margin on that step's log-probs."""
        import shortlong.training as training_mod
        from shortlong.losses import reward

        vocab, data, _ = world
        bundles = []
        original = training_mod.solopo_loss

        def recording(cfg, bundle):
            bundles.append(bundle)
            return original(cfg, bundle)

        monkeypatch.setattr(training_mod, "solopo_loss", recording)
        mc = MethodConfig(method)
        cfg = TrainConfig(mc, batch_size=8, epochs=2, seed=0)
        _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
        assert len(bundles) == len(log.steps)
        for rec, b in zip(log.steps, bundles):
            margin = (reward(mc, b.lp_w_long, b.ref_lp_w_long, b.len_w)
                      - reward(mc, b.lp_l_long, b.ref_lp_l_long, b.len_l))
            assert rec.reward_margin_long == float(np.mean(margin))

    def test_non_finite_loss_names_record_and_terms(self, world, monkeypatch):
        """A non-finite total aborts naming the record and reporting the four
        loss terms of that record, not the field gradients."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        original = training_mod.solopo_loss

        def poisoned(cfg, bundle):
            breakdown = original(cfg, bundle)
            total = np.array(breakdown.total)
            total[2] = np.inf
            return replace(breakdown, total=total)

        monkeypatch.setattr(training_mod, "solopo_loss", poisoned)
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8, seed=0)
        with pytest.raises(NonFiniteLossError, match="non-finite loss at step 1") as err:
            train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
        diagnostic = err.value.diagnostic
        assert diagnostic["sample_index"] == int(np.random.default_rng(0).permutation(32)[2])
        assert list(diagnostic["breakdown"]) == ["total", "po_term", "ra_term", "nll_term"]
        assert diagnostic["breakdown"]["total"] == np.inf

    def test_prompts_encoded_once_per_dataset(self, world, monkeypatch):
        """Encoding happens once per dataset, not once per step: one
        encode_contexts call over the short prompts and one over the long,
        and one Vocab.encode call over the distinct responses; the DPO
        reference is scored from the same encoding."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        prompt_calls, response_calls = [], []
        distinct = {text for s in data for text in (s.y_w, s.y_l)}
        original_contexts, original_encode = training_mod.encode_contexts, Vocab.encode

        def counting_contexts(vocab, contexts, questions):
            prompt_calls.append(len(contexts))
            return original_contexts(vocab, contexts, questions)

        def counting_encode(self, tokens):
            response_calls.append(len(tokens))
            return original_encode(self, tokens)

        monkeypatch.setattr(training_mod, "encode_contexts", counting_contexts)
        monkeypatch.setattr(Vocab, "encode", counting_encode)
        counts = {}
        for method, epochs in ((Method.ORPO, 1), (Method.ORPO, 3), (Method.DPO, 1),
                               (Method.DPO, 3)):
            prompt_calls.clear()
            response_calls.clear()
            cfg = TrainConfig(MethodConfig(method), batch_size=8, epochs=epochs, seed=0)
            train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
            counts[method, epochs] = (tuple(prompt_calls), tuple(response_calls))
        tokens = sum(len(text.split()) + 1 for text in distinct)  # each ends in EOS
        assert len(distinct) < 2 * len(data)
        assert set(counts.values()) == {((len(data), len(data)), (tokens,))}

    def test_responses_encode_as_one_row_each(self, world):
        """The one-lookup encoding equals padding each record's own
        (y_w, y_l, y_w, y_l) encodings, bit for bit."""
        vocab, data, _ = world
        rows = _prepare(data, vocab, "short")
        responses = []
        for s in data:
            y_w, y_l = (vocab.encode(text.split() + [EOS]) for text in (s.y_w, s.y_l))
            responses += [y_w, y_l, y_w, y_l]
        ids, mask = pad_responses(responses)
        assert np.array_equal(rows.resp_ids, ids.reshape(len(data), 4, -1))
        assert np.array_equal(rows.mask, mask.reshape(len(data), 4, -1))
        assert rows.len_w.tolist() == [len(r) for r in responses[0::4]]
        assert rows.len_l.tolist() == [len(r) for r in responses[1::4]]

    def test_vocab_must_match_model(self, world):
        """The same tokens in another order would encode differently, so a
        vocabulary that is not the model's is rejected rather than ignored."""
        vocab, data, _ = world
        shuffled = Vocab(tuple(reversed(vocab.tokens)))
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8, seed=0)
        with pytest.raises(ValueError, match="vocab"):
            train(ToyLM(shuffled, hidden_dim=8, seed=1), data, cfg, vocab)

    @pytest.mark.parametrize("field", ["x_short", "x_long", "question", "y_w", "y_l"])
    def test_out_of_vocabulary_names_record_and_token(self, world, field):
        vocab, data, _ = world
        bad = list(data[:6])
        bad[4] = replace(bad[4], **{field: getattr(bad[4], field) + " zz"})
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8, seed=0)
        message = r"^record 4: token not in vocabulary: 'zz'$"
        with pytest.raises(ValueError, match=message):
            train(ToyLM(vocab, 8, 0), bad, cfg, vocab)
        if field not in ("y_w", "y_l"):  # evaluate encodes prompts only
            with pytest.raises(ValueError, match=message):
                evaluate(ToyLM(vocab, 8, 0), bad, "long" if field == "x_long" else "short",
                         vocab)

    def test_out_of_vocabulary_names_first_bad_response(self, world):
        """Record 2's y_l and record 4's y_w are both bad: record order wins
        over the y_w-before-y_l order within a record."""
        vocab, data, _ = world
        bad = list(data[:6])
        bad[2] = replace(bad[2], y_l=bad[2].y_l + " zz")
        bad[4] = replace(bad[4], y_w=bad[4].y_w + " qq")
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8, seed=0)
        with pytest.raises(ValueError, match=r"^record 2: token not in vocabulary: 'zz'$"):
            train(ToyLM(vocab, 8, 0), bad, cfg, vocab)

    @pytest.mark.parametrize("lr_max", [-1e-3, float("nan"), float("inf")])
    def test_learning_rate_must_be_nonnegative(self, lr_max):
        with pytest.raises(ValueError, match="lr_max"):
            TrainConfig(MethodConfig(Method.ORPO), lr_max=lr_max)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -4), ("epochs", 0), ("epochs", -1),
        ("eval_every", -1)])
    def test_counts_below_minimum_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be at least .*, got {value}$"):
            TrainConfig(MethodConfig(Method.ORPO), **{field: value})

    @pytest.mark.parametrize("ra_mode", [RAMode.CHOSEN_ONLY, RAMode.BOTH])
    def test_default_ipo_step_moves_parameters(self, world, ra_mode):
        """IPO's target margin gamma > 0: a policy equal to its own frozen
        reference is not at the loss minimum, so the first step updates it."""
        vocab, data, _ = world
        model = ToyLM(vocab, hidden_dim=8, seed=1)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = TrainConfig(MethodConfig(Method.IPO, ra_mode=ra_mode), lr_max=1e-2,
                          batch_size=len(data), seed=0)
        train(model, data, cfg, vocab)
        assert any(not np.array_equal(model.params[k], before[k]) for k in before)

    def test_empty_dataset_rejected(self, world):
        vocab, _, _ = world
        with pytest.raises(ValueError):
            train(ToyLM(vocab, 8, 0), [], TrainConfig(MethodConfig(Method.ORPO)), vocab)


class TestEvaluate:
    def test_oracle_decoder_scores_one(self, world):
        vocab, _, eval_set = world

        # evaluate() decodes all prompts in one policy.decode_rows call; an
        # oracle decoder whose token ids spell each prompt's gold answer is
        # injected there.
        import shortlong.training as training_mod
        from shortlong.policy import bag_of_tokens
        from shortlong.training import assemble_prompt

        answers = {bag_of_tokens(vocab.encode(assemble_prompt(s.x_short, s.question)),
                                 vocab.size).tobytes(): s.answer
                   for s in eval_set}

        def fake_decode(model, counts, max_len=4):
            ids, mask = pad_responses([vocab.encode(answers[row.tobytes()].split() + [EOS])
                                       for row in counts])
            return ids, mask.sum(axis=1)

        original = training_mod.decode_rows
        training_mod.decode_rows = fake_decode
        try:
            acc = evaluate(ToyLM(vocab, 8, 0), eval_set, "short", vocab)
        finally:
            training_mod.decode_rows = original
        assert acc == 1.0

    def test_uniform_model_hits_chance_level(self):
        """Zero weights decode to a fixed token; accuracy equals the fraction
        of golds equal to it — the analytic chance level 1/V."""
        tokens = ("<bos>", "<eos>", "<sep>", "t0", "t1", "t2", "t3", "t4", "t5", "t6")
        vocab = Vocab(tokens)
        model = ToyLM(vocab, hidden_dim=4, seed=0)
        for k in model.params:
            model.params[k][:] = 0.0
        rng = np.random.default_rng(123)
        eval_set = []
        for i in range(3000):
            gold = tokens[int(rng.integers(len(tokens)))]
            eval_set.append(ForgedSample(question="t0", answer=gold,
                                         x_short="t1 t2", x_long="t1 t2 t3",
                                         y_w=gold, y_l="t6"))
        acc = evaluate(model, eval_set, "short", vocab)
        p = 1.0 / len(tokens)
        se = math.sqrt(p * (1 - p) / len(eval_set))
        assert abs(acc - p) <= 4 * se

    def test_repeated_calls_tokenize_once(self, world, monkeypatch):
        """The eval prompts are tokenized by the first call only: the later
        calls read their rows from the vocabulary's cache."""
        vocab = Vocab(world[0].tokens)  # no rows cached by other tests
        eval_set = world[2]
        tokenized = []
        original = Vocab.encode

        def spy(vocab, tokens):
            tokenized.append(tokens)
            return original(vocab, tokens)

        monkeypatch.setattr(Vocab, "encode", spy)
        model = ToyLM(vocab, hidden_dim=8, seed=0)
        per_call = []
        accs = set()
        for _ in range(3):
            tokenized.clear()
            accs.add(evaluate(model, eval_set, "long", vocab))
            per_call.append(len(tokenized))
        assert per_call[0] > 0 and per_call[1:] == [0, 0]
        assert len(accs) == 1

    def test_short_and_long_use_their_contexts(self, world, monkeypatch):
        vocab, _, eval_set = world
        seen = []
        import shortlong.training as training_mod

        original = training_mod.encode_contexts

        def spy(vocab, contexts, questions):
            seen.extend(len(assemble_prompt(c, q)) for c, q in zip(contexts, questions))
            return original(vocab, contexts, questions)

        monkeypatch.setattr(training_mod, "encode_contexts", spy)
        model = ToyLM(vocab, hidden_dim=8, seed=0)
        evaluate(model, eval_set[:4], "short", vocab)
        short_lens = list(seen)
        seen.clear()
        evaluate(model, eval_set[:4], "long", vocab)
        long_lens = list(seen)
        assert len(short_lens) == len(long_lens) == 4
        assert max(short_lens) < min(long_lens)


class TestComparison:
    def test_identical_cells_identical_rows(self, world):
        vocab, data, eval_set = world
        cfg = TrainConfig(MethodConfig(Method.ORPO, alpha=0.5), lr_max=1e-2,
                          batch_size=8)
        report = run_comparison([("a", cfg), ("b", cfg)], data, eval_set,
                                {0: ToyLM(vocab, 8, 0)})
        a, b = report.rows
        assert (a.short_acc, a.long_acc) == (b.short_acc, b.long_acc)

    def test_csv_outputs(self, world, tmp_path):
        vocab, data, eval_set = world
        configs = [(f"alpha={a}", TrainConfig(MethodConfig(Method.ORPO, alpha=a),
                                              lr_max=1e-2, batch_size=8))
                   for a in (0.0, 1.0)]
        report = run_comparison(configs, data, eval_set,
                                {s: ToyLM(vocab, 8, s) for s in (0, 1)})
        report.write_csv(tmp_path / "rows.csv")
        report.write_margins_csv(tmp_path / "margins.csv")
        report.write_json(tmp_path / "agg.json")
        rows = (tmp_path / "rows.csv").read_text().splitlines()
        assert rows[0] == "label,seed,short_acc,long_acc"
        assert len(rows) == 1 + 4
        margins = (tmp_path / "margins.csv").read_text().splitlines()
        assert margins[0].split(",")[0] == "step"
        assert len(margins[0].split(",")) == 1 + 4
        agg = report.aggregates()
        assert set(agg) == {"alpha=0.0", "alpha=1.0"}
        assert all(v["n"] == 2 for v in agg.values())

    def test_starts_left_unchanged(self, world):
        """Every cell trains a clone of its start, and a cell matches a plain
        train from that start with the config's seed set to the cell's."""
        vocab, data, eval_set = world
        cfg = TrainConfig(MethodConfig(Method.ORPO, alpha=1.0), lr_max=1e-2, batch_size=8)
        starts = {s: ToyLM(vocab, 8, s) for s in (0, 1)}
        before = {s: {k: v.copy() for k, v in m.params.items()} for s, m in starts.items()}
        report = run_comparison([("a", cfg)], data, eval_set, starts)
        for seed, model in starts.items():
            for k, v in model.params.items():
                np.testing.assert_array_equal(v, before[seed][k])
        _, log = train(starts[1].clone(), data, replace(cfg, seed=1), vocab)
        assert report.rows[1].log.steps == log.steps

    def test_starts_must_share_one_vocabulary(self, world):
        vocab, data, eval_set = world
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8)
        shuffled = Vocab(tuple(reversed(vocab.tokens)))
        for starts in ({0: ToyLM(vocab, 8, 0), 1: ToyLM(shuffled, 8, 1)}, {}):
            with pytest.raises(ValueError, match="vocabulary"):
                run_comparison([("a", cfg)], data, eval_set, starts)
