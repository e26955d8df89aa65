"""Trainer: schedule, determinism, telemetry, evaluation, comparisons."""

import csv
import json
import math
from dataclasses import asdict, astuple, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from shortlong import cli, gradcheck
from shortlong.corpus import (PrefixedStubGenerator, build_chain_corpus,
                              needle_profile, needle_vocab, value_token)
from shortlong.forge import ForgedSample, HaystackConfig, forge_dataset, write_forged_jsonl
from shortlong.gradcheck import check_step_gradients
from shortlong.losses import LogProbBundle, Method, MethodConfig, RAMode, solopo_loss
from shortlong.policy import (BOS, EOS, ToyLM, Vocab, bag_of_tokens, logprob, pad_responses,
                              score_rows)
from shortlong.training import (AdamW, ComparisonReport, NonFiniteLossError, RunResult,
                                StepRecord, TrainConfig, _prepare, assemble_prompt, evaluate,
                                learning_rate, run_comparison, step_gradients, strict_json,
                                train)


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


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
        opt.grads["w"][:] = [0.5, -0.25]
        opt.step(lr=0.1)
        # bias-corrected first step reduces to -lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -0.25]) \
            * (np.abs([0.5, -0.25]) / (np.abs([0.5, -0.25]) + 1e-8))
        np.testing.assert_allclose(params["w"], expected, atol=1e-9)

    def test_in_place_steps_equal_textbook_update(self):
        """Several steps equal the textbook update bit for bit, and a step
        never writes into the gradients, which live in the optimizer's own
        buffer."""
        rng = np.random.default_rng(5)
        params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        p_ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        opt = AdamW(params)
        for t, lr in enumerate((0.1, 0.05, 0.02, 0.3), start=1):
            for k, x in params.items():
                opt.grads[k][...] = rng.normal(size=x.shape)
            before = {k: g.copy() for k, g in opt.grads.items()}
            opt.step(lr)
            for k, g in opt.grads.items():
                assert np.array_equal(g, before[k])
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                m_hat, v_hat = m[k] / (1 - 0.9 ** t), v[k] / (1 - 0.999 ** t)
                p_ref[k] = p_ref[k] - lr * (m_hat / (np.sqrt(v_hat) + 1e-8))
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

    @pytest.mark.parametrize("eval_every, steps", [(0, [4]), (2, [2, 4]), (3, [3, 4])])
    def test_one_eval_per_eval_step(self, world, eval_every, steps):
        """Evaluations fall on every eval_every-th step and on the last step,
        once each, also when eval_every divides the step count."""
        vocab, data, eval_set = world
        cfg = TrainConfig(MethodConfig(Method.ORPO), lr_max=1e-2, batch_size=8, seed=0,
                          eval_every=eval_every)
        _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab, eval_set=eval_set)
        assert len(log.steps) == 4
        assert [rec.step for rec in log.evals] == steps

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

    def test_log_json_is_strict_without_telemetry(self, world, tmp_path):
        """With telemetry off the log's NaN columns are written as the string
        "nan", so a strict JSON parser reads the file."""
        vocab, data, _ = world
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=16, seed=0, telemetry=False)
        _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
        log.write_json(tmp_path / "log.json")
        steps = json.loads((tmp_path / "log.json").read_text(),
                           parse_constant=reject_constant)["steps"]
        assert [(s["reward_margin_long"], s["lp_rejected_long"]) for s in steps] == [
            ("nan", "nan")] * 2
        assert [s["total"] for s in steps] == [s.total for s in log.steps]

    def test_strict_json_writes_non_finite_floats_as_strings(self):
        payload = {"b": [math.nan, math.inf, np.float64(-math.inf)], "a": {"c": 1.5, "d": "x"}}
        assert strict_json(payload) == \
            '{"a": {"c": 1.5, "d": "x"}, "b": ["nan", "inf", "-inf"]}'

    def test_one_scorer_pass_per_step(self, world, monkeypatch):
        """Each step scores and backpropagates through one score_rows pass
        over 2 prompt rows and 4 response rows per record; DPO and IPO add
        one pass for the frozen reference."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        calls = []
        original = training_mod.score_rows

        def counting(model, counts, resp_ids, mask):
            calls.append((len(counts), len(resp_ids)))
            return original(model, counts, resp_ids, mask)

        monkeypatch.setattr(training_mod, "score_rows", counting)
        for method in Method:
            for telemetry in (True, False):
                calls.clear()
                cfg = TrainConfig(MethodConfig(method), batch_size=8, epochs=2, seed=0,
                                  telemetry=telemetry)
                _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
                n = len(data)
                reference = [(2 * n, 4 * n)] if method in (Method.DPO, Method.IPO) else []
                assert calls == reference + [(2 * 8, 4 * 8)] * len(log.steps)

    @pytest.mark.parametrize("po_context", ["short", "long"])
    def test_fields_are_scored_under_their_prompts(self, world, monkeypatch, po_context):
        """Each step's four fields are the public log-probabilities of y_w and
        y_l under the PO prompt and under the long prompt of their record."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        stacks = []
        original = training_mod.solopo_stack

        def recording(cfg, lp, lens, ref):
            stacks.append(lp)
            return original(cfg, lp, lens, ref)

        monkeypatch.setattr(training_mod, "solopo_stack", recording)
        model = ToyLM(vocab, hidden_dim=8, seed=1)
        cfg = TrainConfig(MethodConfig(Method.ORPO), lr_max=0.0, batch_size=8, seed=0,
                          po_context=po_context)
        train(model, data, cfg, vocab)  # a rate of 0 leaves the model as it is
        order = np.random.default_rng(0).permutation(len(data))
        got = np.concatenate([lp.T for lp in stacks])
        for i, fields in zip(order, got):
            s = data[i]
            po = s.x_long if po_context == "long" else s.x_short
            expected = [logprob(model, assemble_prompt(ctx, s.question),
                                y.split() + [EOS]).total_logprob
                        for ctx in (po, s.x_long) for y in (s.y_w, s.y_l)]
            np.testing.assert_allclose(fields, expected, rtol=0, atol=1e-12)

    def test_one_loss_pass_per_step(self, world, monkeypatch):
        """Each step reads the loss terms and the field gradients from one
        solopo_stack call on the batch's (4, n) log-probs, and never calls
        grad_solopo."""
        import shortlong.losses as losses_mod
        import shortlong.training as training_mod

        vocab, data, _ = world
        calls = []
        original = training_mod.solopo_stack

        def counting(cfg, lp, lens, ref):
            calls.append(lp.shape)
            return original(cfg, lp, lens, ref)

        def forbidden(cfg, bundle):
            raise AssertionError("train called grad_solopo")

        monkeypatch.setattr(training_mod, "solopo_stack", counting)
        monkeypatch.setattr(losses_mod, "grad_solopo", forbidden)
        for method in Method:
            calls.clear()
            cfg = TrainConfig(MethodConfig(method), batch_size=8, epochs=2, seed=0)
            _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
            assert calls == [(4, 8)] * len(log.steps)
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
        ref_before = model.clone()
        cfg = TrainConfig(MethodConfig(Method.DPO), lr_max=5e-2, batch_size=8, seed=8)
        trained, _ = train(model, data, cfg, vocab)
        # a clone of the ORIGINAL initialization must equal what train used:
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

    def test_non_finite_log_probability_names_field_and_record(self, world, monkeypatch,
                                                               tmp_path):
        """A NaN lp_l_long of a record that is not first in its batch aborts
        the step, naming the field and the record, here and through the CLI."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        original = training_mod.score_rows

        def poisoned(model, *rows):
            per_token, backward = original(model, *rows)
            per_token[4 * 5 + 3] = np.nan  # record 5 of the batch: lp_l_long
            return per_token, backward

        monkeypatch.setattr(training_mod, "score_rows", poisoned)
        sample = int(np.random.default_rng(0).permutation(32)[5])
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8, seed=0)
        with pytest.raises(NonFiniteLossError) as err:
            train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
        assert str(err.value) == (f"non-finite log-probability in ['lp_l_long'] at step 1, "
                                  f"sample {sample}")
        diagnostic = err.value.diagnostic
        assert diagnostic["fields"] == list(diagnostic["values"]) == ["lp_l_long"]
        assert math.isnan(diagnostic["values"]["lp_l_long"])
        assert diagnostic["step"] == 1 and diagnostic["sample_index"] == sample

        # Through the command line: the diagnostic goes to reports/abort.json.
        write_forged_jsonl(data, tmp_path / "d.jsonl")
        out = tmp_path / "r"
        assert cli.main(["train", "--out", str(out), "--set", f"dataset={tmp_path / 'd.jsonl'}",
                         "--set", "batch_size=8"]) == 1
        abort = json.loads((out / "reports" / "abort.json").read_text(),
                           parse_constant=reject_constant)
        assert abort == {"fields": ["lp_l_long"], "values": {"lp_l_long": "nan"}, "step": 1,
                         "sample_index": sample}
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("method", [Method.ORPO, Method.DPO, Method.IPO])
    @pytest.mark.parametrize("ra_mode", [RAMode.CHOSEN_ONLY, RAMode.BOTH])
    def test_long_po_context_is_short_po_on_long_contexts(self, world, method, ra_mode):
        """po_context="long" (vanilla long-context PO) trains exactly as
        po_context="short" on records whose short context is the long one,
        and its alignment term is 0 at every step."""
        vocab, data, _ = world
        runs = []
        for po_context, dataset in (("long", data),
                                    ("short", [replace(s, x_short=s.x_long) for s in data])):
            cfg = TrainConfig(MethodConfig(method, ra_mode=ra_mode), batch_size=8, epochs=2,
                              seed=0, po_context=po_context)
            runs.append(train(ToyLM(vocab, hidden_dim=8, seed=1), dataset, cfg, vocab))
        (long_model, long_log), (short_model, short_log) = runs
        np.testing.assert_array_equal([astuple(r) for r in long_log.steps],
                                      [astuple(r) for r in short_log.steps])
        for k, v in long_model.params.items():
            np.testing.assert_array_equal(v, short_model.params[k])
        assert len(long_log.steps) == 8
        assert all(r.ra_term == 0.0 for r in long_log.steps)

    @pytest.mark.parametrize("method", list(Method))
    def test_margin_telemetry_equals_public_reward(self, world, monkeypatch, method):
        """Each step's reward_margin_long is the batch mean of the public
        reward's long-context margin on that step's log-probs."""
        import shortlong.training as training_mod
        from shortlong.losses import reward

        vocab, data, _ = world
        stacks = []
        original = training_mod.solopo_stack

        def recording(cfg, lp, lens, ref):
            stacks.append((lp, lens, (None,) * 4 if ref is None else ref))
            return original(cfg, lp, lens, ref)

        monkeypatch.setattr(training_mod, "solopo_stack", recording)
        mc = MethodConfig(method)
        cfg = TrainConfig(mc, batch_size=8, epochs=2, seed=0)
        _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
        assert len(stacks) == len(log.steps)
        for rec, (lp, lens, ref) in zip(log.steps, stacks):
            margin = (reward(mc, lp[2], ref[2], lens[2])
                      - reward(mc, lp[3], ref[3], lens[3]))
            assert rec.reward_margin_long == float(np.mean(margin))

    def test_non_finite_loss_names_record_and_terms(self, world, monkeypatch):
        """A non-finite total aborts naming the record and reporting the four
        loss terms of that record, not the field gradients."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        original = training_mod.solopo_stack

        def poisoned(cfg, *stacks):
            breakdown = original(cfg, *stacks)
            total = np.array(breakdown.total)
            total[2] = np.inf
            return replace(breakdown, total=total)

        monkeypatch.setattr(training_mod, "solopo_stack", poisoned)
        cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8, seed=0)
        with pytest.raises(NonFiniteLossError, match="non-finite loss at step 1") as err:
            train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
        diagnostic = err.value.diagnostic
        assert diagnostic["sample_index"] == int(np.random.default_rng(0).permutation(32)[2])
        assert list(diagnostic["breakdown"]) == ["total", "po_term", "ra_term", "nll_term"]
        assert diagnostic["breakdown"]["total"] == np.inf

    def test_prompts_encoded_once_per_dataset(self, world, monkeypatch):
        """The first train call on a dataset encodes it: one encode_prompts
        call over the short prompts, one over the long, and one Vocab.encode
        call per response, 2n in all. A later call on records with the same
        texts, under the same vocabulary or an equal one, reuses those
        read-only rows and encodes nothing; a replaced record, or one mutated
        in place, encodes the dataset again, both prompt sides included, and
        is trained on its new text. A dataset with an out-of-vocabulary token
        fails and memoizes nothing."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        calls, prompting = [], []
        original_prompts, original_encode = training_mod.encode_prompts, Vocab.encode

        def counting_prompts(vocab, prompts):
            prompts = list(prompts)
            calls.append(("prompts", len(prompts)))
            prompting.append(True)
            try:
                return original_prompts(vocab, prompts)
            finally:
                prompting.pop()

        def counting_encode(self, tokens):
            if not prompting:  # a response encode, not one of encode_prompts' own
                calls.append(("encode", len(tokens)))
            return original_encode(self, tokens)

        monkeypatch.setattr(training_mod, "encode_prompts", counting_prompts)
        monkeypatch.setattr(Vocab, "encode", counting_encode)

        def trained(records, method=Method.ORPO, epochs=1, under=vocab):
            calls.clear()
            cfg = TrainConfig(MethodConfig(method), batch_size=8, epochs=epochs, seed=0)
            model, _ = train(ToyLM(under, hidden_dim=8, seed=1), records, cfg, under)
            return model.params, list(calls)

        def encoded(records):  # both prompt sides, then each response ending in EOS
            return [("prompts", len(records))] * 2 + [
                ("encode", len(text.split()) + 1) for s in records for text in (s.y_w, s.y_l)]

        def params_equal(a, b):
            return all(np.array_equal(a[k], b[k]) for k in a)

        first, made = trained(data)
        assert made == encoded(data) and len(made) == 2 + 2 * len(data)
        for method, epochs in ((Method.ORPO, 3), (Method.DPO, 1), (Method.DPO, 3)):
            assert trained(data, method, epochs)[1] == []
        for under in (vocab, Vocab(vocab.tokens)):  # new records, same texts
            again, made = trained([replace(s) for s in data], under=under)
            assert made == [] and params_equal(again, first)
        rows = _prepare(data, vocab, "short")
        assert rows.refs is None
        assert not any(array.flags.writeable for array in vars(rows).values()
                       if array is not None)
        assert _prepare(list(data), Vocab(vocab.tokens), "short") is rows

        swapped = [replace(data[0], y_w=data[0].y_l, y_l=data[0].y_w)] + list(data[1:])
        mutated = [replace(s) for s in data]
        mutated[3].x_short = mutated[4].x_short
        for records in (swapped, mutated):
            params, made = trained(records)
            assert made == encoded(records)
            assert not params_equal(params, first)

        sizes = [f.cache_info().currsize
                 for f in (training_mod._encode_dataset, training_mod._prompt_rows)]
        bad = [replace(s) for s in data]
        bad[5].y_l += " zz"
        with pytest.raises(ValueError, match=r"^record 5: token not in vocabulary: 'zz'$"):
            trained(bad)
        assert [f.cache_info().currsize
                for f in (training_mod._encode_dataset, training_mod._prompt_rows)] == sizes

    def test_long_po_prompt_is_a_view_of_the_long_row(self, world):
        """Training and preparing a dataset under "short" and then "long"
        leaves one training-row memo entry and no prompt-row entry; the
        "long" rows' counts are a read-only view whose two rows per record
        are the long prompts' encode_prompts row, bit for bit."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        for po_context in ("short", "long"):
            cfg = TrainConfig(MethodConfig(Method.ORPO), batch_size=8, seed=0,
                              po_context=po_context)
            train(ToyLM(vocab, hidden_dim=8, seed=1), data, cfg, vocab)
            rows = _prepare(data, vocab, po_context)
        assert training_mod._encode_dataset.cache_info().currsize == 1
        assert training_mod._prompt_rows.cache_info().currsize == 0
        short = _prepare(data, vocab, "short")
        assert np.shares_memory(rows.counts, short.counts) and not rows.counts.flags.writeable
        long_prompts = training_mod.encode_prompts(
            vocab, [assemble_prompt(s.x_long, s.question) for s in data])
        for side in (0, 1):
            assert rows.counts[:, side].tobytes() == long_prompts.tobytes()
        for name in ("resp_ids", "mask", "lens"):
            assert getattr(rows, name) is getattr(short, name)

    def test_responses_encode_as_one_row_each(self, world):
        """The response rows equal padding each record's own
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
        assert rows.lens.tolist() == [list(map(len, responses[i:i + 4]))
                                      for i in range(0, len(responses), 4)]

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



class TestRows:
    """``_Rows`` is the one holder of the row layout: indexing selects
    records in every field, and ``score`` gives the four fields per record."""

    def test_slice_of_a_gather_is_the_gather_of_the_slice(self, world):
        vocab, data, _ = world
        rows = _prepare(data, vocab, "short")
        rows = replace(rows, refs=rows.score(ToyLM(vocab, 8, 2))[0])
        order = np.random.default_rng(6).permutation(len(data))
        sliced, gathered = rows[order][5:13], rows[order[5:13]]
        for key, array in vars(sliced).items():
            assert len(array) == 8
            np.testing.assert_array_equal(array, getattr(gathered, key), err_msg=key)
        epoch = rows[order]  # a slice of it is a view
        assert all(np.shares_memory(a, b) for a, b in zip(vars(epoch[5:13]).values(),
                                                           vars(epoch).values()))

    @pytest.mark.parametrize("po_context", ["short", "long"])
    def test_score_is_the_public_log_probabilities(self, world, po_context):
        vocab, data, _ = world
        model = ToyLM(vocab, hidden_dim=8, seed=4)
        lps, _ = _prepare(data, vocab, po_context)[3:9].score(model)
        expected = [[logprob(model, assemble_prompt(context, s.question),
                             y.split() + [EOS]).total_logprob
                     for context in (s.x_long if po_context == "long" else s.x_short, s.x_long)
                     for y in (s.y_w, s.y_l)] for s in data[3:9]]
        assert lps.shape == (6, 4)
        np.testing.assert_allclose(lps, expected, rtol=1e-12, atol=0)


class TestTrainLog:
    """Each step writes its term rows into one array of the log, and the
    records are built when read: every read path gives the bytes of records
    built step by step, as each step's term means."""

    @pytest.mark.parametrize("n_records, method_cfg, telemetry", [
        (30, MethodConfig(Method.DPO, ra_mode=RAMode.BOTH), True),
        (32, MethodConfig(Method.ORPO, alpha=0.5), False),
        (32, MethodConfig(Method.ORPO, include_nll=False), True)],
        ids=["partial_last_batch", "no_telemetry", "scalar_nll_term"])
    def test_read_paths_equal_step_by_step_records(self, world, monkeypatch, tmp_path,
                                                   n_records, method_cfg, telemetry):
        import shortlong.training as training_mod

        vocab, data, _ = world
        seen = []
        original = training_mod.solopo_stack

        def recording(cfg, lp, lens, ref):
            breakdown = original(cfg, lp, lens, ref)
            seen.append((breakdown, lp[3].copy()))
            return breakdown

        monkeypatch.setattr(training_mod, "solopo_stack", recording)
        cfg = TrainConfig(method_cfg, batch_size=8, epochs=2, seed=3, telemetry=telemetry)
        _, log = train(ToyLM(vocab, hidden_dim=8, seed=1), data[:n_records], cfg, vocab)
        expected = []
        for step, (bd, lp_l_long) in enumerate(seen, 1):
            terms = [bd.total, bd.po_term, bd.ra_term, bd.nll_term]
            if telemetry:
                terms += [bd.reward_margin_long, lp_l_long]
            stacked = np.empty((len(terms), len(lp_l_long)))
            for j, term in enumerate(terms):
                stacked[j] = term
            means = stacked.mean(axis=1).tolist() + [math.nan] * (6 - len(terms))
            expected.append(StepRecord(step, learning_rate(step, len(seen), cfg.lr_max,
                                                           cfg.warmup_ratio), *means))
        assert [len(lp) for _, lp in seen][:4] == [8, 8, 8, n_records - 24]
        if telemetry:
            assert log.steps == expected
        log.write_csv(tmp_path / "log.csv")
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(field.name for field in fields(StepRecord))
            writer.writerows(map(astuple, expected))
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        log.write_json(tmp_path / "log.json")
        assert (tmp_path / "log.json").read_text() == strict_json(
            {"steps": list(map(asdict, expected)), "evals": []})
        for name, run_log in (("log", log), ("want", SimpleNamespace(steps=expected))):
            ComparisonReport([RunResult("a", 0, 0.0, 0.0, run_log)]).write_margins_csv(
                tmp_path / f"{name}_margins.csv")
        assert (tmp_path / "log_margins.csv").read_bytes() == \
            (tmp_path / "want_margins.csv").read_bytes()


class TestStepGradients:
    """``train``'s step is ``step_gradients``, and ``check_step_gradients``
    checks it against the objective, not against its own wiring."""

    def test_train_step_is_step_gradients_then_adamw(self, world):
        vocab, data, _ = world
        cfg = TrainConfig(MethodConfig(Method.DPO, alpha=0.5, ra_mode=RAMode.BOTH),
                          lr_max=0.05, batch_size=len(data), po_context="long", seed=4)
        start = ToyLM(vocab, 8, 3)
        trained, log = train(start.clone(), data, cfg, vocab)
        rows = _prepare(data, vocab, "long")
        rows = replace(rows, refs=rows.score(start)[0])
        order = np.random.default_rng(4).permutation(len(data))
        opt = AdamW(start.params)
        breakdown, _, grads = step_gradients(start, cfg.method_cfg, rows[order], order, 1,
                                             opt.grads)
        assert grads is opt.grads
        opt.step(log.steps[0].lr)
        for key, p in trained.params.items():
            assert np.array_equal(p, start.params[key])
        assert log.steps[0].total == float(np.mean(breakdown.total))

    @pytest.mark.parametrize("method, ra_mode, po_context", [
        (m, r, p) for m in Method for r in RAMode for p in ("short", "long")],
        ids=[f"{m.value}/{r.value}/{p}" for m in Method for r in RAMode
             for p in ("short", "long")])
    def test_step_is_the_public_path_bit_for_bit(self, world, method, ra_mode, po_context):
        """The step's kernel call on the (4, n) log-prob stack gives the
        terms and the parameter gradients of the public path, bit for bit:
        score_rows, solopo_loss on a LogProbBundle, then backward. The
        responses are repeated to unequal lengths, so every length is read
        from its own field."""
        vocab, data, _ = world
        cfg = MethodConfig(method, ra_mode=ra_mode, alpha=0.7)
        model = ToyLM(vocab, hidden_dim=8, seed=4)
        samples = [replace(s, y_w=" ".join([s.y_w] * (1 + i % 3)),
                           y_l=" ".join([s.y_l] * (2 - i % 2))) for i, s in enumerate(data[5:15])]
        rows = _prepare(samples, vocab, po_context)
        if cfg.needs_reference:
            rows = replace(rows, refs=rows.score(ToyLM(vocab, hidden_dim=8, seed=9))[0])
        records = np.arange(5, 15)
        opt = AdamW({k: v.copy() for k, v in model.params.items()})
        breakdown, lp_l_long, grads = step_gradients(model, cfg, rows, records, 1, opt.grads)

        per_token, backward = score_rows(model, *(a.reshape(-1, a.shape[-1]) for a in (
            rows.counts, rows.resp_ids, rows.mask)))
        lps = per_token.sum(axis=1).reshape(-1, 4)
        lens = [[len(text.split()) + 1 for text in (s.y_w, s.y_l) * 2] for s in samples]
        assert len({tuple(pair) for pair in lens}) == 6
        public = solopo_loss(cfg, LogProbBundle(lps.T, np.array(lens).T,
                                                None if rows.refs is None else rows.refs.T))
        expected = backward((public.grads.T * (1.0 / len(records))).ravel())
        for name in ("total", "po_term", "ra_term", "nll_term", "reward_margin_long", "grads"):
            np.testing.assert_array_equal(getattr(breakdown, name), getattr(public, name),
                                          strict=True, err_msg=name)
        np.testing.assert_array_equal(lp_l_long, lps[:, 3], strict=True)
        assert grads is opt.grads
        for key, g in expected.items():
            assert g.tobytes() == grads[key].tobytes(), key

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_check_passes(self, seed):
        report = check_step_gradients(seed)
        assert len(report["combos"]) == 30
        assert report["max_relative_error"] < 1e-4, report["combos"]

    @staticmethod
    def doubled(*args):
        """A step that drops the 1/n of a two-record batch."""
        breakdown, lp_l_long, grads = step_gradients(*args)
        return breakdown, lp_l_long, {k: 2.0 * g for k, g in grads.items()}

    @staticmethod
    def prompts_swapped(model, method_cfg, batch, *rest):
        """A step that swaps each record's PO and long prompts."""
        return step_gradients(model, method_cfg, replace(batch, counts=batch.counts[:, ::-1]),
                              *rest)

    @pytest.mark.parametrize("wrapper, failing", [
        ("doubled", ("short", "long")), ("prompts_swapped", ("short",))],
        ids=["doubled", "prompts_swapped"])
    def test_check_is_independent_of_the_step(self, monkeypatch, wrapper, failing):
        monkeypatch.setattr(gradcheck, "step_gradients", getattr(self, wrapper))
        combos = check_step_gradients(0)["combos"]
        assert len(combos) == 30
        for key, error in combos.items():
            assert (error >= 1e-4) == (key.rsplit("/", 1)[1] in failing), (key, error)

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

    def spy_tokenized(self, monkeypatch) -> list[list[str]]:
        """The token lists passed to ``Vocab.encode`` from now on, in order."""
        seen = []
        original = Vocab.encode

        def spy(vocab, tokens):
            seen.append(list(tokens))
            return original(vocab, tokens)

        monkeypatch.setattr(Vocab, "encode", spy)
        return seen

    def test_repeated_calls_tokenize_once(self, world, monkeypatch):
        """The eval prompts are tokenized by the first call only, once each:
        the later calls, under the same vocabulary or an equal one, read
        their rows from the memo."""
        vocab, _, eval_set = world
        tokenized = self.spy_tokenized(monkeypatch)
        per_call = []
        accs = set()
        for under in (vocab, vocab, Vocab(vocab.tokens)):
            tokenized.clear()
            accs.add(evaluate(ToyLM(under, hidden_dim=8, seed=0), eval_set, "long", under))
            per_call.append(len(tokenized))
        assert per_call == [len(eval_set), 0, 0]
        assert len(accs) == 1

    def test_mutated_record_is_tokenized_again(self, world, monkeypatch):
        """A record mutated in place after an evaluation is read under its new
        text, not from the memo."""
        vocab, _, eval_set = world
        records = [replace(s) for s in eval_set]
        model = ToyLM(vocab, hidden_dim=8, seed=0)
        evaluate(model, records, "short", vocab)
        records[2].x_short = records[3].x_short
        tokenized = self.spy_tokenized(monkeypatch)
        evaluate(model, records, "short", vocab)
        assert tokenized == [assemble_prompt(s.x_short, s.question) for s in records]

    def test_decodes_from_read_only_rows(self, world, monkeypatch):
        """``evaluate`` hands decode_rows the memo's read-only rows, not a
        copy."""
        import shortlong.training as training_mod

        vocab, _, eval_set = world
        seen = []
        original = training_mod.decode_rows

        def spy(model, counts, *args):
            seen.append(counts)
            return original(model, counts, *args)

        monkeypatch.setattr(training_mod, "decode_rows", spy)
        model = ToyLM(vocab, hidden_dim=8, seed=0)
        for _ in range(2):
            evaluate(model, eval_set, "long", vocab)
        first, second = seen
        assert first is second and not first.flags.writeable
        np.testing.assert_array_equal(
            first, [bag_of_tokens(vocab.encode(assemble_prompt(s.x_long, s.question)),
                                  vocab.size) for s in eval_set])

    def test_short_and_long_use_their_contexts(self, world, monkeypatch):
        import shortlong.training as training_mod

        vocab, _, eval_set = world
        seen = []
        original = training_mod.encode_prompts

        def spy(vocab, prompts):
            prompts = list(prompts)
            seen.extend(map(len, prompts))
            return original(vocab, prompts)

        monkeypatch.setattr(training_mod, "encode_prompts", spy)
        model = ToyLM(vocab, hidden_dim=8, seed=0)
        evaluate(model, eval_set[:4], "short", vocab)
        short_lens = list(seen)
        seen.clear()
        evaluate(model, eval_set[:4], "long", vocab)
        long_lens = list(seen)
        assert len(short_lens) == len(long_lens) == 4
        assert max(short_lens) < min(long_lens)


class TestComparison:
    def test_empty_eval_set_fails_before_training(self, world, monkeypatch):
        """``train`` and ``run_comparison`` reject an empty eval set before
        any record is scored."""
        import shortlong.training as training_mod

        vocab, data, _ = world
        scored = []
        original = training_mod.score_rows
        monkeypatch.setattr(training_mod, "score_rows",
                            lambda *args: scored.append(1) or original(*args))
        cfg = TrainConfig(MethodConfig(Method.DPO), batch_size=8)
        with pytest.raises(ValueError, match="^eval set must be non-empty$"):
            train(ToyLM(vocab, 8, 0), data, cfg, vocab, eval_set=[])
        with pytest.raises(ValueError, match="^eval set must be non-empty$"):
            run_comparison([("a", cfg)], data, [], {0: ToyLM(vocab, 8, 0)})
        assert scored == []

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
