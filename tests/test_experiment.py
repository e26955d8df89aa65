"""Smoke checks for the bundled experiment harness (full runs live in the
acceptance suite)."""

import numpy as np
import pytest

from shortlong.experiment import (ExperimentConfig, build_experiment_data,
                                  directional_experiment, pooled_se)


def small_cfg(**over):
    base = dict(seeds=(0,), alphas=(0.5,), n_train=32, n_eval=16,
                warm_epochs=2, arm_epochs=1, hidden_dim=8)
    base.update(over)
    return ExperimentConfig(**base)


def forbidden_forge(*args, **kwargs):
    raise AssertionError("forged before the config was checked")


class TestData:
    def test_shapes_and_vocab(self):
        cfg = small_cfg()
        train_data, eval_data, vocab = build_experiment_data(cfg)
        assert len(train_data) == 32
        assert len(eval_data) == 16
        assert vocab.size <= 64
        for s in train_data[:4]:
            assert abs(len(s.x_short.split()) - 64) <= 4
            assert abs(len(s.x_long.split()) - 512) <= 26

    def test_deterministic(self):
        a, _, _ = build_experiment_data(small_cfg())
        b, _, _ = build_experiment_data(small_cfg())
        assert a == b


class TestHarness:
    def test_result_schema(self):
        result = directional_experiment(small_cfg())
        assert result["baseline"] == "alpha=0"
        assert result["selected"] == "alpha=0.5"
        assert set(result["aggregates"]) == {"alpha=0", "alpha=0.5"}
        assert isinstance(result["long_improved"], bool)
        assert isinstance(result["short_maintained"], bool)
        assert [(r.label, r.seed) for r in result["margins"].rows] == \
            [("ra=chosen_only", 0), ("ra=both", 0)]

    def test_one_forge_and_one_warm_up_per_seed(self, monkeypatch):
        """The alpha sweep and the margin runs share one forge and each seed's
        warm-up: 2 seeds x (1 warm-up + 2 sweep arms + 2 margin arms)."""
        import shortlong.experiment as experiment_mod
        import shortlong.training as training_mod

        forges, trains = [], []
        build, train = experiment_mod.build_experiment_data, training_mod.train

        def spy_build(cfg):
            forges.append(cfg)
            return build(cfg)

        def spy_train(model, dataset, cfg, vocab, eval_set=None):
            trains.append((cfg.method_cfg.alpha, cfg.seed))
            return train(model, dataset, cfg, vocab, eval_set)

        monkeypatch.setattr(experiment_mod, "build_experiment_data", spy_build)
        monkeypatch.setattr(experiment_mod, "train", spy_train)
        monkeypatch.setattr(training_mod, "train", spy_train)
        result = directional_experiment(small_cfg(seeds=(0, 1)))
        assert len(forges) == 1
        warm_ups = sorted(seed for alpha, seed in trains if alpha == 0.0 and seed >= 1000)
        assert warm_ups == [1000, 1001]
        assert len(trains) == 2 + 2 * 2 + 2 * 2
        assert [(r.label, r.seed) for r in result["margins"].rows] == [
            ("ra=chosen_only", 0), ("ra=chosen_only", 1), ("ra=both", 0), ("ra=both", 1)]

    @pytest.mark.parametrize("field, value", [
        ("seeds", ()), ("alphas", ()), ("seeds", (0, 0)), ("n_train", 0), ("n_eval", 0),
        ("hidden_dim", 0), ("warm_epochs", 0), ("arm_epochs", -1), ("batch_size", 0)])
    def test_config_rejects_bad_counts(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("alphas, message", [
        ((0.0, 1.0), "finite and positive .*got alpha=0$"),
        ((0.5, -1.0), "finite and positive .*got alpha=-1$"),
        ((float("inf"),), "finite and positive .*got alpha=inf$"),
        ((float("nan"), 1.0), "finite and positive .*got alpha=nan$"),
        ((1, 1.0), r"distinct, got alpha=1 2 times in \(1, 1.0\)$"),
        ((2.0, 0.5, 0.50), r"distinct, got alpha=0.5 2 times in \(2.0, 0.5, 0.5\)$")],
        ids=["zero", "negative", "inf", "nan", "int_and_float", "repeated"])
    def test_config_rejects_alphas_that_break_the_arm_labels(self, monkeypatch, alphas,
                                                             message):
        """Every alpha arm is labelled alpha=<a:g> beside the alpha=0
        baseline, so an alpha of 0, one that is negative or not finite, or one
        that repeats another after formatting fails before anything is
        forged."""
        import shortlong.experiment as experiment_mod

        monkeypatch.setattr(experiment_mod, "forge_dataset", forbidden_forge)
        with pytest.raises(ValueError, match=f"^alphas must be {message}"):
            directional_experiment(ExperimentConfig(alphas=alphas))

    def test_pooled_se(self):
        a = np.array([0.5, 0.7])
        b = np.array([0.1, 0.3])
        expected = np.sqrt(a.var(ddof=1) / 2 + b.var(ddof=1) / 2)
        assert pooled_se(a, b) == pytest.approx(expected)
        assert pooled_se(np.array([0.5]), np.array([0.1])) == 0.0
