"""Rewards, preference losses, alignment terms, and their gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest

from shortlong.gradcheck import fd_gradient, random_bundle, relative_error
from shortlong.losses import (GRAD_FIELDS, LogProbBundle, Method, MethodConfig,
                              RAMode, grad_solopo, reward, solopo_loss)

ALL_METHODS = list(Method)
ALL_MODES = list(RAMode)


def row(batch, i):
    """Row i of a batched bundle, as a bundle of Python scalars."""
    return LogProbBundle(**{k: None if v is None else v[i].item() for k, v in vars(batch).items()})


def make_bundle(rng, method):
    return row(random_bundle(rng, MethodConfig(method), 1), 0)


def full_bundle(**over):
    base = dict(lp_w_short=-3.0, lp_l_short=-5.0, lp_w_long=-4.0, lp_l_long=-6.0,
                len_w=2, len_l=3)
    base.update(over)
    return LogProbBundle(**base)


class TestDefaults:
    def test_per_method_defaults(self):
        assert MethodConfig(Method.DPO).beta == 0.1
        assert MethodConfig(Method.ORPO).beta == 0.1
        simpo = MethodConfig(Method.SIMPO)
        assert (simpo.beta, simpo.gamma) == (2.0, 1.4)
        assert MethodConfig(Method.DPO).alpha == 3.0
        assert MethodConfig(Method.SIMPO).alpha == 1.0
        assert MethodConfig(Method.ORPO).alpha == 1.0
        assert MethodConfig(Method.ORPO).include_nll is True
        assert MethodConfig(Method.DPO).include_nll is False

    def test_validation(self):
        with pytest.raises(ValueError):
            MethodConfig(Method.DPO, eta=0.0)
        with pytest.raises(ValueError):
            MethodConfig(Method.DPO, alpha=-1.0)
        with pytest.raises(ValueError):
            MethodConfig(Method.DPO, include_nll=True)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "eta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_hyperparameter_names_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            MethodConfig(Method.ORPO, **{name: value})


class TestReward:
    def test_simpo_length_normalized(self):
        cfg = MethodConfig(Method.SIMPO)  # beta 2.0
        assert reward(cfg, -10.0, None, 5) == pytest.approx(-4.0)

    def test_dpo_log_ratio(self):
        cfg = MethodConfig(Method.DPO)  # beta 0.1
        assert reward(cfg, -8.0, -10.0, 1) == pytest.approx(0.2)

    def test_orpo_even_odds(self):
        cfg = MethodConfig(Method.ORPO)
        assert reward(cfg, -math.log(2.0), None, 1) == pytest.approx(0.0, abs=1e-12)

    def test_orpo_singularity(self):
        cfg = MethodConfig(Method.ORPO)
        with pytest.raises(ValueError, match="singularity"):
            reward(cfg, 0.0, None, 4)

    def test_slic_and_ipo(self):
        assert reward(MethodConfig(Method.SLIC), -7.0, None, 3) == -7.0
        assert reward(MethodConfig(Method.IPO), -7.0, -9.0, 3) == 2.0

    def test_missing_reference(self):
        with pytest.raises(ValueError):
            reward(MethodConfig(Method.DPO), -7.0, None, 3)


class TestPoLoss:
    def test_policy_equals_reference_gives_log2(self):
        cfg = MethodConfig(Method.DPO, gamma=0.0, eta=1.0)
        b = full_bundle(ref_lp_w_short=-3.0, ref_lp_l_short=-5.0,
                        ref_lp_w_long=-4.0, ref_lp_l_long=-6.0)
        bd = solopo_loss(cfg, b)
        assert bd.po_term + bd.nll_term == pytest.approx(math.log(2), abs=1e-12)

    def test_square_link_zero_at_margin(self):
        # margin exactly gamma -> link argument 0 -> loss 0
        cfg = MethodConfig(Method.IPO, gamma=2.0, eta=7.3)
        b = full_bundle(lp_w_short=-3.0, lp_l_short=-5.0,
                        ref_lp_w_short=-3.0, ref_lp_l_short=-3.0,
                        ref_lp_w_long=-3.0, ref_lp_l_long=-3.0)
        # reward margin = (lp_w - ref_w) - (lp_l - ref_l) = 0 - (-2) = 2 = gamma
        bd = solopo_loss(cfg, b)
        assert bd.po_term + bd.nll_term == pytest.approx(0.0, abs=1e-12)

    def test_simpo_frozen_oracle_value(self):
        # -log sigmoid(2*(-2/2) - 2*(-6/2) - 1.4) = log1p(exp(-2.6)),
        # evaluated independently with the high-precision stdlib path.
        cfg = MethodConfig(Method.SIMPO, eta=1.0)
        b = full_bundle(lp_w_short=-2.0, lp_l_short=-6.0, len_w=2, len_l=2)
        bd = solopo_loss(cfg, b)
        assert bd.po_term + bd.nll_term == pytest.approx(0.0716446919676698, abs=1e-12)

    def test_orpo_nll_term_included(self):
        cfg = MethodConfig(Method.ORPO)
        cfg_no = MethodConfig(Method.ORPO, include_nll=False)
        b = full_bundle()
        bd, bd_no = solopo_loss(cfg, b), solopo_loss(cfg_no, b)
        assert ((bd.po_term + bd.nll_term) - (bd_no.po_term + bd_no.nll_term)
                == pytest.approx(3.0 / 2.0))


class TestAlignmentTerm:
    def test_zero_gap(self):
        for method in ALL_METHODS:
            cfg = MethodConfig(method)
            refs = {}
            if cfg.needs_reference:
                refs = dict(ref_lp_w_short=-1.0, ref_lp_l_short=-2.0,
                            ref_lp_w_long=-1.0, ref_lp_l_long=-2.0)
            b = full_bundle(lp_w_long=-3.0, lp_l_long=-5.0, **refs)
            assert solopo_loss(cfg, b).ra_term == pytest.approx(0.0, abs=1e-15)

    def test_dpo_chosen_only_value(self):
        cfg = MethodConfig(Method.DPO)  # beta 0.1
        b = full_bundle(lp_w_short=-5.0, lp_w_long=-9.0,
                        ref_lp_w_short=-1.0, ref_lp_l_short=-1.0,
                        ref_lp_w_long=-1.0, ref_lp_l_long=-1.0)
        assert solopo_loss(cfg, b).ra_term == pytest.approx(0.4, abs=1e-12)

    def test_dpo_kl_identity(self):
        """Chosen-only term is exactly beta times the raw log-prob gap."""
        rng = np.random.default_rng(0)
        cfg = MethodConfig(Method.DPO)
        kl_cfg = MethodConfig(Method.DPO, ra_mode=RAMode.KL_APPROX)
        b = random_bundle(rng, cfg, 2000)
        np.testing.assert_allclose(solopo_loss(cfg, b).ra_term,
                                   cfg.beta * solopo_loss(kl_cfg, b).ra_term,
                                   rtol=0, atol=1e-12)

    def test_simpo_kl_identity(self):
        rng = np.random.default_rng(1)
        cfg = MethodConfig(Method.SIMPO)
        kl_cfg = MethodConfig(Method.SIMPO, ra_mode=RAMode.KL_APPROX)
        b = random_bundle(rng, cfg, 2000)
        np.testing.assert_allclose(solopo_loss(cfg, b).ra_term,
                                   (cfg.beta / b.len_w) * solopo_loss(kl_cfg, b).ra_term,
                                   rtol=0, atol=1e-12)

    def test_both_mode_averages(self):
        cfg_b = MethodConfig(Method.SLIC, ra_mode=RAMode.BOTH)
        b = full_bundle()
        gap_w = abs(b.lp_w_short - b.lp_w_long)
        gap_l = abs(b.lp_l_short - b.lp_l_long)
        assert solopo_loss(cfg_b, b).ra_term == pytest.approx(0.5 * (gap_w + gap_l))

    def test_square_link_squares_the_gap(self):
        cfg = MethodConfig(Method.IPO)
        b = full_bundle(ref_lp_w_short=-1.0, ref_lp_l_short=-1.0,
                        ref_lp_w_long=-2.0, ref_lp_l_long=-2.0)
        gap = (b.lp_w_short - (-1.0)) - (b.lp_w_long - (-2.0))
        assert solopo_loss(cfg, b).ra_term == pytest.approx(gap * gap)


class TestTotalLoss:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_degeneration_long_equals_short(self, method, mode):
        """Copying short fields into long collapses the total to the plain loss."""
        rng = np.random.default_rng(11)
        for alpha in (0.0, 1.0, 3.7):
            cfg = MethodConfig(method, ra_mode=mode, alpha=alpha)
            b = make_bundle(rng, method)
            b = replace(b, lp_w_long=b.lp_w_short, lp_l_long=b.lp_l_short,
                        ref_lp_w_long=b.ref_lp_w_short, ref_lp_l_long=b.ref_lp_l_short)
            breakdown = solopo_loss(cfg, b)
            assert breakdown.ra_term == 0.0
            assert breakdown.total == pytest.approx(breakdown.po_term + breakdown.nll_term,
                                                    abs=1e-12)

    def test_alpha_zero_equals_po(self):
        rng = np.random.default_rng(12)
        for method in ALL_METHODS:
            cfg = MethodConfig(method, alpha=0.0)
            b = make_bundle(rng, method)
            bd = solopo_loss(cfg, b)
            assert bd.total == pytest.approx(bd.po_term + bd.nll_term, abs=1e-15)

    def test_orpo_componentwise_recomposition(self):
        cfg = MethodConfig(Method.ORPO, alpha=1.0)
        b = full_bundle()
        bd = solopo_loss(cfg, b)
        bd_no = solopo_loss(MethodConfig(Method.ORPO, include_nll=False), b)
        po_only = bd_no.po_term + bd_no.nll_term
        nll = -b.lp_w_short / b.len_w
        ra = solopo_loss(cfg, b).ra_term
        assert bd.po_term == pytest.approx(po_only, abs=1e-15)
        assert bd.nll_term == pytest.approx(nll, abs=1e-15)
        assert bd.ra_term == pytest.approx(ra, abs=1e-15)
        assert bd.total == pytest.approx(po_only + ra + nll, abs=1e-12)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_recomposition_identity(self, method):
        rng = np.random.default_rng(13)
        for mode in ALL_MODES:
            cfg = MethodConfig(method, ra_mode=mode)
            b = make_bundle(rng, method)
            bd = solopo_loss(cfg, b)
            assert bd.total == pytest.approx(
                bd.po_term + cfg.alpha * bd.ra_term + bd.nll_term, abs=1e-12)

    def test_reference_required(self):
        b = full_bundle()
        with pytest.raises(ValueError, match="reference"):
            solopo_loss(MethodConfig(Method.DPO), b)


class TestGradients:
    def test_alpha_zero_long_grads_vanish(self):
        rng = np.random.default_rng(21)
        for method in ALL_METHODS:
            cfg = MethodConfig(method, alpha=0.0)
            g = grad_solopo(cfg, make_bundle(rng, method))
            assert g["lp_w_long"] == 0.0
            assert g["lp_l_long"] == 0.0

    def test_dpo_chosen_only_long_grad_constant(self):
        # When the chosen short reward exceeds the long one, the alignment
        # derivative w.r.t. the long log-prob is exactly -alpha * beta.
        cfg = MethodConfig(Method.DPO, alpha=2.0)
        b = full_bundle(lp_w_short=-3.0, lp_w_long=-9.0,
                        ref_lp_w_short=-1.0, ref_lp_l_short=-1.0,
                        ref_lp_w_long=-1.0, ref_lp_l_long=-1.0)
        g = grad_solopo(cfg, b)
        assert g["lp_w_long"] == pytest.approx(-cfg.alpha * cfg.beta, abs=1e-15)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_matches_finite_differences(self, method, mode):
        rng = np.random.default_rng(31)
        cfg = MethodConfig(method, ra_mode=mode)
        b = random_bundle(rng, cfg, 200)
        analytic = grad_solopo(cfg, b)
        numeric = fd_gradient(cfg, b)
        worst = max(np.max(relative_error(analytic[k], numeric[k])) for k in GRAD_FIELDS)
        assert worst < 1e-5

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_random_bundle_avoids_the_kl_kink(self, method):
        """kl_approx penalizes |lp_w_short - lp_w_long| for every method, IPO
        included, so its kink at zero is kept out of the sample."""
        cfg = MethodConfig(method, ra_mode=RAMode.KL_APPROX)
        b = random_bundle(np.random.default_rng(32), cfg, 500, kink_margin=0.5)
        assert np.all(np.abs(b.lp_w_short - b.lp_w_long) > 0.5)

    def test_singularity_propagates(self):
        cfg = MethodConfig(Method.ORPO)
        b = full_bundle(lp_w_short=0.0)
        with pytest.raises(ValueError, match="singularity"):
            grad_solopo(cfg, b)


class TestBatch:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_array_call_equals_scalar_calls(self, method, mode):
        rng = np.random.default_rng(41)
        cfg = MethodConfig(method, ra_mode=mode, eta=1.7)
        batch = random_bundle(rng, cfg, 64)
        bundles = [row(batch, i) for i in range(64)]
        breakdown = solopo_loss(cfg, batch)
        grads = grad_solopo(cfg, batch)
        for field in ("total", "po_term", "ra_term", "nll_term"):
            np.testing.assert_allclose(
                np.broadcast_to(getattr(breakdown, field), len(bundles)),
                [getattr(solopo_loss(cfg, b), field) for b in bundles], rtol=1e-15, atol=0)
        for name in GRAD_FIELDS:
            np.testing.assert_allclose(np.broadcast_to(grads[name], len(bundles)),
                                       [grad_solopo(cfg, b)[name] for b in bundles],
                                       rtol=1e-15, atol=0)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_public_losses_read_the_one_pass(self, method, mode):
        """grad_solopo is exactly the pass's grads, for arrays and scalars."""
        rng = np.random.default_rng(43)
        cfg = MethodConfig(method, ra_mode=mode, alpha=1.3, eta=1.7)
        batch = random_bundle(rng, cfg, 16)
        for b in (batch, row(batch, 3)):
            bd = solopo_loss(cfg, b)
            assert set(bd.grads) == set(GRAD_FIELDS)
            grads = grad_solopo(cfg, b)
            for name in GRAD_FIELDS:
                np.testing.assert_array_equal(grads[name], bd.grads[name])
                assert type(grads[name]) is type(bd.grads[name])
            if b is not batch:
                assert all(type(v) is float for v in bd.grads.values())

    def test_singular_element_is_named(self):
        rng = np.random.default_rng(42)
        cfg = MethodConfig(Method.ORPO)
        batch = random_bundle(rng, cfg, 8)
        batch.lp_w_short[5] = 0.0
        with pytest.raises(ValueError, match="singularity.*element 5") as err:
            solopo_loss(cfg, batch)
        assert err.value.index == 5


class TestBundleValidation:
    def test_lengths_positive(self):
        with pytest.raises(ValueError):
            full_bundle(len_w=0)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            full_bundle(lp_w_short=float("nan"))

    @pytest.mark.parametrize("name", GRAD_FIELDS[:4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [None, 5])
    def test_non_finite_field_is_named(self, name, bad, n):
        """Scalar fields, or (n,) arrays with one bad element."""
        fields = {k: np.full(n, v) if n else v for k, v in
                  dict(lp_w_short=-3.0, lp_l_short=-5.0, lp_w_long=-4.0, lp_l_long=-6.0,
                       len_w=2, len_l=3).items()}
        if n:
            fields[name][3] = bad
        else:
            fields[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            LogProbBundle(**fields)

    def test_first_bad_field_is_named(self):
        # +inf and -inf sum to nan: both fields are bad, the first is named.
        with pytest.raises(ValueError, match="^lp_l_short must be finite$"):
            full_bundle(lp_l_short=math.inf, lp_l_long=-math.inf)

    @pytest.mark.parametrize("name", ["len_w", "len_l"])
    @pytest.mark.parametrize("value", [0, -1, np.array([2, 0, 3])])
    def test_short_length_message(self, name, value):
        with pytest.raises(ValueError, match=r"^response lengths must be >= 1$"):
            full_bundle(**{name: value})

    def test_finite_fields_whose_sum_overflows_pass(self):
        b = full_bundle(lp_w_short=-1e308, lp_l_short=-1e308, lp_w_long=-1e308,
                        lp_l_long=-1e308)
        assert b.lp_l_long == -1e308
