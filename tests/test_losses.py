"""Rewards, preference losses, alignment terms, and their gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest

from shortlong.gradcheck import fd_gradient, random_bundle, relative_error
from shortlong.losses import (_METHODS, GRAD_FIELDS, LogProbBundle, Method, MethodConfig,
                              RAMode, grad_solopo, kink_distances, reward, solopo_loss)

ALL_METHODS = list(Method)
ALL_MODES = list(RAMode)


def row(batch, i):
    """Record i of a batched bundle, as a bundle of (4,) arrays."""
    return LogProbBundle(*(None if a is None else a[:, i] for a in vars(batch).values()))


def make_bundle(rng, method):
    return row(random_bundle(rng, MethodConfig(method), 1), 0)


def full_bundle(lp=(-3.0, -5.0, -4.0, -6.0), lens=(2, 3), ref=None):
    """One record: ``lp`` and ``ref`` in GRAD_FIELDS order, ``lens`` = (len_w, len_l)."""
    return LogProbBundle(np.array(lp, dtype=float), np.array(lens * 2),
                         None if ref is None else np.array(ref, dtype=float))


def long_as_short(b):
    """The bundle with its long-context log-probs copied from the short ones."""
    return replace(b, lp=b.lp[[0, 1, 0, 1]], ref=None if b.ref is None else b.ref[[0, 1, 0, 1]])


class TestDefaults:
    def test_per_method_defaults(self):
        assert MethodConfig(Method.DPO).beta == 0.1
        assert MethodConfig(Method.ORPO).beta is None  # its reward reads no beta
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

    @pytest.mark.parametrize("method", [Method.ORPO, Method.IPO, Method.SLIC])
    def test_beta_is_rejected_where_the_reward_ignores_it(self, method):
        assert MethodConfig(method).beta is None
        with pytest.raises(ValueError, match=f"^beta is not used by {method.value}$"):
            MethodConfig(method, beta=0.1)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_hyperparameter_is_read_or_rejected(self, method):
        """A hyperparameter that MethodConfig accepts changes the loss: none
        is silently ignored."""
        default = MethodConfig(method)
        b = random_bundle(np.random.default_rng(51), default, 64)
        settings = {"alpha": 2.5, "beta": 0.7, "gamma": 0.3, "eta": 1.9}
        if method is Method.ORPO:
            settings["include_nll"] = False
        ignored = []
        for name, value in settings.items():
            try:
                cfg = MethodConfig(method, **{name: value})
            except ValueError:
                continue
            if np.array_equal(solopo_loss(cfg, b).total, solopo_loss(default, b).total):
                ignored.append(name)
        assert ignored == []


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


def _old_log_odds(t):
    near = t > -0.6931471805599453
    return t - np.where(near, np.log(-np.expm1(t)),
                        np.log1p(-np.exp(np.minimum(t, -0.6931471805599453))))


# Each method's reward and its slope dr/dlp as two separate functions, the
# way they were evaluated before one pass returned both: the reference the
# merged pair must equal bit for bit.
REFERENCE_REWARDS = {
    Method.DPO: (lambda beta, lp, ref, n: beta * (lp - ref), lambda beta, lp, n: beta),
    Method.SIMPO: (lambda beta, lp, ref, n: beta / n * lp, lambda beta, lp, n: beta / n),
    Method.ORPO: (lambda beta, lp, ref, n: _old_log_odds(lp / n),
                  lambda beta, lp, n: (1.0 / -np.expm1(lp / n)) / n),
    Method.IPO: (lambda beta, lp, ref, n: lp - ref, lambda beta, lp, n: 1.0),
    Method.SLIC: (lambda beta, lp, ref, n: lp, lambda beta, lp, n: 1.0),
}


class TestMergedReward:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_pair_equals_reference_reward_and_slope(self, method):
        rng = np.random.default_rng(44)
        beta = MethodConfig(method).beta
        lp = np.concatenate([-np.geomspace(1e-12, 50.0, 400), rng.uniform(-40.0, -1e-9, 10**4)])
        lp = lp.reshape(4, -1)
        ref = rng.uniform(-40.0, -0.1, lp.shape)
        n = rng.integers(1, 9, lp.shape)
        r, slope = _METHODS[method].reward(beta, lp, ref, n)
        ref_reward, ref_slope = REFERENCE_REWARDS[method]
        np.testing.assert_array_equal(r, ref_reward(beta, lp, ref, n))
        np.testing.assert_array_equal(np.broadcast_to(slope, lp.shape),
                                      np.broadcast_to(ref_slope(beta, lp, n), lp.shape))
        cfg = MethodConfig(method)
        for i in range(0, lp.shape[1], 97):
            got = reward(cfg, float(lp[0, i]), float(ref[0, i]), int(n[0, i]))
            assert type(got) is float
            assert got == float(ref_reward(beta, lp[0, i], ref[0, i], n[0, i]))

    def test_orpo_singularity_index_in_the_stack(self):
        lp = np.full((4, 6), -2.0)
        lp[2, 4] = 0.0
        with pytest.raises(ValueError, match="singularity.*element 16") as err:
            _METHODS[Method.ORPO].reward(0.1, lp, None, np.ones((4, 6)))
        assert err.value.index == 16


class TestPoLoss:
    def test_policy_equals_reference_gives_log2(self):
        cfg = MethodConfig(Method.DPO, gamma=0.0, eta=1.0)
        b = full_bundle(ref=(-3.0, -5.0, -4.0, -6.0))
        bd = solopo_loss(cfg, b)
        assert bd.po_term + bd.nll_term == pytest.approx(math.log(2), abs=1e-12)

    def test_square_link_zero_at_margin(self):
        # margin exactly gamma -> link argument 0 -> loss 0
        cfg = MethodConfig(Method.IPO, gamma=2.0, eta=7.3)
        b = full_bundle(ref=(-3.0, -3.0, -3.0, -3.0))
        # reward margin = (lp_w - ref_w) - (lp_l - ref_l) = 0 - (-2) = 2 = gamma
        bd = solopo_loss(cfg, b)
        assert bd.po_term + bd.nll_term == pytest.approx(0.0, abs=1e-12)

    def test_simpo_frozen_oracle_value(self):
        # -log sigmoid(2*(-2/2) - 2*(-6/2) - 1.4) = log1p(exp(-2.6)),
        # evaluated independently with the high-precision stdlib path.
        cfg = MethodConfig(Method.SIMPO, eta=1.0)
        b = full_bundle(lp=(-2.0, -6.0, -4.0, -6.0), lens=(2, 2))
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
            ref = (-1.0, -2.0, -1.0, -2.0) if cfg.needs_reference else None
            b = full_bundle(lp=(-3.0, -5.0, -3.0, -5.0), ref=ref)
            assert solopo_loss(cfg, b).ra_term == pytest.approx(0.0, abs=1e-15)

    def test_dpo_chosen_only_value(self):
        cfg = MethodConfig(Method.DPO)  # beta 0.1
        b = full_bundle(lp=(-5.0, -5.0, -9.0, -6.0), ref=(-1.0, -1.0, -1.0, -1.0))
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
                                   (cfg.beta / b.lens[0]) * solopo_loss(kl_cfg, b).ra_term,
                                   rtol=0, atol=1e-12)

    def test_both_mode_averages(self):
        cfg_b = MethodConfig(Method.SLIC, ra_mode=RAMode.BOTH)
        b = full_bundle()
        gap_w, gap_l = abs(b.lp[:2] - b.lp[2:])
        assert solopo_loss(cfg_b, b).ra_term == pytest.approx(0.5 * (gap_w + gap_l))

    def test_square_link_squares_the_gap(self):
        cfg = MethodConfig(Method.IPO)
        b = full_bundle(ref=(-1.0, -1.0, -2.0, -2.0))
        gap = (b.lp[0] - (-1.0)) - (b.lp[2] - (-2.0))
        assert solopo_loss(cfg, b).ra_term == pytest.approx(gap * gap)


class TestTotalLoss:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_degeneration_long_equals_short(self, method, mode):
        """Copying short fields into long collapses the total to the plain loss."""
        rng = np.random.default_rng(11)
        for alpha in (0.0, 1.0, 3.7):
            cfg = MethodConfig(method, ra_mode=mode, alpha=alpha)
            b = long_as_short(make_bundle(rng, method))
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
        nll = -b.lp[0] / b.lens[0]
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
            assert g[GRAD_FIELDS.index("lp_w_long")] == 0.0
            assert g[GRAD_FIELDS.index("lp_l_long")] == 0.0

    def test_dpo_chosen_only_long_grad_constant(self):
        # When the chosen short reward exceeds the long one, the alignment
        # derivative w.r.t. the long log-prob is exactly -alpha * beta.
        cfg = MethodConfig(Method.DPO, alpha=2.0)
        b = full_bundle(lp=(-3.0, -5.0, -9.0, -6.0), ref=(-1.0, -1.0, -1.0, -1.0))
        g = grad_solopo(cfg, b)
        assert g[GRAD_FIELDS.index("lp_w_long")] == pytest.approx(-cfg.alpha * cfg.beta,
                                                                  abs=1e-15)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_matches_finite_differences(self, method, mode):
        rng = np.random.default_rng(31)
        cfg = MethodConfig(method, ra_mode=mode)
        b = random_bundle(rng, cfg, 200)
        analytic = grad_solopo(cfg, b)
        numeric = fd_gradient(cfg, b)
        assert analytic.shape == numeric.shape == (len(GRAD_FIELDS), 200)
        assert np.max(relative_error(analytic, numeric)) < 1e-5

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_random_bundle_avoids_the_kl_kink(self, method):
        """kl_approx penalizes |lp_w_short - lp_w_long| for every method, IPO
        included, so its kink at zero is kept out of the sample."""
        cfg = MethodConfig(method, ra_mode=RAMode.KL_APPROX)
        b = random_bundle(np.random.default_rng(32), cfg, 500, kink_margin=0.5)
        assert np.all(np.abs(b.lp[0] - b.lp[2]) > 0.5)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_random_bundle_clears_every_kink(self, method, mode):
        """The hinge link has a kink at z = 0, and each absolute alignment gap
        (IPO squares its gaps; kl_approx takes one) at 0; a random bundle
        stays a margin away from all of them."""
        cfg = MethodConfig(method, ra_mode=mode)
        b = random_bundle(np.random.default_rng(33), cfg, 500, kink_margin=0.5)
        kinks = kink_distances(cfg, b)
        gaps = {RAMode.CHOSEN_ONLY: 1, RAMode.BOTH: 2, RAMode.KL_APPROX: 1}[mode]
        if method is Method.IPO and mode is not RAMode.KL_APPROX:
            gaps = 0
        assert len(kinks) == (method is Method.SLIC) + gaps
        assert all(np.all(d > 0.5) for d in kinks)

    def test_singularity_propagates(self):
        cfg = MethodConfig(Method.ORPO)
        b = full_bundle(lp=(0.0, -5.0, -4.0, -6.0))
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
        np.testing.assert_allclose(grads, np.transpose([grad_solopo(cfg, b) for b in bundles]),
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_public_losses_read_the_one_pass(self, method, mode):
        """grad_solopo is exactly the pass's grads: a (4, n) array for n
        records and a (4,) array for one record."""
        rng = np.random.default_rng(43)
        cfg = MethodConfig(method, ra_mode=mode, alpha=1.3, eta=1.7)
        batch = random_bundle(rng, cfg, 16)
        for b, shape in ((batch, (4, 16)), (row(batch, 3), (4,))):
            bd = solopo_loss(cfg, b)
            assert bd.grads.shape == shape
            np.testing.assert_array_equal(grad_solopo(cfg, b), bd.grads)

    def test_singular_element_is_named(self):
        rng = np.random.default_rng(42)
        cfg = MethodConfig(Method.ORPO)
        batch = random_bundle(rng, cfg, 8)
        batch.lp[0, 5] = 0.0
        with pytest.raises(ValueError, match="singularity.*element 5") as err:
            solopo_loss(cfg, batch)
        assert err.value.index == 5


class TestBundleValidation:
    def test_lengths_positive(self):
        with pytest.raises(ValueError):
            full_bundle(lens=(0, 3))

    def test_finite_required(self):
        with pytest.raises(ValueError):
            full_bundle(lp=(math.nan, -5.0, -4.0, -6.0))

    @pytest.mark.parametrize("name", GRAD_FIELDS + tuple(f"ref_{k}" for k in GRAD_FIELDS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [None, 5])
    def test_non_finite_field_is_named(self, name, bad, n):
        """One record's (4,) rows, or (4, n) rows with one bad element, of the
        policy or of the reference."""
        shape = (4,) if n is None else (4, n)
        lp, ref = np.full(shape, -3.0), np.full(shape, -4.0)
        stack = ref if name.startswith("ref_") else lp
        stack[(GRAD_FIELDS.index(name.removeprefix("ref_")),) + (() if n is None else (3,))] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            LogProbBundle(lp, np.full(lp.shape, 2), ref)

    def test_first_bad_field_is_named(self):
        # +inf and -inf sum to nan: both fields are bad, the first is named.
        with pytest.raises(ValueError, match="^lp_l_short must be finite$"):
            full_bundle(lp=(-3.0, math.inf, -4.0, -math.inf), ref=(math.nan,) * 4)

    @pytest.mark.parametrize("name", ["len_w", "len_l"])
    @pytest.mark.parametrize("value", [0, -1, np.array([2, 0, 3])])
    def test_short_length_message(self, name, value):
        len_w, len_l = np.broadcast_arrays(*{"len_w": 2, "len_l": 3, name: value}.values())
        with pytest.raises(ValueError, match=r"^response lengths must be >= 1$"):
            LogProbBundle(np.full((4,) + len_w.shape, -3.0), np.array([len_w, len_l] * 2))

    @pytest.mark.parametrize("lp, lens, ref", [
        ((4, 3), (3,), None), ((3, 3), (3, 3), None), ((4,), (4, 1), None),
        ((4, 3), (4, 3), (4, 2))], ids=["one_length_row", "three_rows", "lengths_2d", "ref"])
    def test_stacks_must_share_a_four_row_shape(self, lp, lens, ref):
        """A (n,) length row would broadcast over all four rows: one shape or an error."""
        with pytest.raises(ValueError, match=r"^lp, lens and ref must share one \(4, "):
            LogProbBundle(np.full(lp, -3.0), np.full(lens, 2),
                          None if ref is None else np.full(ref, -4.0))

    def test_finite_fields_whose_sum_overflows_pass(self):
        b = full_bundle(lp=(-1e308,) * 4)
        assert b.lp[3] == -1e308
