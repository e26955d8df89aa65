"""Certification machinery: pointwise split, scenario bounds, witness search."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from shortlong import bounds, links
from shortlong.bounds import (ALL_LINKS, SFORM_GAMMA_RANGES, TOLERANCE, BoundReport,
                              DiscreteScenario, check_theorem1_exact,
                              check_theorem1_sform, check_theorem2, lemma_slack,
                              random_scenario, run_assumption_necessity_search,
                              run_lemma1_suite, run_nonconvex_selftest,
                              run_theorem1_suite, run_theorem2_suite,
                              theorem1_exact_slack, theorem1_sform_slack)
from shortlong.links import ConvexLink, eval_bound, eval_link


def single_pair_scenario(r_sw, r_sl, r_lw, r_ll, p_short=1.0, p_long=1.0):
    return DiscreteScenario(
        context_weights=[1.0], response_weights=[0.5, 0.5],
        r_short=[[r_sw, r_sl]], r_long=[[r_lw, r_ll]],
        pref_short=[[[0.0, p_short], [0.0, 0.0]]],
        pref_long=[[[0.0, p_long], [0.0, 0.0]]])


class TestLemma:
    def test_hand_evaluated_square_instance(self):
        # LHS = f(1 - 0) = 1; deltas (0, 1, 0) -> RHS = (0 + 9 + 0) / 3 = 3.
        # Rewards (r_sw, r_sl, r_lw, r_ll) = (1, 0, 1, 0).
        slack = lemma_slack(ConvexLink.SQUARE, 0.0, (1, 0, 1, 0))
        assert type(slack) is float
        assert slack == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_equal_rewards_tight(self, link):
        assert lemma_slack(link, 0.0, (2.0, 2.0, 2.0, 2.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_batch_equals_rows_bit_for_bit(self, link):
        """An (N, 4) batch with (N,) gammas is its rows scored one by one."""
        rng = np.random.default_rng(ALL_LINKS.index(link))
        gammas = rng.uniform(-3.0, 3.0, 64)
        rewards = rng.uniform(-10.0, 10.0, (64, 4))
        batch = lemma_slack(link, gammas, rewards)
        assert isinstance(batch, np.ndarray) and batch.shape == (64,)
        rows = np.array([lemma_slack(link, g, r) for g, r in zip(gammas, rewards)])
        assert batch.tobytes() == rows.tobytes()

    def test_random_suite_never_violates(self):
        report = run_lemma1_suite(50_000, seed=5)
        assert report.instances == 50_000
        assert report.max_violation <= TOLERANCE
        assert report.worst_witness is None

    def test_suite_deterministic(self):
        a = run_lemma1_suite(10_000, seed=9)
        b = run_lemma1_suite(10_000, seed=9)
        assert a.to_json() == b.to_json()


class TestScenarioType:
    def test_weight_normalization_enforced(self):
        with pytest.raises(ValueError):
            DiscreteScenario([0.6], [0.5, 0.5], [[0, 0]], [[0, 0]],
                             np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))

    def test_pair_mass_cap_enforced(self):
        p = np.zeros((1, 2, 2))
        p[0, 0, 1] = 0.7
        p[0, 1, 0] = 0.6
        with pytest.raises(ValueError):
            DiscreteScenario([1.0], [0.5, 0.5], [[0, 0]], [[0, 0]], p, p)

    @pytest.mark.parametrize("field, index", [
        ("context_weights", (0,)), ("response_weights", (1,)), ("r_short", (0, 1)),
        ("r_long", (0, 0)), ("pref_short", (0, 0, 1)), ("pref_long", (0, 1, 0))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_field(self, field, index, bad):
        scn = single_pair_scenario(1, 0, 1, 0, p_short=0.8, p_long=0.3)
        values = {name: np.array(getattr(scn, name)) for name in
                  ("context_weights", "response_weights", "r_short", "r_long",
                   "pref_short", "pref_long")}
        values[field][index] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            DiscreteScenario(**values)

    def test_pair_and_diagonal_checks_match_a_pair_loop(self):
        """Over random batches with some pair sums pushed past 1, the pair
        check rejects exactly the tables in which some pair i < j of some
        table sums past 1 + 1e-12, found by looping over the pairs."""
        rng = np.random.default_rng(21)
        for n, k, m in [(1, 1, 2), (40, 1, 2), (30, 3, 4), (5, 2, 5), (8, 1, 1)]:
            for trial in range(20):
                batch = random_scenario(rng, max_contexts=k, max_responses=max(m, 2),
                                        size=n)
                p = batch.pref_short[..., :m, :m].copy()
                if trial % 2:
                    at = tuple(int(rng.integers(s)) for s in p.shape[:-2])
                    i, j = rng.choice(m, 2, replace=False) if m > 1 else (0, 0)
                    p[at + (i, j)] = 1.0 - p[at + (j, i)] + rng.choice([1e-13, 1e-11, 0.1])
                    p = np.clip(p, 0.0, 1.0)
                    np.einsum("...ii->...i", p)[...] = 0.0
                args = (batch.context_weights, np.full((n, m), 1.0 / m),
                        batch.r_short[..., :m], batch.r_long[..., :m], p, np.zeros_like(p))
                tables = p.reshape(-1, m, m)
                if any(t[i, j] + t[j, i] > 1 + 1e-12 for t in tables
                       for i in range(m) for j in range(i + 1, m)):
                    with pytest.raises(ValueError, match=r"P\[i,j\] \+ P\[j,i\]"):
                        DiscreteScenario(*args)
                else:
                    DiscreteScenario(*args)
                if m > 1:
                    p = np.zeros_like(p)
                    p[(0,) * (p.ndim - 2) + (m - 1, m - 1)] = 1e-300
                    with pytest.raises(ValueError, match=r"P\[i,i\] must be 0"):
                        DiscreteScenario(*args[:4], p, p)

    def test_discrimination_flag(self):
        scn = single_pair_scenario(1, 0, 1, 0, p_short=0.8, p_long=0.3)
        assert scn.satisfies_discrimination()
        bad = single_pair_scenario(1, 0, 1, 0, p_short=0.3, p_long=0.8)
        assert not bad.satisfies_discrimination()


class TestTheorem1Exact:
    def test_degenerate_scenario_reduces_to_lemma(self):
        rewards = (0.5, -1.0, 2.0, 0.25)
        scn = single_pair_scenario(*rewards)
        for link in ALL_LINKS:
            rep = check_theorem1_exact(scn, link, 0.7)
            # Pair mass 1/4 scales both sides of the pointwise inequality.
            assert rep.max_violation == pytest.approx(
                0.25 * lemma_slack(link, 0.7, rewards), abs=1e-12)

    def test_precondition_rejected(self):
        bad = single_pair_scenario(1, 0, 1, 0, p_short=0.2, p_long=0.9)
        with pytest.raises(ValueError, match="discrimination"):
            check_theorem1_exact(bad, ConvexLink.LOGISTIC, 0.0)

    def test_random_suite(self):
        reports = run_theorem1_suite(800, seed=3, form="exact")
        for rep in reports.values():
            assert rep.max_violation <= TOLERANCE


class TestTheorem1SForm:
    def test_all_equal_rewards_slack_formula(self):
        """Hand-evaluated slack: (2/3) m f(-gamma) - (1/3) s(0), where m is the
        mass of the single preference-ordered pair. Negative, not zero."""
        for link, (glo, ghi) in SFORM_GAMMA_RANGES.items():
            for gamma in (glo, 0.0, ghi):
                scn = single_pair_scenario(1.5, 1.5, 1.5, 1.5)
                m = 0.25  # q_w * q_l * P(w beats l)
                expected = (2.0 / 3.0) * m * eval_link(link, -gamma) \
                    - (1.0 / 3.0) * eval_bound(link, 0.0, gamma)
                rep = check_theorem1_sform(scn, link, gamma)
                assert rep.max_violation == pytest.approx(expected, abs=1e-12)
                assert rep.max_violation <= TOLERANCE

    def test_random_suite_within_validity_ranges(self):
        reports = run_theorem1_suite(800, seed=4, form="sform")
        for rep in reports.values():
            assert rep.max_violation <= TOLERANCE

    def test_logistic_matches_absolute_gap_plus_constant_form(self):
        """At the logistic pairing, the envelope term equals
        mean |gap| + (2/3) log(1 + e^{3 gamma}) — evaluated independently."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            scn = random_scenario(rng)
            gamma = float(rng.uniform(0.0, 3.0))
            got = theorem1_sform_slack(scn, ConvexLink.LOGISTIC, gamma)
            w, q = scn.context_weights, scn.response_weights
            gaps = np.abs(scn.r_short - scn.r_long)
            short = 0.0
            f = lambda x: np.logaddexp(0.0, -x)
            margin = 3.0 * (scn.r_short[:, :, None] - scn.r_short[:, None, :]) - gamma
            mass = w[:, None, None] * q[None, :, None] * q[None, None, :]
            short = float(np.sum(mass * scn.pref_short * f(margin)))
            lhs = float(np.sum(mass * scn.pref_long
                               * f(scn.r_long[:, :, None] - scn.r_long[:, None, :] - gamma)))
            prop_rhs = short / 3.0 + float(w @ (gaps @ q)) \
                + (2.0 / 3.0) * math.log1p(math.exp(3.0 * gamma))
            assert got == pytest.approx(lhs - prop_rhs, abs=1e-10)

    def test_square_envelope_dominates_cross_terms(self):
        """For the square pairing the envelope side never undercuts the
        exact cross terms (the simplified RHS is the looser one)."""
        from shortlong.bounds import theorem1_exact_slack

        rng = np.random.default_rng(9)
        for _ in range(300):
            scn = random_scenario(rng)
            gamma = float(rng.uniform(-3, 3))
            exact = theorem1_exact_slack(scn, ConvexLink.SQUARE, gamma)
            sform = theorem1_sform_slack(scn, ConvexLink.SQUARE, gamma)
            # looser RHS => smaller slack
            assert sform <= exact + 1e-10


class TestTheorem2:
    def test_p1_matches_sform_logistic(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            scn = random_scenario(rng)
            gamma = float(rng.uniform(0, 3))
            rep = check_theorem2(scn, 1.0, 1.0, gamma)
            assert rep.condition_failures == 0
            assert rep.max_violation == pytest.approx(
                theorem1_sform_slack(scn, ConvexLink.LOGISTIC, gamma), abs=1e-10)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_random_suite(self, p):
        """Each p draws from its own generator, so its report in the suite is
        the one a suite over that p alone would give."""
        rep = run_theorem2_suite(300, seed=6)["inf" if np.isinf(p) else f"{p:g}"]
        assert rep.condition_failures == 0
        assert rep.max_violation <= TOLERANCE

    def test_invalid_p_rejected(self):
        scn = single_pair_scenario(1, 0, 1, 0)
        with pytest.raises(ValueError, match="p >= 1"):
            check_theorem2(scn, 0.5, 1.0, 0.0)

    @pytest.mark.parametrize("p, c1, match", [(math.nan, 1.0, "p >= 1"),
                                              (2.0, math.nan, "c1"),
                                              (2.0, math.inf, "c1")])
    def test_nan_p_and_non_finite_c1_rejected(self, p, c1, match):
        with pytest.raises(ValueError, match=match):
            check_theorem2(single_pair_scenario(1, 0, 1, 0), p, c1, 0.0)

    def test_infinite_p_accepted(self):
        rep = check_theorem2(single_pair_scenario(1, 0, 1, 0), math.inf, 1.0, 0.0)
        assert math.isfinite(rep.max_violation) and rep.passed


class TestLogisticKernelCertificates:
    """Certificates computed with the vectorized logistic kernel equal those
    of an ``np.logaddexp`` reference: worst slacks within rel 1e-12 and the
    same witnesses."""

    @staticmethod
    def certificates(seed: int) -> dict[str, BoundReport]:
        reports = {"lemma1": run_lemma1_suite(30_000, seed),
                   "necessity": run_assumption_necessity_search(3_000, seed)}
        for form in ("exact", "sform"):
            reports.update({f"theorem1_{form}[{k}]": r
                            for k, r in run_theorem1_suite(300, seed, form=form).items()})
        reports.update({f"theorem2[{k}]": r for k, r in run_theorem2_suite(300, seed).items()})
        return reports

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_logaddexp_reference(self, monkeypatch, seed):
        kernel = self.certificates(seed)
        reference = lambda t: np.logaddexp(0.0, t)
        monkeypatch.setattr(links, "_softplus", reference)
        monkeypatch.setattr(bounds, "_softplus", reference)
        xs = np.linspace(-40.0, 40.0, 801)
        assert np.array_equal(eval_link(ConvexLink.LOGISTIC, xs), np.logaddexp(0.0, -xs))
        ref = self.certificates(seed)
        assert kernel.keys() == ref.keys()
        assert ref["necessity"].worst_witness["violations_found"] > 0
        for key, want in ref.items():
            got = kernel[key]
            assert got.max_violation == pytest.approx(want.max_violation, rel=1e-12, abs=0), key
            assert got.worst_witness == want.worst_witness, key


class TestNecessitySearch:
    def test_finds_witness_without_assumption(self):
        report = run_assumption_necessity_search(30_000, seed=7)
        assert report.max_violation > TOLERANCE
        assert report.worst_witness is not None
        w = report.worst_witness
        # the witness must genuinely break the discrimination ordering
        ps, pl = np.array(w["pref_short"]), np.array(w["pref_long"])
        assert np.any(pl > ps)

    def test_witness_verifies_independently(self):
        """Re-evaluate the reported witness through the scenario checker."""
        report = run_assumption_necessity_search(30_000, seed=7)
        w = report.worst_witness
        scn = DiscreteScenario(
            context_weights=[1.0], response_weights=w["response_weights"],
            r_short=[w["r_short"]], r_long=[w["r_long"]],
            pref_short=[w["pref_short"]], pref_long=[w["pref_long"]])
        from shortlong.bounds import theorem1_exact_slack

        link = ConvexLink(w["link"])
        assert theorem1_exact_slack(scn, link, w["gamma"]) == pytest.approx(
            w["slack"], rel=1e-9)


class TestSelfTestAndReports:
    def test_nonconvex_selftest_detects_violation(self):
        report = run_nonconvex_selftest(5000, seed=1)
        assert report.max_violation > TOLERANCE
        assert report.worst_witness is not None

    def test_report_json_round_trip(self):
        rep = BoundReport(check="demo", instances=3, max_violation=-0.5, seed=2)
        obj = json.loads(rep.to_json())
        assert obj["check"] == "demo"
        assert obj["instances"] == 3
        assert obj["witness"] is None
        assert rep.passed


def pad(scn, k=4, m=4):
    """``scn`` as a batch of one, padded with zero-weight contexts and responses."""
    k0, m0 = scn.r_short.shape
    w, q = np.zeros((1, k)), np.zeros((1, m))
    w[0, :k0], q[0, :m0] = scn.context_weights, scn.response_weights
    rewards = [np.zeros((1, k, m)) for _ in range(2)]
    prefs = [np.zeros((1, k, m, m)) for _ in range(2)]
    for full, part in zip(rewards + prefs, (scn.r_short, scn.r_long, scn.pref_short,
                                            scn.pref_long)):
        full[(0, *(slice(0, n) for n in part.shape))] = part
    return DiscreteScenario(w, q, *rewards, *prefs)


def stack(*batches):
    """The scenarios of ``batches``, in order, as one batch."""
    return DiscreteScenario(*(np.concatenate([getattr(b, f.name) for b in batches])
                              for f in fields(DiscreteScenario)))


class TestBatch:
    N = 64

    @pytest.mark.parametrize("link", ALL_LINKS)
    @pytest.mark.parametrize("slack_fn", [theorem1_exact_slack, theorem1_sform_slack])
    def test_batch_slack_equals_single_calls(self, link, slack_fn):
        rng = np.random.default_rng([11, ALL_LINKS.index(link)])
        gammas = rng.uniform(*SFORM_GAMMA_RANGES[link], self.N)
        batch = random_scenario(rng, reward_range=(-2.0, 2.0), size=self.N)
        got = slack_fn(batch, link, gammas)
        assert got.shape == (self.N,)
        want = [slack_fn(batch[i], link, float(gammas[i])) for i in range(self.N)]
        assert all(isinstance(x, float) for x in want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_batch_theorem2_equals_single_calls(self, p):
        rng = np.random.default_rng(12)
        gammas = rng.uniform(0.0, 3.0, self.N)
        batch = random_scenario(rng, size=self.N)
        rep = check_theorem2(batch, p, 1.0, gammas)
        singles = [check_theorem2(batch[i], p, 1.0, float(gammas[i])) for i in range(self.N)]
        assert rep.instances == self.N
        assert rep.condition_failures == sum(s.condition_failures for s in singles) == 0
        assert rep.max_violation == pytest.approx(max(s.max_violation for s in singles),
                                                  rel=1e-12, abs=0)

    def test_padding_leaves_slack_unchanged(self):
        """Padded batches (only their weighted cells reach the link) give the
        slacks of their trimmed scenarios (every weight positive, read whole):
        one padded scenario, a random batch, and a batch ending in a scenario
        with a single weighted response, which has no ordered pair."""
        rng = np.random.default_rng(13)
        scn = random_scenario(rng, max_contexts=2, max_responses=3)
        padded = pad(scn)
        assert padded.r_short.shape == (1, 4, 4) and padded[0].r_short.shape == scn.r_short.shape
        lone = DiscreteScenario([0.25, 0.75], [1.0], [[0.5], [-1.0]], [[2.0], [1.5]],
                                np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        batch = random_scenario(rng, size=self.N)
        holding_lone = stack(batch, pad(lone))
        for scns in (padded, batch, holding_lone):
            n = len(scns.r_short)
            assert not (np.all(scns.context_weights > 0) and np.all(scns.response_weights > 0))
            singles = [scns[i] for i in range(n)]
            assert all(np.all(s.context_weights > 0) and np.all(s.response_weights > 0)
                       for s in singles)
            gammas = rng.uniform(-0.5, 0.5, n)
            for link in ALL_LINKS:
                for slack_fn in (theorem1_exact_slack, theorem1_sform_slack):
                    got = slack_fn(scns, link, gammas)
                    for i, single in enumerate(singles):
                        assert got[i] == pytest.approx(slack_fn(single, link, gammas[i]),
                                                       rel=1e-12, abs=0), (link, i)
            for p in (1.0, 2.0, np.inf):
                want = [check_theorem2(s, p, 1.0, g) for s, g in zip(singles, gammas)]
                got = check_theorem2(scns, p, 1.0, gammas)
                assert got.condition_failures == sum(w.condition_failures for w in want)
                assert got.max_violation == pytest.approx(
                    max(w.max_violation for w in want), rel=1e-12, abs=0)
        assert theorem1_exact_slack(holding_lone, ConvexLink.LOGISTIC, 0.0)[self.N] == 0.0

    @pytest.mark.parametrize("slack_fn", [theorem1_exact_slack, theorem1_sform_slack])
    def test_zero_weight_slot_never_reaches_the_link(self, slack_fn):
        """A zero-weight response whose long reward overflows the exponential
        link leaves the slack at the trimmed scenario's, single or batched:
        its inf times its zero weight would be NaN."""
        prefs = lambda p: [[[0.0, p, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]
        scn = DiscreteScenario([1.0], [0.5, 0.5, 0.0], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 800.0]],
                               prefs(0.65), prefs(0.3))
        want = slack_fn(pad(scn)[0], ConvexLink.EXPONENTIAL, 0.0)
        if slack_fn is theorem1_exact_slack:
            assert want == pytest.approx(-7.0 / 240.0, rel=1e-12)
        assert slack_fn(scn, ConvexLink.EXPONENTIAL, 0.0) == pytest.approx(want, rel=1e-12)
        overflowing = pad(scn)  # every slot of a padded context or response overflows
        overflowing.r_long[0][~np.outer(overflowing.context_weights[0] > 0,
                                        overflowing.response_weights[0] > 0)] = 800.0
        batch = stack(pad(scn), overflowing)
        np.testing.assert_allclose(slack_fn(batch, ConvexLink.EXPONENTIAL, [0.0, 0.0]),
                                   [want, want], rtol=1e-12, atol=0)
        check = check_theorem1_exact if slack_fn is theorem1_exact_slack else check_theorem1_sform
        assert check(scn, ConvexLink.EXPONENTIAL, 0.0).passed

    @pytest.mark.parametrize("kernel", ["exact", "sform", "theorem2"])
    @pytest.mark.parametrize("form", ["scalar", "padded batch", "dense batch"])
    def test_non_finite_gamma_names_its_scenario(self, kernel, form):
        call = {"exact": lambda scn, g: theorem1_exact_slack(scn, ConvexLink.LOGISTIC, g),
                "sform": lambda scn, g: theorem1_sform_slack(scn, ConvexLink.LOGISTIC, g),
                "theorem2": lambda scn, g: check_theorem2(scn, 2.0, 1.0, g)}[kernel]
        rng = np.random.default_rng(17)
        if form == "scalar":
            with pytest.raises(links.DomainError, match=r"^gamma must be finite$"):
                call(random_scenario(rng), math.nan)
            return
        scns = random_scenario(rng, size=6)
        if form == "dense batch":
            rewards = rng.uniform(-1.0, 1.0, (6, 1, 2))
            scns = DiscreteScenario(np.ones((6, 1)), np.full((6, 2), 0.5), rewards, rewards,
                                    np.zeros((6, 1, 2, 2)), np.zeros((6, 1, 2, 2)))
        gammas = np.zeros(6)
        gammas[3] = math.inf
        with pytest.raises(links.DomainError, match=r"^gamma must be finite \(element 3\)$"):
            call(scns, gammas)

    def test_batch_checks_apply_per_scenario(self):
        batch = random_scenario(np.random.default_rng(14), size=5)
        assert batch.satisfies_discrimination().tolist() == [True] * 5
        weights = batch.context_weights.copy()
        weights[3] *= 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteScenario(weights, batch.response_weights, batch.r_short, batch.r_long,
                             batch.pref_short, batch.pref_long)
        short, long = batch.pref_short.copy(), batch.pref_long.copy()
        short[2], long[2] = batch.pref_long[2], batch.pref_short[2]
        swapped = DiscreteScenario(batch.context_weights, batch.response_weights,
                                   batch.r_short, batch.r_long, short, long)
        assert swapped.satisfies_discrimination().tolist() == [True, True, False, True, True]
        with pytest.raises(ValueError, match="discrimination"):
            check_theorem1_exact(swapped, ConvexLink.LOGISTIC, 0.0)

    @pytest.mark.parametrize("form", ["exact", "sform"])
    def test_suite_witness_reverifies(self, monkeypatch, form):
        """With every slack counted as a violation, each link's witness is the
        worst scenario, trimmed, and re-verifies through the scenario check."""
        monkeypatch.setattr(bounds, "TOLERANCE", -np.inf)
        check = check_theorem1_exact if form == "exact" else check_theorem1_sform
        for name, rep in run_theorem1_suite(200, seed=15, form=form).items():
            w = rep.worst_witness
            assert w["slack"] == rep.max_violation
            scn = DiscreteScenario(w["context_weights"], w["response_weights"], w["r_short"],
                                   w["r_long"], w["pref_short"], w["pref_long"])
            assert np.all(scn.context_weights > 0) and np.all(scn.response_weights > 0)
            assert check(scn, ConvexLink(name), w["gamma"]).max_violation == pytest.approx(
                w["slack"], rel=1e-12, abs=1e-15)

    def test_theorem2_suite_witness_reverifies(self, monkeypatch):
        monkeypatch.setattr(bounds, "TOLERANCE", -np.inf)
        for key, rep in run_theorem2_suite(200, seed=16).items():
            w = rep.worst_witness
            scn = DiscreteScenario(w["context_weights"], w["response_weights"], w["r_short"],
                                   w["r_long"], w["pref_short"], w["pref_long"])
            p = np.inf if key == "inf" else float(key)
            assert check_theorem2(scn, p, 1.0, w["gamma"]).max_violation == pytest.approx(
                w["slack"], rel=1e-12, abs=1e-15)
