"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines as they complete. The heavyweight end-to-end experiment is
shared between the last two criteria through a session fixture.
"""

import itertools
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shortlong.bounds import (ALL_LINKS, TOLERANCE, run_assumption_necessity_search,
                              run_lemma1_suite, run_theorem1_suite, run_theorem2_suite)
from shortlong.corpus import StubGenerator, build_chain_corpus, word_profile
from shortlong.efficiency import CROSSOVER_COMPRESSION, speedup
from shortlong.forge import HaystackConfig, forge_dataset, write_forged_jsonl
from shortlong.gradcheck import check_loss_gradients, random_bundle
from shortlong.links import BoundFn, ConvexLink, eval_bound, eval_link
from shortlong.losses import Method, MethodConfig, RAMode, solopo_loss

SEED = 20240


def _verdict(criterion: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# --------------------------------------------------------------- criterion 1


def test_criterion_01_pointwise_split_suite():
    """10^6 random instances across all five links, <= 1e-9, under 60 s."""
    begin = time.perf_counter()
    report = run_lemma1_suite(1_000_000, seed=SEED, gamma_range=(-3.0, 3.0),
                              reward_range=(-10.0, 10.0))
    elapsed = time.perf_counter() - begin
    ok = report.max_violation <= TOLERANCE and elapsed < 60.0
    assert _verdict(1, ok, f"1e6 instances, max violation {report.max_violation:.3e}, "
                           f"{elapsed:.1f}s")


# --------------------------------------------------------------- criterion 2


def test_criterion_02_domination_grid():
    """f(x+g) + f(-x+g) <= s(|x|) on x in [-50, 50] step 1e-2, g in {0, .5, 1.4, 3};
    the square pairing is an identity at every grid point."""
    grid = np.arange(-5000, 5001) * 1e-2
    worst = -np.inf
    square_worst = 0.0
    for gamma in (0.0, 0.5, 1.4, 3.0):
        for link in ALL_LINKS:
            lhs = eval_link(link, grid + gamma) + eval_link(link, -grid + gamma)
            rhs = eval_bound(BoundFn(link, gamma), np.abs(grid))
            worst = max(worst, float(np.max(lhs - rhs)))
            if link is ConvexLink.SQUARE:
                square_worst = max(square_worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= TOLERANCE and square_worst <= 1e-12
    assert _verdict(2, ok, f"max slack {worst:.3e}, square |diff| {square_worst:.3e}")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_scenario_suites_and_necessity():
    """10^4 discrimination-constrained scenarios per link for both the exact
    and the envelope form; the unconstrained search must find a witness."""
    worst_exact = max(r.max_violation
                      for r in run_theorem1_suite(10_000, SEED, form="exact").values())
    worst_sform = max(r.max_violation
                      for r in run_theorem1_suite(10_000, SEED, form="sform").values())
    necessity = run_assumption_necessity_search(100_000, SEED)
    found = necessity.max_violation > TOLERANCE and necessity.worst_witness is not None
    ok = worst_exact <= TOLERANCE and worst_sform <= TOLERANCE and found
    detail = (f"exact max {worst_exact:.3e}, envelope max {worst_sform:.3e}, "
              f"witnesses without the assumption: "
              f"{(necessity.worst_witness or {}).get('violations_found', 0)}")
    assert _verdict(3, ok, detail)


# --------------------------------------------------------------- criterion 4


def test_criterion_04_generalized_distance_suite():
    """p in {1, 2, inf}, C1 = 1: distance condition holds everywhere and the
    bound never breaks on 10^4 scenarios per p."""
    reports = run_theorem2_suite(10_000, SEED, p_values=(1.0, 2.0, np.inf), c1=1.0)
    worst = max(r.max_violation for r in reports.values())
    failures = sum(r.condition_failures for r in reports.values())
    ok = worst <= TOLERANCE and failures == 0
    assert _verdict(4, ok, f"max violation {worst:.3e}, condition failures {failures}")


# --------------------------------------------------------------- criterion 5


def test_criterion_05_gradient_fidelity():
    """Analytic gradients match central finite differences (h = 1e-5) at 10^3
    smooth points for all 5 methods x 3 alignment modes."""
    report = check_loss_gradients(1000, SEED)
    ok = (report["h"] == 1e-5 and report["max_relative_error"] < 1e-4
          and len(report["combos"]) == 15)
    assert _verdict(5, ok, f"15 combos, max relative error "
                           f"{report['max_relative_error']:.3e}")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_degeneration_identity():
    """With identical short/long fields the full objective equals the plain
    preference loss to 1e-12 for every method, mode, and alpha."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for method, mode in itertools.product(Method, RAMode):
        for alpha in (0.0, 0.5, 1.0, 3.0):
            cfg = MethodConfig(method, ra_mode=mode, alpha=alpha)
            b = random_bundle(rng, cfg, 100)
            b = replace(b, lp_w_long=b.lp_w_short, lp_l_long=b.lp_l_short,
                        ref_lp_w_long=b.ref_lp_w_short, ref_lp_l_long=b.ref_lp_l_short)
            bd = solopo_loss(cfg, b)
            worst = max(worst, float(np.max(np.abs(bd.total - (bd.po_term + bd.nll_term)))))
    ok = worst <= 1e-12
    assert _verdict(6, ok, f"max |total - plain| = {worst:.3e} over 6000 bundles")


# --------------------------------------------------------------- criterion 7


def test_criterion_07_alignment_kl_identities():
    """On 10^5 random bundles: the chosen-only alignment term equals beta
    (resp. beta / len_w) times the raw log-prob gap for the two log-ratio-free
    methods, exactly to 1e-12."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    dpo = MethodConfig(Method.DPO)
    dpo_kl = MethodConfig(Method.DPO, ra_mode=RAMode.KL_APPROX)
    simpo = MethodConfig(Method.SIMPO)
    simpo_kl = MethodConfig(Method.SIMPO, ra_mode=RAMode.KL_APPROX)
    b = random_bundle(rng, dpo, 50_000)
    worst = max(worst, float(np.max(np.abs(solopo_loss(dpo, b).ra_term
                                           - dpo.beta * solopo_loss(dpo_kl, b).ra_term))))
    b = random_bundle(rng, simpo, 50_000)
    worst = max(worst, float(np.max(np.abs(
        solopo_loss(simpo, b).ra_term
        - simpo.beta / b.len_w * solopo_loss(simpo_kl, b).ra_term))))
    ok = worst <= 1e-12
    assert _verdict(7, ok, f"max identity error {worst:.3e} over 1e5 bundles")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_speedup_formula():
    checks = {
        "speedup(1) == 2/3": speedup(1.0) == 2.0 / 3.0,
        "speedup(1/sqrt 2) == 1 (1e-12)": abs(speedup(1 / math.sqrt(2)) - 1.0) <= 1e-12,
        "speedup(0.125) == 1.9394 (1e-4)": abs(speedup(0.125) - 1.9394) <= 1e-4,
        "crossover == 0.70711 (1e-5)": abs(CROSSOVER_COMPRESSION - 0.70711) <= 1e-5,
    }
    ok = all(checks.values())
    assert _verdict(8, ok, "; ".join(f"{k}: {v}" for k, v in checks.items()))


# --------------------------------------------------------------- criterion 9


def test_criterion_09_forge_contract(tmp_path):
    """>= 500 sources at realistic lengths: every emitted sample honours its
    invariants (verified independently here), the achieved compression lands
    within 10% of the target, and reruns are byte-identical."""
    profile = word_profile()
    sources, pool = build_chain_corpus(520, 2200, seed=SEED, profile=profile)
    cfg = HaystackConfig(target_short_tokens=1100, target_long_tokens=7500, seed=SEED)
    gen = StubGenerator(p_correct=0.5, n=32,
                        wrong_answers=tuple(str(1800 + i) for i in range(240)))
    samples, stats = forge_dataset(sources, pool, gen, cfg)

    bad = 0
    for s in samples:
        try:
            s.check_invariants(cfg)
        except ValueError:
            bad += 1
            continue
        # independent reconstruction of the two chain documents
        subject = s.question.split("of")[1].split("established")[0].strip()
        needle = next((d for d in s.x_short.split(" <sep> ")
                       if d.endswith(f"{profile.relation_b} {s.answer}")), None)
        if needle is None:
            bad += 1
            continue
        bridge = needle.split()[0]
        first_hop = f"{subject} {profile.relation_a} {bridge}"
        if not (first_hop in s.x_short and first_hop in s.x_long
                and needle in s.x_long):
            bad += 1

    c_ok = abs(stats.achieved_compression - cfg.target_compression) \
        <= 0.10 * cfg.target_compression

    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_forged_jsonl(samples, out_a)
    rerun, _ = forge_dataset(sources, pool, gen, cfg)
    write_forged_jsonl(rerun, out_b)
    identical = out_a.read_bytes() == out_b.read_bytes()

    ok = stats.emitted >= 500 and bad == 0 and c_ok and identical
    assert _verdict(9, ok, f"emitted {stats.emitted}, invariant failures {bad}, "
                           f"achieved c {stats.achieved_compression:.4f} "
                           f"(target {cfg.target_compression:.4f}), "
                           f"rerun identical: {identical}")


# ------------------------------------------------------- criteria 10 and 11


@pytest.fixture(scope="session")
def directional_result():
    from shortlong.experiment import ExperimentConfig, directional_experiment

    begin = time.perf_counter()
    result = directional_experiment(ExperimentConfig(seeds=(0, 1, 2, 3, 4)))
    result["elapsed_s"] = time.perf_counter() - begin
    return result


def test_criterion_10_directional_experiment(directional_result):
    """Across >= 5 seeds the tuned alignment arm beats plain short-context
    training on long-context accuracy by more than one pooled standard error,
    without giving up short-context accuracy; the whole run stays far under
    the 30-minute single-core budget."""
    r = directional_result
    ok = (r["long_improved"] and r["short_maintained"]
          and r["elapsed_s"] < 30 * 60)
    agg = r["aggregates"]
    detail = (f"{r['selected']} long {agg[r['selected']]['long_mean']:.3f} vs "
              f"{r['baseline']} long {agg[r['baseline']]['long_mean']:.3f} "
              f"(gap {r['long_gap']:.3f}, pooled se {r['long_pooled_se']:.4f}); "
              f"short gap {r['short_gap']:+.3f} (pooled se {r['short_pooled_se']:.4f}); "
              f"{r['elapsed_s']:.0f}s")
    assert _verdict(10, ok, detail)


def test_criterion_11_margin_telemetry(directional_result, tmp_path):
    """Chosen-only vs both-sides margin curves come out as plot-ready CSV;
    report-only, no numeric claim asserted."""
    report = directional_result["margins"]
    path = tmp_path / "margins.csv"
    report.write_margins_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    ok = (header[0] == "step"
          and any(c.startswith("ra=chosen_only") for c in header)
          and any(c.startswith("ra=both") for c in header)
          and len(lines) > 1
          and all(len(line.split(",")) == len(header) for line in lines[1:]))
    # sanity: the numbers parse as floats
    float(lines[1].split(",")[1])
    assert _verdict(11, ok, f"margins.csv with columns {header[1:]} "
                            f"and {len(lines) - 1} steps (report-only)")


def test_readme_alpha_table_matches_the_experiment(directional_result):
    """The README's alpha table is the rendering of this run's aggregates:
    ``mean ± std`` of long and of short accuracy per arm, at 3 decimals."""
    rendered = {f"α = {label.removeprefix('alpha=')}":
                [f"{agg['long_mean']:.3f} ± {agg['long_std']:.3f}",
                 f"{agg['short_mean']:.3f} ± {agg['short_std']:.3f}"]
                for label, agg in directional_result["aggregates"].items()}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in readme.splitlines():
        cells = [" ".join(cell.split()) for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("α ="):
            table[cells[0]] = cells[1:]
    assert table == rendered
