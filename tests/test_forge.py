"""Haystack synthesis, substring matching, curation, and the full pipeline."""

import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from shortlong.corpus import (NO_ANSWER, PrefixedStubGenerator, SourceSample, StubGenerator,
                              build_chain_corpus, needle_profile, needle_vocab,
                              value_token, word_profile)
from shortlong import forge
from shortlong.cli import load_config
from shortlong.forge import (DistractorPool, ForgedSample, HaystackConfig,
                             InsufficientPoolError, _partition, forge_dataset, read_forged_jsonl,
                             read_distractor_pool, read_source_jsonl, sub_em,
                             synthesize_context, text_lines, token_count,
                             write_forged_jsonl)
from shortlong.policy import SEP


@pytest.fixture
def src():
    return SourceSample(question="? founded e01",
                        answer="v05",
                        supporting_docs=("e01 owns e02", "e02 founded v05"))


def make_pool(n):
    return DistractorPool([f"e{i:02d} owns e{(i + 3) % 60:02d}" for i in range(10, 10 + n)])


def scalar_fill(src, distractors, target_tokens, rng, tolerance_frac, skipped):
    """Draw-by-draw reference for the fill in ``synthesize_context``; appends
    each skipped (overshooting) draw to ``skipped``."""
    docs = list(src.supporting_docs)
    total = sum(token_count(d) for d in docs) + (len(docs) - 1)
    lower = target_tokens * (1 - tolerance_frac)
    upper = target_tokens * (1 + tolerance_frac)
    for idx in rng.permutation(len(distractors)):
        if total >= lower:
            break
        cost = token_count(distractors[idx]) + 1
        if total + cost <= upper + 1e-9:
            docs.append(distractors[idx])
            total += cost
        else:
            skipped.append(idx)
    if total < lower - 1e-9:
        raise InsufficientPoolError("pool exhausted")
    order = rng.permutation(len(docs))
    return " <sep> ".join(docs[i] for i in order)


class TestSynthesizeContext:
    def test_supporting_only_when_target_matches(self, src):
        target = sum(token_count(d) for d in src.supporting_docs) + 1  # one separator
        rng = np.random.default_rng(0)
        ctx = synthesize_context(src, make_pool(50), target, rng, tolerance_frac=0.0)
        assert sorted(ctx.split(" <sep> ")) == sorted(src.supporting_docs)

    def test_target_reached_with_supporting_present(self, src):
        rng = np.random.default_rng(1)
        ctx = synthesize_context(src, make_pool(200), 400, rng)
        assert abs(token_count(ctx) - 400) <= 0.05 * 400
        for doc in src.supporting_docs:
            assert doc in ctx

    def test_same_seed_same_bytes(self, src):
        pool = make_pool(100)
        a = synthesize_context(src, pool, 200, np.random.default_rng(7))
        b = synthesize_context(src, pool, 200, np.random.default_rng(7))
        assert a == b

    def test_pool_exhaustion(self, src):
        with pytest.raises(InsufficientPoolError):
            synthesize_context(src, make_pool(3), 500, np.random.default_rng(0))

    def test_supporting_docs_always_present_under_any_seed(self, src):
        pool = make_pool(100)
        for seed in range(20):
            ctx = synthesize_context(src, pool, 120, np.random.default_rng(seed))
            for doc in src.supporting_docs:
                assert doc in ctx

    def test_matches_scalar_fill(self, src):
        # Mostly short documents and a few of 20 or 30 tokens (411 tokens with
        # separators). Running totals often land exactly on the 38-token lower
        # edge of 40 ± 5 %; crossing draws overshoot the narrower bands and are
        # skipped, which can exhaust the pool (exact 100, 320 ± 1 %); 450 ± 5 %
        # exhausts it outright.
        lengths = np.random.default_rng(0).choice([1, 2, 3, 4, 5, 20, 30], size=40)
        docs = [" ".join(f"w{i}x{j}" for j in range(n)) for i, n in enumerate(lengths)]
        pool = DistractorPool(docs)
        cases = ((40, 0.05), (150, 0.05), (100, 0.0), (320, 0.01), (450, 0.05))
        skipped, exhausted = [], 0
        for seed in range(50):
            target, tol = cases[seed % len(cases)]
            try:
                expect = scalar_fill(src, docs, target, np.random.default_rng(seed), tol,
                                     skipped)
            except InsufficientPoolError:
                exhausted += 1
                with pytest.raises(InsufficientPoolError):
                    synthesize_context(src, pool, target, np.random.default_rng(seed),
                                       tolerance_frac=tol)
                continue
            assert synthesize_context(src, pool, target, np.random.default_rng(seed),
                                      tolerance_frac=tol) == expect
        assert skipped and 10 < exhausted < 50

    def test_negative_tolerance_rejected(self, src):
        with pytest.raises(ValueError, match="tolerance_frac"):
            synthesize_context(src, make_pool(50), 40, np.random.default_rng(0),
                               tolerance_frac=-0.05)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, src, tol):
        with pytest.raises(ValueError, match="tolerance_frac must be a finite number"):
            synthesize_context(src, make_pool(50), 40, np.random.default_rng(0),
                               tolerance_frac=tol)

    def test_pool_rejects_document_without_tokens(self):
        with pytest.raises(ValueError, match="distractor 1 has no tokens"):
            DistractorPool(["e01 owns e02", " \t"])


# Each whitespace class str.split treats (ASCII space, an ASCII control, an
# information separator, NEL, no-break space, ideographic space) and two letters.
TOKEN_ALPHABET = (" ", "\t", "\x1c", "\x85", "\xa0", "\u3000", "a", "\xe9")


def all_strings(alphabet, longest=6):
    for n in range(longest + 1):
        for chars in itertools.product(alphabet, repeat=n):
            yield "".join(chars)


@pytest.fixture(scope="module")
def criterion9():
    """A criterion-9-size forge: 520 sources, 1100/7500-token contexts."""
    sources, pool = build_chain_corpus(520, 2200, seed=11, profile=word_profile())
    cfg = HaystackConfig(target_short_tokens=1100, target_long_tokens=7500, seed=11)
    gen = StubGenerator(p_correct=0.5, n=32,
                        wrong_answers=tuple(str(1800 + i) for i in range(240)))
    samples, _ = forge_dataset(sources, pool, gen, cfg)
    return samples, cfg


class TestTokenCount:
    def test_every_short_string_matches_split(self, monkeypatch):
        for text in all_strings(TOKEN_ALPHABET):
            assert token_count(text) == len(text.split()), repr(text)
        monkeypatch.setattr(forge, "_SCAN_MIN_CHARS", 1)  # scan every non-empty ASCII text
        for text in all_strings(TOKEN_ALPHABET):
            assert token_count(text) == len(text.split()), repr(text)

    def test_every_ascii_character(self, monkeypatch):
        monkeypatch.setattr(forge, "_SCAN_MIN_CHARS", 1)
        for c in map(chr, range(128)):
            for text in (c, c * 3, f"a{c}b", f"{c}a{c}{c}b{c}"):
                assert token_count(text) == len(text.split()), repr(text)

    def test_long_ascii_text_matches_split(self):
        pad = "w " * forge._SCAN_MIN_CHARS
        for text in all_strings([c for c in TOKEN_ALPHABET if c.isascii()]):
            for long_text in (pad + text, text + pad, text + pad.rstrip() + text):
                assert token_count(long_text) == len(long_text.split()), repr(text)

    def test_forged_contexts_match_split(self, criterion9):
        samples, _ = criterion9
        assert len(samples) >= 500
        for s in samples:
            for text in (s.x_short, s.x_long):
                assert text.isascii() and len(text) >= forge._SCAN_MIN_CHARS
                assert token_count(text) == len(text.split())


class TestCheckInvariantsReadsText:
    def test_tab_separators_count_the_same(self, criterion9):
        samples, cfg = criterion9
        s = samples[0]
        tabbed = replace(s, x_long=s.x_long.replace(f" {SEP} ", f"\t{SEP}\t"))
        assert tabbed.x_long != s.x_long
        assert tabbed.check_invariants(cfg) == s.check_invariants(cfg)

    def test_one_token_past_the_band_raises(self, criterion9):
        samples, cfg = criterion9
        s = samples[0]
        _, n_long = s.check_invariants(cfg)
        upper = math.floor(cfg.target_long_tokens * (1 + cfg.tolerance_frac))
        at_edge = replace(s, x_long=s.x_long + " w" * (upper - n_long))
        assert at_edge.check_invariants(cfg)[1] == upper
        over = replace(s, x_long=at_edge.x_long + " w")
        with pytest.raises(ValueError, match=f"^x_long has {upper + 1} tokens, "
                                             f"outside tolerance of {cfg.target_long_tokens}$"):
            over.check_invariants(cfg)


class TestSubEm:
    def test_marker_span_hit(self):
        assert sub_em("reasoning ... The answer is: 1960", "1960")

    def test_marker_span_miss(self):
        assert not sub_em("The answer is: No answer.", "1960")

    def test_normalization(self):
        assert sub_em("THE ANSWER IS:  the 1960.", "1960")

    def test_last_marker_wins(self):
        assert not sub_em("The answer is: 1960. Wait. The answer is: 1850", "1960")
        assert sub_em("The answer is: 1850. Wait. The answer is: 1960", "1960")

    def test_whole_text_without_marker(self):
        assert sub_em("probably 42, give or take", "42")
        assert not sub_em("probably 43", "42")

    def test_article_and_punct_stripping(self):
        assert sub_em("An Owl!", "owl")


def fixed(*candidates):
    """A generator that returns ``candidates``, with ``{answer}`` filled in
    from the source, whatever the context."""
    return lambda context, source, rng: [c.format(answer=source.answer) for c in candidates]


class TestCuratePair:
    """Pair curation through the pipeline: one source, fixed candidates."""

    def setup_method(self):
        self.sources, self.pool = build_chain_corpus(4, 360, seed=5, profile=needle_profile())
        self.cfg = HaystackConfig(target_short_tokens=64, target_long_tokens=256, seed=9)

    def forge_one(self, generator):
        return forge_dataset(self.sources[:1], self.pool, generator, self.cfg)

    def test_all_correct_discarded(self):
        samples, stats = self.forge_one(fixed("x {answer}", "y {answer}"))
        assert samples == []
        assert stats.discarded_all_correct == 1

    def test_all_incorrect_discarded(self):
        samples, stats = self.forge_one(fixed("no", "nah"))
        assert samples == []
        assert stats.discarded_all_incorrect == 1

    def test_single_pair(self):
        samples, _ = self.forge_one(fixed("{answer}", "no"))
        assert [(s.y_w, s.y_l) for s in samples] == [(self.sources[0].answer, "no")]

    def test_seeded_draw_reproducible(self):
        gen = fixed(*[f"cand {i} {{answer}}" for i in range(8)],
                    *[f"cand {i} miss" for i in range(8)])
        a = self.forge_one(gen)
        b = self.forge_one(gen)
        assert a[1].emitted == 1
        assert a == b

    def test_partition_matches_sub_em(self):
        """Each candidate lands where sub_em puts it, duplicates included, in
        input order."""
        rng = np.random.default_rng(11)
        pieces = ["The answer is:", "the answer is: ", "1960", "the 1960", "1850", "An",
                  "no answer.", "1960!", "WAIT", "İ"]
        for gold in ("1960", "the 1960", "1850"):
            candidates = [" ".join(rng.choice(pieces, size=int(rng.integers(1, 5))))
                          for _ in range(40)]
            candidates += candidates[:10]
            correct, incorrect = _partition(candidates, gold)
            assert correct == [c for c in candidates if sub_em(c, gold)]
            assert incorrect == [c for c in candidates if not sub_em(c, gold)]

    def test_empty_candidates_rejected(self):
        samples, stats = self.forge_one(fixed())
        assert samples == []
        assert stats.generator_failures == 1


class TestChainCorpus:
    def test_needle_vocab_is_closed_and_small(self):
        profile = needle_profile()
        vocab = needle_vocab(profile)
        assert vocab.size <= 64
        sources, pool = build_chain_corpus(50, 300, seed=0, profile=profile)
        for s in sources:
            for text in (s.question, s.answer, *s.supporting_docs):
                vocab.encode(text.split())
        for doc in pool:
            vocab.encode(doc.split())

    def test_pool_documents_carry_no_values(self):
        profile = needle_profile()
        values = {value_token(profile, i) for i in range(profile.n_values)}
        _, pool = build_chain_corpus(10, 300, seed=1, profile=profile)
        for doc in pool:
            assert not values & set(doc.split())

    def test_pool_entries_distinct(self):
        _, pool = build_chain_corpus(5, 350, seed=2, profile=needle_profile())
        assert len(set(pool)) == len(pool)

    def test_word_profile_scales(self):
        sources, pool = build_chain_corpus(20, 2200, seed=3, profile=word_profile())
        assert len(pool) == 2200
        assert all(len(s.supporting_docs) == 2 for s in sources)


def _prefixed_stub_loop(p_correct, n, values, prefixes, source, rng):
    """The separate loop PrefixedStubGenerator ran before it became a
    StubGenerator with prefixes: it draws a prefix index, then the uniform,
    then (when wrong) a wrong-answer index, for each candidate."""
    wrongs = [v for v in values if source.answer not in v] + [NO_ANSWER]
    out = []
    for _ in range(n):
        prefix = prefixes[int(rng.integers(len(prefixes)))]
        if rng.uniform() < p_correct:
            out.append(f"{prefix} {source.answer}")
        else:
            out.append(f"{prefix} {wrongs[int(rng.integers(len(wrongs)))]}")
    return out


def _uniform_stub_loop(p_correct, n, wrong_answers, source, rng):
    """StubGenerator's loop as it drew its verdicts with ``rng.uniform()``."""
    pool = [w for w in wrong_answers if source.answer not in w] or [NO_ANSWER]
    out = []
    for _ in range(n):
        if rng.uniform() < p_correct:
            out.append(source.answer)
        else:
            out.append(pool[int(rng.integers(len(pool)))])
    return out


class TestStubGenerator:
    @pytest.mark.parametrize("profile", [needle_profile(), word_profile()])
    @pytest.mark.parametrize("p_correct", [0.0, 0.3, 0.5, 1.0])
    def test_unprefixed_reproduces_the_uniform_loop(self, profile, p_correct):
        wrong = tuple(value_token(profile, i) for i in range(profile.n_values)) + (NO_ANSWER,)
        sources, _ = build_chain_corpus(60, 10, seed=3, profile=profile)
        stub = StubGenerator(p_correct, 32, wrong)
        for seed in range(3):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            for source in sources:
                assert stub("", source, rngs[0]) == _uniform_stub_loop(
                    p_correct, 32, wrong, source, rngs[1])
            # Both loops leave the stream at the same position.
            assert rngs[0].integers(2**62) == rngs[1].integers(2**62)

    @pytest.mark.parametrize("profile", [needle_profile(), word_profile()])
    def test_prefixes_reproduce_the_prefixed_loop(self, profile):
        values = tuple(value_token(profile, i) for i in range(profile.n_values))
        prefixes = tuple(profile.entity(i) for i in range(profile.n_entities))
        sources, _ = build_chain_corpus(60, 10, seed=7, profile=profile)
        stub = StubGenerator(0.5, 8, values + (NO_ANSWER,), prefixes)
        prefixed = PrefixedStubGenerator(p_correct=0.5, n=8, values=values, prefixes=prefixes)
        for seed in range(3):
            rngs = [np.random.default_rng(seed) for _ in range(3)]
            for source in sources:
                expected = _prefixed_stub_loop(0.5, 8, values, prefixes, source, rngs[0])
                assert stub("", source, rngs[1]) == expected
                assert prefixed("", source, rngs[2]) == expected


class TestForgeDataset:
    def setup_method(self):
        self.profile = needle_profile()
        self.sources, self.pool = build_chain_corpus(80, 360, seed=5, profile=self.profile)
        self.wrong = tuple(value_token(self.profile, i)
                           for i in range(self.profile.n_values))
        self.cfg = HaystackConfig(target_short_tokens=64, target_long_tokens=256, seed=9)

    def test_gold_only_generator_discards_everything(self):
        gen = StubGenerator(p_correct=1.0, n=8, wrong_answers=self.wrong)
        samples, stats = forge_dataset(self.sources[:20], self.pool, gen, self.cfg)
        assert samples == []
        assert stats.discarded_all_correct == 20
        assert stats.discard_rate == 1.0
        assert stats.discard_examples == {"discarded_all_correct": 0}

    def test_half_correct_generator_rarely_discards(self):
        # P(one-sided over 32 draws) = 2 * 2^-32 per source; over 80 sources
        # the expected discard count is ~4e-8, so exactly zero here.
        gen = StubGenerator(p_correct=0.5, n=32, wrong_answers=self.wrong)
        samples, stats = forge_dataset(self.sources, self.pool, gen, self.cfg)
        assert stats.discarded_all_correct == 0
        assert stats.discarded_all_incorrect == 0
        assert stats.emitted == len(self.sources)
        assert samples

    def test_invariants_and_compression(self):
        gen = PrefixedStubGenerator(
            p_correct=0.5, n=16, values=self.wrong,
            prefixes=tuple(self.profile.entity(i) for i in range(self.profile.n_entities)))
        samples, stats = forge_dataset(self.sources, self.pool, gen, self.cfg,
                                       n_target=40)
        assert stats.emitted == 40
        for s in samples:
            assert s.check_invariants(self.cfg) == (token_count(s.x_short),
                                                    token_count(s.x_long))
        assert stats.achieved_compression == pytest.approx(
            self.cfg.target_compression, rel=0.10)

    def test_rerun_byte_identical(self, tmp_path):
        gen = StubGenerator(p_correct=0.5, n=16, wrong_answers=self.wrong)
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            samples, _ = forge_dataset(self.sources, self.pool, gen, self.cfg,
                                       n_target=25)
            write_forged_jsonl(samples, out)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_generator_failure_logged_not_fatal(self):
        calls = {"n": 0}

        def flaky(context, source, rng):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("backend hiccup")
            return StubGenerator(0.5, 16, self.wrong)(context, source, rng)

        samples, stats = forge_dataset(self.sources[:12], self.pool, flaky, self.cfg)
        assert stats.generator_failures == 4
        assert stats.emitted == 8
        assert stats.discard_examples == {"generator_failures": 2}

    def test_empty_candidate_list_is_generator_failure(self):
        samples, stats = forge_dataset(self.sources[:5], self.pool, lambda c, s, r: [],
                                       self.cfg)
        assert samples == []
        assert stats.generator_failures == 5
        assert stats.discarded_all_correct == 0
        assert stats.discard_examples == {"generator_failures": 0}

    def test_empty_intersection_candidates_are_generator_failure(self):
        def long_empty(context, source, rng):
            if token_count(context) > 128:
                return []
            return StubGenerator(0.5, 16, self.wrong)(context, source, rng)

        samples, stats = forge_dataset(self.sources[:4], self.pool, long_empty, self.cfg,
                                       intersection=True)
        assert samples == []
        assert stats.generator_failures == 4
        assert stats.discarded_intersection == 0

    def test_long_conditioning_flag(self):
        seen = {}

        def spy(context, source, rng):
            seen[source.question] = token_count(context)
            return StubGenerator(0.5, 16, self.wrong)(context, source, rng)

        forge_dataset(self.sources[:5], self.pool, spy, self.cfg, condition_on="long")
        assert all(abs(n - 256) <= 13 for n in seen.values())

    def test_intersection_mode_requires_both_sides(self):
        def short_only(context, source, rng):
            # succeeds on short contexts, one-sided on long ones
            if token_count(context) > 128:
                return [source.answer] * 4
            return StubGenerator(0.5, 16, self.wrong)(context, source, rng)

        samples, stats = forge_dataset(self.sources[:10], self.pool, short_only,
                                       self.cfg, intersection=True)
        assert samples == []
        assert stats.discarded_intersection == 10
        assert stats.discard_examples == {"discarded_intersection": 0}

    # SHA-256 of the emitted records, pinned from the draw-by-draw fill; few
    # candidates per source, so that sources are discarded for each reason.
    @pytest.mark.parametrize("p_correct, n, n_sources, options, digest", [
        (0.5, 4, 40, {"condition_on": "long"},
         "cee8a3459dbf19a648fd98208465d5e91aca2600cbfa18ea36baa322408ead15"),
        (0.5, 4, 40, {"intersection": True},
         "7407e76decf72c2468a687fc37a0789da52f7d57b465ad28796d0c004cd24b44"),
        (0.7, 6, 80, {},
         "1576b8e91888b10d9151be09650fe8d897e5b493392b56bcc6067e2098a51c65"),
    ], ids=["long", "intersection", "short"])
    def test_records_match_recorded_digest(self, p_correct, n, n_sources, options, digest):
        gen = StubGenerator(p_correct=p_correct, n=n, wrong_answers=self.wrong)
        samples, _ = forge_dataset(self.sources[:n_sources], self.pool, gen, self.cfg,
                                   **options)
        sha = hashlib.sha256()
        for s in samples:
            sha.update(json.dumps(asdict(s), sort_keys=True).encode() + b"\n")
        assert sha.hexdigest() == digest

    def test_oversized_supporting_documents_name_the_source(self):
        cfg = HaystackConfig(target_short_tokens=3, target_long_tokens=5, seed=9)
        gen = StubGenerator(p_correct=0.5, n=8, wrong_answers=self.wrong)
        with pytest.raises(ValueError, match=r"^source 0: supporting documents alone exceed "
                           r"the target length: 7 tokens for a target of 3 \(band \[3, 3\]\)$"):
            forge_dataset(self.sources, self.pool, gen, cfg)

    def test_policy_generator_end_to_end(self):
        from shortlong.corpus import PolicyCandidateGenerator
        from shortlong.policy import ToyLM

        vocab = needle_vocab(self.profile)
        model = ToyLM(vocab, hidden_dim=8, seed=0)
        gen = PolicyCandidateGenerator(model, n=32, temperature=0.85, max_len=4)
        samples, stats = forge_dataset(self.sources[:6], self.pool, gen, self.cfg)
        # near-uniform sampling yields both sides almost surely at N=32
        assert stats.emitted >= 4
        for s in samples:
            s.check_invariants(self.cfg)


class TestSettingRanges:
    """Out-of-range generator and haystack settings fail at construction,
    before any source is forged."""

    @pytest.mark.parametrize("p_correct, n", [(1.5, 8), (-0.1, 8), (float("nan"), 8),
                                              (0.5, 0)])
    def test_stub_generators(self, p_correct, n):
        with pytest.raises(ValueError, match="p_correct" if n else "n must be"):
            StubGenerator(p_correct=p_correct, n=n)
        with pytest.raises(ValueError, match="p_correct" if n else "n must be"):
            PrefixedStubGenerator(p_correct=p_correct, n=n, values=("v00",),
                                  prefixes=("e00",))

    def test_stub_generator_bounds_accepted(self):
        for p_correct in (0.0, 1.0):
            StubGenerator(p_correct=p_correct, n=1)

    @pytest.mark.parametrize("options, match", [
        ({"temperature": -1.0}, "temperature"), ({"temperature": float("nan")}, "temperature"),
        ({"temperature": float("inf")}, "temperature"), ({"n": 0}, "n must be"),
        ({"max_len": 0}, "max_len must be")])
    def test_policy_generator(self, options, match):
        from shortlong.corpus import PolicyCandidateGenerator
        from shortlong.policy import ToyLM

        with pytest.raises(ValueError, match=match):
            PolicyCandidateGenerator(ToyLM(needle_vocab(), hidden_dim=4), **options)

    @pytest.mark.parametrize("tol", [-0.05, float("nan"), float("inf")])
    def test_haystack_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance_frac"):
            HaystackConfig(target_short_tokens=64, target_long_tokens=256, tolerance_frac=tol)

    @pytest.mark.parametrize("short, long, tol", [
        (64, 512, 1.5), (64, 512, 1.0), (64, 512, 0.8), (100, 150, 0.2), (90, 110, 0.1)])
    def test_haystack_bands_overlap(self, short, long, tol):
        bands = (f"short [{short * (1 - tol):.0f}, {short * (1 + tol):.0f}], "
                 f"long [{long * (1 - tol):.0f}, {long * (1 + tol):.0f}]")
        with pytest.raises(ValueError, match=re.escape(f"tolerance_frac {tol} ")) as info:
            HaystackConfig(target_short_tokens=short, target_long_tokens=long,
                           tolerance_frac=tol)
        assert bands in str(info.value)

    @pytest.mark.parametrize("short, long, tol", [
        (64, 512, 0.77), (1100, 7500, 0.05), (20, 40, 0.2), (100, 150, 0.19)])
    def test_haystack_disjoint_bands_accepted(self, short, long, tol):
        HaystackConfig(target_short_tokens=short, target_long_tokens=long, tolerance_frac=tol)


def reference_jsonl(samples) -> bytes:
    """The forged JSONL as ``json.dumps`` writes it, one sorted-key line per
    sample."""
    return "".join(json.dumps({k: getattr(s, k) for k in forge._FORGED_FIELDS},
                              sort_keys=True) + "\n" for s in samples).encode("utf-8")


# Strings that json.dumps must escape, and plain ones around them.
SPECIAL_TEXTS = ["", '"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\x80", "\xe9",
                 "\u3000", "\U0001f600", "\ud800", 'say "hi"', "a\\b", "plain text <sep> 1800",
                 " ~!#$%&'()*+,-./0123456789:;<=>?@[]^_`{|}", "caf\xe9 \x7f end"]


class TestJsonlWriter:
    def test_every_code_point_below_3000_quotes_as_json(self):
        for c in range(0x3000):
            text = f"ab{chr(c)}cd"
            assert forge._json_string(text) == json.dumps(text), hex(c)

    @pytest.mark.parametrize("text", SPECIAL_TEXTS)
    def test_special_strings_quote_as_json(self, text):
        assert forge._json_string(text) == json.dumps(text)

    def test_special_samples_match_reference(self, tmp_path):
        texts = itertools.cycle(SPECIAL_TEXTS)
        samples = [ForgedSample(*(next(texts) for _ in range(6)))
                   for _ in range(2 * len(SPECIAL_TEXTS))]
        path = tmp_path / "f.jsonl"
        write_forged_jsonl(samples, path)
        assert path.read_bytes() == reference_jsonl(samples)
        assert read_forged_jsonl(path) == samples

    def test_word_forge_matches_reference(self, tmp_path):
        profile = word_profile()
        sources, pool = build_chain_corpus(24, 400, seed=4, profile=profile)
        wrong = tuple(value_token(profile, i) for i in range(profile.n_values))
        samples, _ = forge_dataset(sources, pool, StubGenerator(0.5, 8, wrong),
                                   HaystackConfig(100, 600, seed=4))
        assert len(samples) > 10
        path = tmp_path / "f.jsonl"
        write_forged_jsonl(samples, path)
        assert path.read_bytes() == reference_jsonl(samples)

    def test_empty_input_writes_empty_file(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_forged_jsonl([], path)
        assert path.read_bytes() == b""


class TestJsonlIO:
    def test_round_trip(self, tmp_path):
        s = ForgedSample(question="q", answer="a", x_short="s one",
                         x_long="l two", y_w="a", y_l="b")
        path = tmp_path / "f.jsonl"
        write_forged_jsonl([s], path)
        assert read_forged_jsonl(path) == [s]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question": "q", "answer": "a", "supporting_docs": ["d"]}\n'
                        "{oops}\n")
        with pytest.raises(ValueError, match="line 2"):
            read_source_jsonl(path)

    @pytest.mark.parametrize("field, value", [
        ("question", 5),
        ("answer", ["v05"]),
        ("supporting_docs", "the doc a"),
        ("supporting_docs", ["d1", 7]),
        ("supporting_docs", ["", "e02 founded v05"]),
    ])
    def test_source_field_types_checked(self, tmp_path, field, value):
        record = {"question": "q", "answer": "a", "supporting_docs": ["d1"], field: value}
        path = tmp_path / "src.jsonl"
        path.write_text(json.dumps({"question": "q", "answer": "a",
                                    "supporting_docs": ["d1"]}) + "\n"
                        + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"src\.jsonl: .*line 2: .*{field}"):
            read_source_jsonl(path)

    def test_source_round_trip(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text(json.dumps({"question": "q", "answer": "a",
                                    "supporting_docs": ["d1", "d2"]}) + "\n")
        [src] = read_source_jsonl(path)
        assert src.supporting_docs == ("d1", "d2")


VALID_PIECES = [b"\n", b"\r", b"\r\n", b"a", b"bc", b" ", "\x85".encode(), "\u2028".encode(),
                "\xe9".encode(), "\u20ac".encode(), "\U0001f600".encode()]
# A stray continuation byte, a byte that never occurs, truncated sequences, an
# overlong encoding and an encoded surrogate.
INVALID_PIECES = [b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xc0\xaf",
                  b"\xed\xa0\x80"]


def reference_lines(path):
    """A strict text-mode read split at its (translated) line feeds; the
    break after the last line opens no line."""
    with open(path, encoding="utf-8", newline=None) as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    return list(enumerate(lines, start=1))


class TestTextLines:
    def test_matches_text_mode_and_names_first_bad_line(self, tmp_path):
        path = tmp_path / "f.txt"
        rng = np.random.default_rng(17)
        for trial in range(1500):
            pieces = VALID_PIECES + (INVALID_PIECES if trial % 3 == 0 else [])
            data = b"".join(pieces[i] for i in rng.integers(len(pieces),
                                                            size=int(rng.integers(0, 24))))
            path.write_bytes(data)
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = len(re.split(rb"\r\n|\r|\n", data[:exc.start]))
                with pytest.raises(ValueError) as err:
                    list(text_lines(path))
                assert str(err.value).startswith(f"{path}: line {lineno}: not valid UTF-8 "
                                                 f"(byte 0x{data[exc.start]:02x} at column ")
            else:
                assert list(text_lines(path)) == reference_lines(path)

    def test_pool_read_holds_about_the_documents(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        path.write_text("".join(json.dumps(" ".join(f"w{(i * 7 + k) % 997}" for k in range(12)))
                                + "\n" for i in range(20_000)))
        tracemalloc.start()
        try:
            docs = read_distractor_pool(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sys.getsizeof(docs) + sum(sys.getsizeof(d) for d in docs)
        assert len(docs) == 20_000
        assert peak <= 1.5 * kept

    @pytest.mark.parametrize("read, data", [
        (read_distractor_pool, b'"a b"\n"x \xff"\n"c d"\n'),
        (read_distractor_pool, b'"a b"\n5\n"c d"\n'),
        (load_config, b"a = 1\nb = \xff\nc = 2\n"),
        (load_config, b"a = 1\nbroken\nc = 2\n"),
    ], ids=["pool-utf8", "pool-json", "config-utf8", "config-syntax"])
    def test_file_closed_when_reader_raises(self, tmp_path, monkeypatch, read, data):
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(forge, "open", tracking_open, raising=False)
        path = tmp_path / "input"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="line 2"):
            read(path)
        assert len(opened) == 1 and opened[0].closed
