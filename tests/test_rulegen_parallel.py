"""The rule miner against its reference: identity, exact thresholds.

The contract under test is byte-identity: ``RuleGenerator`` (weighted
representatives mined, scored and selected as arrays) produces exactly
the mined counts and final rule list of ``ReferenceRuleGenerator`` (the
paper's pipeline over plain rows) — rule ids excluded, they are
auto-assigned. The hypothesis properties here drive that with adversarial
corpora: duplicate and cross-label titles, single-type corpora, the
cleanliness filter on and off, drawn length bounds; and hold each
columnar stage (level loop, cleanliness, scoring, selection) to its
row-wise definition on its own.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.generator import LabeledTitle
from repro.rulegen import ReferenceRuleGenerator, RuleGenerator
from repro.core.rule import SequenceRule
from repro.rulegen.confidence import (
    ConfidenceScorer,
    confidence_score,
    singular_forms,
)
from repro.rulegen.corpus import CorpusIndex, mine_levels
from repro.rulegen.parallel import ShardedRuleGenerator
from repro.rulegen.select import (
    greedy_biased_select,
    greedy_biased_select_slices,
    greedy_select_slices,
)
from repro.rulegen.seqmine import exact_min_count, mine_frequent_sequences
from repro.utils.text import (
    cache_stats,
    clear_caches,
    contains_word_sequence,
    tokenize,
)


def rule_key(result):
    """Id-free identity: what the rules are, not what they're named."""
    return [
        (rule.token_sequence, rule.target_type, rule.support, rule.confidence)
        for rule in result.rules
    ]


def full_key(result):
    return (rule_key(result), result.n_mined, result.n_clean,
            result.types_covered)


# A deliberately tiny closed vocabulary: shared sequences and duplicate
# titles are the common case, not the corner case.
WORDS = st.sampled_from(
    ["denim", "jeans", "slim", "fit", "sofa", "lamp", "oak", "desk"]
)
TITLES = st.lists(WORDS, min_size=1, max_size=6).map(" ".join)
LABELS = st.sampled_from(["pants", "furniture", "lighting"])
CORPORA = st.lists(st.tuples(TITLES, LABELS), min_size=1, max_size=20).map(
    lambda rows: [LabeledTitle(title=t, label=l) for t, l in rows]
)

TOKEN_ROWS = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=7)
    .map(lambda row: tuple(f"w{token}" for token in row)),
    min_size=1,
    max_size=8,
)


def mined_rows(index, table):
    """A candidate table as ``(label, sequence, count, clean, rep ids)`` rows."""
    ptr = table.type_ptr.tolist()
    return [
        (
            index.label_names[code],
            index.decode(table.tokens[row]),
            int(table.count[row]),
            bool(table.clean[row]),
            table.reps[table.lo[row]:table.hi[row]].tolist(),
        )
        for code in range(len(index.label_names))
        for row in range(ptr[code], ptr[code + 1])
    ]


def slices_of(coverages):
    """Coverage id collections -> the ``(lo, hi, ids)`` columns of a table."""
    sizes = [len(set(ids)) for ids in coverages]
    hi = np.cumsum(sizes, dtype=np.int64)
    ids = np.array(
        [i for ids in coverages for i in sorted(set(ids))], dtype=np.int64
    )
    return hi - np.array(sizes, dtype=np.int64), hi, ids


class TestExactMinCount:
    """Satellite: exact integer thresholds, no float-ceiling artefacts."""

    def test_paper_scale(self):
        # The paper's 0.001 over 885K titles.
        assert exact_min_count(0.001, 885_000) == 885
        assert exact_min_count(0.01, 100_000) == 1_000

    def test_float_ceiling_artefacts(self):
        import math

        # 0.07 * 100 == 7.000000000000001 as floats; its ceiling silently
        # demands an eighth title. The exact path does not.
        assert math.ceil(0.07 * 100) == 8  # the artefact being regressed
        assert exact_min_count(0.07, 100) == 7
        assert exact_min_count(0.1, 10) == 1

    def test_boundaries(self):
        assert exact_min_count(0.5, 4) == 2
        assert exact_min_count(0.5, 5) == 3
        assert exact_min_count(1.0, 7) == 7
        # Fractional results round up.
        assert exact_min_count(0.3, 10) == 3
        assert exact_min_count(0.3, 11) == 4

    def test_floor_of_one(self):
        assert exact_min_count(0.001, 5) == 1
        assert exact_min_count(0.01, 10) == 1
        assert exact_min_count(0.2, 0) == 1

    def test_validation(self):
        for bad_support in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                exact_min_count(bad_support, 10)
        with pytest.raises(ValueError):
            exact_min_count(0.1, -1)

    @given(
        numerator=st.integers(min_value=1, max_value=1000),
        n_titles=st.integers(min_value=0, max_value=2000),
    )
    def test_is_the_exact_ceiling(self, numerator, n_titles):
        min_support = numerator / 1000
        count = exact_min_count(min_support, n_titles)
        exact = Fraction(str(min_support)) * n_titles
        # Smallest integer >= exact, floored at 1: sufficient...
        assert count >= exact
        assert count >= 1
        # ...and necessary.
        if count > 1:
            assert count - 1 < exact


class TestWeightedMinerEquivalence:
    """The level loop over weighted reps == serial row mining, any length."""

    @given(
        reps=TOKEN_ROWS,
        weights_seed=st.lists(
            st.integers(min_value=1, max_value=3), min_size=8, max_size=8
        ),
        support_idx=st.integers(min_value=0, max_value=2),
        max_length=st.integers(min_value=1, max_value=6),
    )
    @settings(deadline=None)
    def test_matches_serial_miner(
        self, reps, weights_seed, support_idx, max_length
    ):
        min_support = [0.1, 0.25, 0.5][support_idx]
        rows = []
        for rep, weight in zip(reps, weights_seed):
            rows.extend([rep] * weight)
        serial = mine_frequent_sequences(
            rows, min_support, max_length=max_length
        )

        index = CorpusIndex(rows, ["t"] * len(rows))
        mined = mined_rows(index, index.mine(min_support, 1, max_length))
        assert {seq: count for _, seq, count, _, _ in mined} == serial
        assert len(mined) == len(serial)
        # The covering reps are the containing reps, exactly; with one
        # label nothing can be unclean.
        weights = dict(zip(index.rep_tokens, index.rep_weight.tolist()))
        assert sum(weights.values()) == len(rows)
        for _, seq, count, clean, rep_ids in mined:
            covering = [index.rep_tokens[rid] for rid in rep_ids]
            assert sorted(covering) == sorted(
                rep for rep in weights if contains_word_sequence(rep, seq)
            )
            assert count == sum(weights[rep] for rep in covering)
            assert clean

    def test_empty_inputs(self):
        assert not mined_rows(*self.mined([], 1, 4))
        assert not mined_rows(*self.mined([()], 1, 4))
        # Nothing survives to the requested lengths.
        assert not mined_rows(*self.mined([("a", "b")], 3, 4))
        index, table = self.mined([("a", "b")], 2, 4)
        assert mined_rows(index, table) == [("t", ("a", "b"), 1, True, [0])]
        assert table.tokens.shape == (1, 4)

    @staticmethod
    def mined(rows, min_length, max_length):
        index = CorpusIndex(rows, ["t"] * len(rows))
        return index, index.mine(0.5, min_length, max_length)


IDENTITY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# (min_length, max_length) pairs with 1 <= min <= max <= 6.
LENGTH_BOUNDS = st.tuples(
    st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)
).map(sorted)


def assert_miner_matches_reference(training, min_support=0.2, **kwargs):
    reference = ReferenceRuleGenerator(
        min_support=min_support, q=8, **kwargs
    ).generate(training)
    mined = RuleGenerator(min_support=min_support, q=8, **kwargs).generate(
        training
    )
    assert full_key(mined) == full_key(reference)
    return mined


class TestShardedEqualsSerial:
    """The tentpole contract: the miner's rules == the reference's."""

    @given(
        training=CORPORA,
        require_clean=st.booleans(),
        bounds=LENGTH_BOUNDS,
        support_idx=st.integers(min_value=0, max_value=2),
    )
    @IDENTITY_SETTINGS
    def test_rule_sets_identical(
        self, training, require_clean, bounds, support_idx
    ):
        assert_miner_matches_reference(
            training,
            min_support=[0.1, 0.2, 0.5][support_idx],
            require_clean=require_clean,
            min_length=bounds[0],
            max_length=bounds[1],
        )

    @given(
        training=st.lists(TITLES, min_size=1, max_size=15).map(
            lambda titles: [
                LabeledTitle(title=t, label="pants") for t in titles
            ]
        ),
        require_clean=st.booleans(),
        bounds=LENGTH_BOUNDS,
    )
    @IDENTITY_SETTINGS
    def test_single_type_corpora(self, training, require_clean, bounds):
        assert_miner_matches_reference(
            training,
            require_clean=require_clean,
            min_length=bounds[0],
            max_length=bounds[1],
        )

    def test_duplicate_titles(self):
        training = (
            [LabeledTitle(title="slim fit denim jeans", label="pants")] * 7
            + [LabeledTitle(title="oak desk lamp", label="lighting")] * 5
            + [LabeledTitle(title="oak sofa", label="furniture")] * 3
            # A title duplicated *across* labels: its rep is mixed, so
            # sequences unique to it must be filtered as unclean.
            + [
                LabeledTitle(title="oak desk", label="furniture"),
                LabeledTitle(title="oak desk", label="lighting"),
            ]
        )
        for require_clean in (True, False):
            mined = assert_miner_matches_reference(
                training, min_support=0.1, require_clean=require_clean
            )
            assert mined.n_selected

    def test_dedupe_smoke(self):
        training = [
            LabeledTitle(title="slim fit denim jeans", label="pants"),
            LabeledTitle(title="slim denim jeans", label="pants"),
            LabeledTitle(title="fit denim jeans", label="pants"),
        ]
        plain = RuleGenerator(min_support=0.3, q=8).generate(training)
        deduped = RuleGenerator(min_support=0.3, q=8, dedupe=True).generate(
            training
        )
        kept = {tuple(rule.token_sequence) for rule in deduped.rules}
        assert kept <= {tuple(rule.token_sequence) for rule in plain.rules}
        assert deduped.n_deduped == plain.n_selected - deduped.n_selected
        assert plain.n_deduped == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RuleGenerator(min_length=0)
        with pytest.raises(ValueError):
            RuleGenerator(min_length=3, max_length=2)
        with pytest.raises(ValueError):
            RuleGenerator().generate([])

    def test_ledger_shim_is_the_miner(self):
        """``benchmarks/ledger/workloads.py`` still constructs the miner as
        ``repro.rulegen.parallel.ShardedRuleGenerator(n_workers=1, seed=)``."""
        training = [
            LabeledTitle(title=title, label=label)
            for title, label in [
                ("slim fit denim jeans", "pants"),
                ("slim denim jeans", "pants"),
                ("denim jeans slim fit", "pants"),
                ("oak desk lamp", "lighting"),
                ("desk lamp oak", "lighting"),
                ("oak sofa", "furniture"),
            ]
        ] * 10
        shimmed = ShardedRuleGenerator(
            min_support=0.02, n_workers=1, seed=3
        ).generate(training)
        direct = RuleGenerator(min_support=0.02).generate(training)
        assert shimmed.n_selected
        assert full_key(shimmed) == full_key(direct)
        assert shimmed.n_selected == direct.n_selected
        with pytest.raises(ValueError):
            ShardedRuleGenerator(min_support=0.02, n_workers=2, seed=3)


class TestCorpusIndexReuse:
    """One index build, many generation passes."""

    def training(self):
        return [
            LabeledTitle(title=title, label=label)
            for title, label in [
                ("slim fit denim jeans", "pants"),
                ("slim denim jeans", "pants"),
                ("slim denim jeans", "pants"),
                ("oak desk lamp", "lighting"),
                ("oak desk lamp", "lighting"),
                ("oak sofa", "furniture"),
            ]
        ]

    def test_sharded_accepts_prebuilt_index(self):
        training = self.training()
        index = CorpusIndex.from_labeled(training)
        generator = RuleGenerator(min_support=0.2, q=10)
        baseline = full_key(generator.generate(training))
        # Reuse leaves the index intact: a second pass sees the same rules.
        assert full_key(generator.generate(training, index=index)) == baseline
        assert full_key(generator.generate(training, index=index)) == baseline
        assert full_key(generator.generate([], index=index)) == baseline

    def test_induction_leaves_the_text_caches_alone(self):
        clear_caches()
        tokenize("a served title")
        before = cache_stats()
        assert RuleGenerator(min_support=0.2, q=10).generate(
            self.training()
        ).n_selected
        assert cache_stats() == before
        assert before["tokenize"]["size"] == before["normalize"]["size"] == 1

    def test_index_row_count_mismatch_rejected(self):
        training = self.training()
        index = CorpusIndex.from_labeled(training)
        with pytest.raises(ValueError, match="6 rows, training has 1"):
            RuleGenerator().generate(training[:1], index=index)

    def test_unlabeled_index_rejected(self):
        index = CorpusIndex([("denim", "jeans")])
        with pytest.raises(ValueError, match="labeled index"):
            RuleGenerator().generate(
                [LabeledTitle(title="denim jeans", label="pants")],
                index=index,
            )


class TestPackedKeyBounds:
    """Packed int64 sort keys are bounded before numpy can wrap them."""

    @staticmethod
    def levels(vocab, max_length):
        """Mine a 7-position, 7-token corpus under a stubbed vocabulary
        *size* (the real token ids stay tiny)."""
        index = CorpusIndex.from_labeled([
            LabeledTitle(title="slim fit denim jeans", label="pants"),
            LabeledTitle(title="oak desk lamp", label="lighting"),
        ])
        assert index.tok.size == len(index.id_tokens) == 7
        return [
            [tuple(row) for row in level.tokens.tolist()]
            for level in mine_levels(
                index.tok, index.pos_rep, index.pos_end, index.rep_label,
                index.rep_weight, np.array([1, 1]), vocab, max_length,
            )
        ]

    def test_sequence_uniformity_boundary(self):
        # Length-2 keys pack (surviving length-1 rank, token, position):
        # all 7 tokens survive, so the largest key is 7 * V * 7 - 1. It is
        # the ranks that are bounded, not V ** 2 — re-ranking is what keeps
        # deeper levels inside int64.
        vocab = 2**63 // 49
        assert self.levels(vocab, 2) == self.levels(7, 2)
        assert len(self.levels(vocab, 2)[1]) == 9  # C(4,2) + C(3,2)
        with pytest.raises(ValueError, match="length-2 sequence keys: "
                           f"{7 * (vocab + 1)} sequence codes"):
            self.levels(vocab + 1, 2)

    def test_weighted_groups_boundary(self):
        # Length-1 keys are token * 7 + position: V * 7 - 1 at most.
        vocab = 2**63 // 7
        assert self.levels(vocab, 1) == self.levels(7, 1)
        with pytest.raises(ValueError, match="int64 limit"):
            self.levels(vocab + 1, 1)


class TestCleanlinessTables:
    """A candidate is clean iff its corpus-wide support is its type's own."""

    @given(training=CORPORA)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, training):
        index = CorpusIndex.from_labeled(training)
        # min_count 1 everywhere: every in-order subsequence of every
        # title, up to length 6, is a candidate of its type.
        mined = mined_rows(index, index.mine(0.01, 1, 6))
        rows = [(tuple(tokenize(ex.title)), ex.label) for ex in training]
        assert {(label, seq) for label, seq, _, _, _ in mined} == {
            (label, seq)
            for tokens, label in rows
            for length in range(1, len(tokens) + 1)
            for seq in itertools.combinations(tokens, length)
        }
        for label, seq, count, clean, _ in mined:
            containing = [
                other for tokens, other in rows
                if contains_word_sequence(tokens, seq)
            ]
            assert count == containing.count(label), (label, seq)
            assert clean == (count == len(containing)), (label, seq)

    def test_requires_labels(self):
        index = CorpusIndex([("denim", "jeans")])
        with pytest.raises(ValueError, match="labeled corpus"):
            index.mine(0.5, 1, 2)


NAME_WORDS = ["jean", "jeans", "wheel", "wheels", "disc", "discs", "glass",
              "gas", "abrasive", "area", "rugs", "rug", "tv", "s"]


class TestArrayScoring:
    """``score_rows`` == ``confidence_score`` per row, bit for bit."""

    @given(
        type_name=st.sampled_from([
            "jeans", "jean", "abrasive wheels & discs", "area rugs",
            "glass", "TV Stands", "&", "rugs rug",
        ]),
        rows=st.lists(
            st.tuples(
                st.lists(st.sampled_from(NAME_WORDS), min_size=1, max_size=4),
                st.integers(min_value=1, max_value=97),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(deadline=None)
    def test_bit_equal_to_scalar_scoring(self, type_name, rows):
        vocabulary = sorted(NAME_WORDS)
        tokens = np.full((len(rows), 4), -1, dtype=np.int64)
        for row, (seq, _) in enumerate(rows):
            tokens[row, :len(seq)] = [vocabulary.index(t) for t in seq]
        support = np.array([count for _, count in rows]) / 97
        scores = ConfidenceScorer(type_name).score_rows(
            singular_forms(vocabulary), tokens, support
        )
        assert scores.dtype == np.float64
        for (seq, count), score in zip(rows, scores.tolist()):
            assert score == confidence_score(seq, type_name, count / 97)


class TestWeightedEntrySelection:
    """Column selection over weighted reps == over rows == over rules."""

    CONFIDENCES = [0.0, 0.45, 0.65, 0.8, 0.95]

    @staticmethod
    def rule_selection(confidences, coverages, q):
        """Algorithm 2 over materialized rules, as candidate numbers."""
        rules = [
            SequenceRule(("t", str(order)), "pants", confidence=confidence)
            for order, confidence in enumerate(confidences)
        ]
        coverage = {
            rule.rule_id: set(ids) for rule, ids in zip(rules, coverages)
        }
        high, low = greedy_biased_select(rules, coverage, q, 0.7)
        return ([int(rule.token_sequence[1]) for rule in high],
                [int(rule.token_sequence[1]) for rule in low])

    @given(
        pools=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # confidence idx
                st.lists(
                    st.integers(min_value=0, max_value=5),
                    min_size=0,
                    max_size=4,
                ),
            ),
            min_size=0,
            max_size=8,
        ),
        weights=st.lists(
            st.integers(min_value=1, max_value=3), min_size=6, max_size=6
        ),
        q=st.integers(min_value=0, max_value=6),
    )
    @settings(deadline=None)
    def test_rep_weights_equal_row_expansion(self, pools, weights, q):
        # Five confidence values over up to eight candidates: ties on the
        # objective, on confidence and on both are the common case.
        confidence = np.array([self.CONFIDENCES[idx] for idx, _ in pools])
        # rep i expands to rows offsets[i]..offsets[i]+weights[i]-1.
        offsets = [0]
        for weight in weights:
            offsets.append(offsets[-1] + weight)
        rep_cover = [ids for _, ids in pools]
        row_cover = [
            [row for rid in ids for row in range(offsets[rid], offsets[rid + 1])]
            for ids in rep_cover
        ]

        by_rep = greedy_biased_select_slices(
            confidence, *slices_of(rep_cover), np.array(weights), q, 0.7
        )
        by_row = greedy_biased_select_slices(
            confidence, *slices_of(row_cover),
            np.ones(offsets[-1], dtype=np.int64), q, 0.7,
        )
        assert by_rep == by_row
        assert by_row == self.rule_selection(confidence.tolist(), row_cover, q)

    def test_entries_match_rule_selection(self):
        specs = [
            (0.95, {0, 1, 2}),
            (0.9, {1, 2, 3}),
            (0.8, {3, 4}),
            (0.6, {0, 4, 5}),
            (0.5, {2, 5}),
        ]
        confidence = np.array([confidence for confidence, _ in specs])
        coverages = [rows for _, rows in specs]
        for q in range(len(specs) + 2):
            assert greedy_biased_select_slices(
                confidence, *slices_of(coverages),
                np.ones(6, dtype=np.int64), q, 0.7,
            ) == self.rule_selection(confidence.tolist(), coverages, q)
        with pytest.raises(ValueError):
            greedy_select_slices(
                confidence, *slices_of(coverages),
                np.ones(6, dtype=np.int64), -1,
            )

    def test_covered_preseed_equals_residual_maps(self):
        confidence = np.array([0.9, 0.85, 0.8])
        coverages = [{0, 1, 2}, {2, 3}, {4}]
        covered = {0, 1}
        uncovered = np.ones(5, dtype=np.int64)
        uncovered[sorted(covered)] = 0
        preseeded = greedy_select_slices(
            confidence, *slices_of(coverages), uncovered, 3
        )
        residual = greedy_select_slices(
            confidence, *slices_of([ids - covered for ids in coverages]),
            np.ones(5, dtype=np.int64), 3,
        )
        # Candidate 0 has nothing left once {2, 3} is taken: zero gain stops.
        assert preseeded == residual == [1, 2]
        # The selection consumed the weights it covered.
        assert not uncovered.any()
