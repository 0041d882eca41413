"""The rule miner against its reference: identity, exact thresholds.

The contract under test is byte-identity: ``RuleGenerator`` (weighted
representatives, interned ids, vectorized low levels) produces exactly
the mined counts and final rule list of ``ReferenceRuleGenerator`` (the
paper's pipeline over plain rows) — rule ids excluded, they are
auto-assigned. The hypothesis properties here drive that with adversarial
corpora: duplicate and cross-label titles, single-type corpora, the
cleanliness filter on and off, drawn length bounds.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.generator import LabeledTitle
from repro.rulegen import ReferenceRuleGenerator, RuleGenerator
from repro.rulegen.corpus import (
    CorpusIndex,
    _weighted_groups,
    mine_weighted_reps,
    tokens_contain,
)
from repro.rulegen.parallel import ShardedRuleGenerator
from repro.rulegen.select import (
    greedy_biased_select,
    greedy_biased_select_entries,
    greedy_select_entries,
)
from repro.rulegen.seqmine import exact_min_count, mine_frequent_sequences
from repro.utils.text import contains_word_sequence


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
TITLES = st.lists(WORDS, min_size=1, max_size=5).map(" ".join)
LABELS = st.sampled_from(["pants", "furniture", "lighting"])
CORPORA = st.lists(st.tuples(TITLES, LABELS), min_size=1, max_size=20).map(
    lambda rows: [LabeledTitle(title=t, label=l) for t, l in rows]
)

TOKEN_ROWS = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=5)
    .map(tuple),
    min_size=1,
    max_size=8,
)


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


class TestTokensContain:
    @given(
        tokens=st.lists(st.integers(min_value=0, max_value=4), max_size=10),
        candidate=st.lists(st.integers(min_value=0, max_value=4), max_size=4),
    )
    def test_matches_reference_semantics(self, tokens, candidate):
        expected = contains_word_sequence(
            [str(t) for t in tokens], [str(c) for c in candidate]
        )
        assert tokens_contain(tokens, candidate) == expected
        assert (
            tokens_contain(tuple(tokens), tuple(candidate)) == expected
        )

    def test_edges(self):
        assert tokens_contain([1, 2, 3], [])
        assert tokens_contain([], [])
        assert not tokens_contain([], [1])
        # In-order, non-contiguous, with repeats consumed left to right.
        assert tokens_contain([1, 9, 2, 9, 1], [1, 2, 1])
        assert not tokens_contain([1, 2], [2, 1])
        assert not tokens_contain([1, 1], [1, 1, 1])


class TestWeightedMinerEquivalence:
    """mine_weighted_reps over deduplicated reps == serial row mining."""

    @staticmethod
    def expand(reps, weights):
        rows = []
        for rep, weight in zip(reps, weights):
            rows.extend([rep] * weight)
        return rows

    @given(
        reps=TOKEN_ROWS,
        weights_seed=st.lists(
            st.integers(min_value=1, max_value=3), min_size=8, max_size=8
        ),
        support_idx=st.integers(min_value=0, max_value=2),
    )
    @settings(deadline=None)
    def test_matches_serial_miner(self, reps, weights_seed, support_idx):
        min_support = [0.1, 0.25, 0.5][support_idx]
        weights = weights_seed[: len(reps)]
        n_rows = sum(weights)
        min_count = exact_min_count(min_support, n_rows)

        str_reps = [tuple(f"w{t}" for t in rep) for rep in reps]
        serial = mine_frequent_sequences(
            self.expand(str_reps, weights), min_support, max_length=4
        )

        mined_int = mine_weighted_reps(reps, weights, min_count, 4)
        decoded = {
            tuple(f"w{t}" for t in seq): count
            for seq, (count, _) in mined_int.items()
        }
        assert decoded == serial
        # The id sets are the containing reps, exactly.
        for seq, (count, ids) in mined_int.items():
            containing = {
                rid for rid, rep in enumerate(reps)
                if tokens_contain(rep, seq)
            }
            assert ids == containing
            assert count == sum(weights[rid] for rid in containing)

    def test_empty_inputs(self):
        assert mine_weighted_reps([], [], 1, 4) == {}
        assert mine_weighted_reps([()], [1], 1, 4) == {}
        assert mine_weighted_reps([(1, 2)], [1], 1, 0) == {}


IDENTITY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# (min_length, max_length) pairs with 1 <= min <= max <= 4.
LENGTH_BOUNDS = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
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
    def index_with_vocab(vocab):
        index = CorpusIndex.from_labeled([
            LabeledTitle(title="slim fit denim jeans", label="pants"),
            LabeledTitle(title="oak desk lamp", label="lighting"),
        ])
        # Stub the vocabulary *size*; the real token ids stay tiny.
        index.id_tokens = range(vocab)
        return index

    def test_sequence_uniformity_boundary(self):
        span = 2 + 2  # two labels + the mixed / disagree codes
        # The largest vocabulary whose triple key V**3 * span - 1 fits.
        vocab = round((2**63 / span) ** (1 / 3))
        while vocab**3 * span > 2**63:
            vocab -= 1
        while (vocab + 1) ** 3 * span <= 2**63:
            vocab += 1
        pair_uniform, triple_uniform = self.index_with_vocab(vocab).seq_uniform
        assert pair_uniform and triple_uniform
        wraps = self.index_with_vocab(vocab + 1)
        with pytest.raises(ValueError, match=f"vocabulary of {vocab + 1} tokens"):
            wraps.seq_uniform

    def test_weighted_groups_boundary(self):
        import numpy as np

        codes = np.array([0, 1, 1], dtype=np.int64)
        rids = np.array([0, 0, 1], dtype=np.int64)
        weights = np.array([1, 1], dtype=np.int64)
        n = 2
        vocab = 2**31  # vocab ** 2 * n - 1 == 2 ** 63 - 1: exactly fits
        assert _weighted_groups(codes, rids, weights, n, 1, vocab, 2) == (
            [0, 1], [1, 2], [{0}, {0, 1}]
        )
        with pytest.raises(ValueError, match="int64 limit"):
            _weighted_groups(codes, rids, weights, n, 1, vocab + 1, 2)


class TestCleanlinessTables:
    """has_impure_match (uniformity tables + fallback) vs brute force."""

    @given(training=CORPORA)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, training):
        index = CorpusIndex.from_labeled(training)
        rep_itokens = index.rep_itokens
        rep_label = index.rep_label
        for type_name in index.types:
            view = index.type_view(type_name)
            candidates = set()
            for rid in view.g_reps:
                tokens = rep_itokens[rid]
                for length in range(1, min(4, len(tokens)) + 1):
                    candidates.update(
                        itertools.combinations(tokens, length)
                    )
            for candidate in candidates:
                brute = any(
                    rep_label[rid] != type_name
                    and tokens_contain(rep_itokens[rid], candidate)
                    for rid in range(index.n_reps)
                )
                assert view.has_impure_match(candidate) == brute, (
                    type_name, index.decode(candidate),
                )

    def test_requires_labels(self):
        index = CorpusIndex([("denim", "jeans")], ["pants"])
        view = index.type_view("pants")
        index.labels = None
        with pytest.raises(ValueError):
            view.has_impure_match((0,))


class TestWeightedEntrySelection:
    """Weighted rep-space selection == row-space selection == rule-space."""

    @given(
        pools=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # confidence idx
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
        confidences = [0.45, 0.65, 0.8, 0.95]
        # rep i expands to rows offsets[i]..offsets[i]+weights[i]-1.
        offsets = [0]
        for weight in weights:
            offsets.append(offsets[-1] + weight)

        rep_entries = []
        row_entries = []
        for order, (conf_idx, rep_ids) in enumerate(pools):
            confidence = confidences[conf_idx]
            reps = set(rep_ids)
            rows = {
                row
                for rid in reps
                for row in range(offsets[rid], offsets[rid + 1])
            }
            rep_entries.append((confidence, order, reps, None))
            row_entries.append((confidence, order, rows, None))

        rep_high, rep_low = greedy_biased_select_entries(
            rep_entries, q, 0.7, weights
        )
        row_high, row_low = greedy_biased_select_entries(row_entries, q, 0.7)
        assert [e[1] for e in rep_high] == [e[1] for e in row_high]
        assert [e[1] for e in rep_low] == [e[1] for e in row_low]

        # Supplying precomputed totals (the mined counts) changes nothing.
        totals = {
            entry[1]: sum(weights[rid] for rid in entry[2])
            for entry in rep_entries
        }
        tot_high, tot_low = greedy_biased_select_entries(
            rep_entries, q, 0.7, weights, totals
        )
        assert [e[1] for e in tot_high] == [e[1] for e in row_high]
        assert [e[1] for e in tot_low] == [e[1] for e in row_low]

    def test_entries_match_rule_selection(self):
        from repro.core.rule import SequenceRule

        specs = [
            (("denim", "jeans"), 0.95, {0, 1, 2}),
            (("slim", "jeans"), 0.9, {1, 2, 3}),
            (("fit", "jeans"), 0.8, {3, 4}),
            (("oak", "jeans"), 0.6, {0, 4, 5}),
            (("sofa", "jeans"), 0.5, {2, 5}),
        ]
        rules = [
            SequenceRule(seq, "pants", support=0.5, confidence=confidence)
            for seq, confidence, _ in specs
        ]
        coverage = {
            rule.rule_id: rows for rule, (_, _, rows) in zip(rules, specs)
        }
        entries = [
            (confidence, order, set(rows), seq)
            for order, (seq, confidence, rows) in enumerate(specs)
        ]
        for q in range(len(specs) + 2):
            high, low = greedy_biased_select(rules, coverage, q, 0.7)
            entry_high, entry_low = greedy_biased_select_entries(
                entries, q, 0.7
            )
            assert [tuple(r.token_sequence) for r in high] == [
                e[3] for e in entry_high
            ]
            assert [tuple(r.token_sequence) for r in low] == [
                e[3] for e in entry_low
            ]

    def test_covered_preseed_equals_residual_maps(self):
        entries = [
            (0.9, 0, {0, 1, 2}, None),
            (0.85, 1, {2, 3}, None),
            (0.8, 2, {4}, None),
        ]
        covered = {0, 1}
        preseeded = greedy_select_entries(
            [(c, o, set(ids), p) for c, o, ids, p in entries],
            3,
            covered=set(covered),
        )
        residual = greedy_select_entries(
            [(c, o, set(ids) - covered, p) for c, o, ids, p in entries], 3
        )
        assert [e[1] for e in preseeded] == [e[1] for e in residual]
