import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from readgauge.cky import KBestList, ParseTree
from readgauge.errors import EmptyKBest
from readgauge.parse_features import (
    CLAUSE_LABELS,
    ROOT_WRAPPERS,
    SYNTACTIC_FEATURE_NAMES,
    constituent_counts,
    parse_deviation,
    parse_deviation_from_max,
    syntactic_ratios,
)

from oracles import oracle_constituent_counts


def tree(label, *children, log_prob=0.0):
    return ParseTree(label=label, children=tuple(children), log_prob=log_prob)


def kbest_of(*log_probs):
    parses = tuple(tree("S", "a", log_prob=lp) for lp in log_probs)
    return KBestList(parses=parses, requested_k=len(parses) or 1)


class TestParseDeviation:
    def test_hand_example(self):
        assert parse_deviation(kbest_of(-1.0, -3.0), 2) == pytest.approx(1.0)

    def test_single_parse_any_x(self):
        assert parse_deviation(kbest_of(-2.5), 1) == 0.0
        assert parse_deviation(kbest_of(-2.5), 10) == 0.0

    def test_equal_log_probs(self):
        lp = math.log(0.3**2 * 0.7**3)
        assert parse_deviation(kbest_of(lp, lp), 2) == 0.0

    def test_fewer_parses_than_x(self):
        # falls back to all available parses
        assert parse_deviation(kbest_of(-1.0, -3.0), 10) == pytest.approx(1.0)

    def test_empty_kbest(self):
        with pytest.raises(EmptyKBest):
            parse_deviation(KBestList(parses=(), requested_k=1), 2)

    def test_x_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_deviation(kbest_of(-1.0), 0)

    @given(
        st.lists(st.floats(-50, -1e-3), min_size=1, max_size=12),
        st.integers(1, 12),
        st.floats(-5, 5),
    )
    def test_shift_invariance(self, lps, x, shift):
        base = parse_deviation(kbest_of(*lps), x)
        shifted = parse_deviation(kbest_of(*(lp + shift for lp in lps)), x)
        assert shifted == pytest.approx(base, abs=1e-9)


class TestParseDeviationFromMax:
    def test_hand_example(self):
        assert parse_deviation_from_max(kbest_of(-1.0, -3.0), 2) == pytest.approx(1.0)

    def test_single_parse(self):
        assert parse_deviation_from_max(kbest_of(-4.0), 1) == 0.0

    def test_all_equal(self):
        assert parse_deviation_from_max(kbest_of(-2.0, -2.0, -2.0), 3) == 0.0

    def test_nonnegative(self):
        assert parse_deviation_from_max(kbest_of(-0.5, -1.0, -9.0), 10) >= 0.0

    @given(st.lists(st.floats(-50, -1e-3), min_size=1, max_size=12), st.integers(1, 12))
    def test_always_nonnegative(self, lps, x):
        assert parse_deviation_from_max(kbest_of(*lps), x) >= -1e-12


# (S (NP (DT the) (NN dog)) (VP (VBZ runs)))
EXAMPLE = tree(
    "S",
    tree("NP", tree("DT", "the"), tree("NN", "dog")),
    tree("VP", tree("VBZ", "runs")),
)


class TestConstituentCounts:
    def test_example_tree(self):
        counts = constituent_counts(EXAMPLE)
        assert counts.labels["NP"] == 1
        assert counts.labels["VP"] == 1
        assert counts.clauses == 1
        assert counts.t_units == 1
        assert counts.height == 3
        assert counts.subtrees == 5

    def test_sbar_marks_dependent_clause(self):
        t = tree(
            "S",
            tree("NP", tree("NN", "dog")),
            tree(
                "VP",
                tree("VBZ", "says"),
                tree("SBAR", tree("S", tree("NP", tree("NN", "cat")), tree("VP", tree("VBZ", "runs")))),
            ),
        )
        counts = constituent_counts(t)
        # the SBAR node itself is a clause label, plus the two S nodes
        assert counts.clauses == 3
        assert counts.dependent_clauses == 1
        assert counts.t_units == 1
        assert counts.complex_t_units == 1

    def test_coordinated_clauses_are_separate_t_units(self):
        inner = tree("S", tree("NP", tree("NN", "dog")), tree("VP", tree("VBZ", "runs")))
        t = tree("S", inner, tree("CC", "and"), inner)
        counts = constituent_counts(t)
        assert counts.t_units == 2
        assert counts.coordinate_clauses == 2

    def test_complex_nominal(self):
        # NP with more than one child is complex
        counts = constituent_counts(EXAMPLE)
        assert counts.complex_nominals == 1
        simple = tree("S", tree("NP", tree("NN", "dog")), tree("VP", tree("VBZ", "runs")))
        assert constituent_counts(simple).complex_nominals == 0

    def test_np_with_pp_child_is_complex(self):
        t = tree("NP", tree("PP", tree("IN", "of"), tree("NP", tree("NN", "dogs"))))
        # single child, but that child is a PP
        assert constituent_counts(t).complex_nominals >= 1

    @pytest.mark.parametrize("sbar_first", [True, False])
    def test_shared_clause_counted_by_its_own_ancestors(self, sbar_first):
        # One S object under an SBAR and under a VP: dependent only under the SBAR.
        shared = tree("S", tree("NP", tree("NN", "dog")), tree("VP", tree("VBZ", "runs")))
        parents = [tree("SBAR", shared), tree("VP", tree("VBZ", "says"), shared)]
        t = tree("S", *(parents if sbar_first else parents[::-1]))
        counts = constituent_counts(t)
        assert counts.clauses == 4  # the root S, the SBAR and the shared S twice
        assert counts.dependent_clauses == 1

    def test_equals_multi_pass_oracle_on_random_trees(self):
        rng = random.Random(20)
        trees = [random_sentence(rng) for _ in range(5000)]
        totals = {"dependent": 0, "coordinate": 0, "complex_t_units": 0, "wrapped": 0}
        for t in trees:
            counts = constituent_counts(t)
            assert counts == oracle_constituent_counts(t), t
            totals["dependent"] += counts.dependent_clauses
            totals["coordinate"] += counts.coordinate_clauses
            totals["complex_t_units"] += counts.complex_t_units
            totals["wrapped"] += t.label in ROOT_WRAPPERS
        assert min(totals.values()) > 0, totals


# Random trees for the oracle comparison: clause, phrase, preterminal and
# wh labels, with bare-leaf children, CC siblings and childless nodes.
RANDOM_LABELS = sorted(CLAUSE_LABELS) + ["NP", "VP", "PP", "CC", "DT", "NN", "WHNP", "RRC", "CONJP"]


def random_tree(rng, depth):
    label = rng.choice(RANDOM_LABELS)
    if depth == 0 or rng.random() < 0.2:
        return tree(label, *("w" for _ in range(rng.randint(0, 2))))
    children = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.2:
            children.append(rng.choice(["the", "dog", "and"]))
        elif r < 0.35:
            children.append(tree("CC", "and"))
        else:
            children.append(random_tree(rng, depth - 1))
    return tree(label, *children)


def random_sentence(rng):
    """A random tree, a ROOT/TOP wrapper or a clause-rooted coordination."""
    kind = rng.randrange(4)
    if kind == 0:
        return tree(
            rng.choice(sorted(ROOT_WRAPPERS)),
            *(random_sentence(rng) for _ in range(rng.randint(1, 2))),
        )
    if kind == 1:
        clauses = [tree(rng.choice(sorted(CLAUSE_LABELS)), *random_tree(rng, 3).children)
                   for _ in range(rng.randint(2, 3))]
        return tree(rng.choice(["SBAR", "S"]), clauses[0], tree("CC", "and"), *clauses[1:])
    return random_tree(rng, 5)


class TestSyntacticRatios:
    EXAMPLE_KB = KBestList(parses=(EXAMPLE,), requested_k=10)

    def test_names_and_shape(self):
        feats = syntactic_ratios([self.EXAMPLE_KB], 1)
        assert list(feats) == SYNTACTIC_FEATURE_NAMES
        assert all(math.isfinite(v) for v in feats.values())

    def test_per_sentence_denominators(self):
        feats = syntactic_ratios([self.EXAMPLE_KB, self.EXAMPLE_KB], 2)
        assert feats["nps_per_sentence"] == pytest.approx(1.0)
        assert feats["clauses_per_sentence"] == pytest.approx(1.0)
        assert feats["mean_parse_tree_height"] == pytest.approx(3.0)
        assert feats["mean_np_size"] == pytest.approx(2.0)

    def test_skipped_sentence_still_counts(self):
        # second sentence unparsed: denominators stay at 2
        feats = syntactic_ratios([self.EXAMPLE_KB], 2)
        assert feats["nps_per_sentence"] == pytest.approx(0.5)

    def test_zero_denominator_rule(self):
        feats = syntactic_ratios([], 0)
        assert set(feats.values()) == {0.0}

    def test_ambiguity_means(self):
        kbs = [kbest_of(-1.0, -3.0), kbest_of(-2.0)]
        feats = syntactic_ratios(kbs, 2)
        assert feats["pd_2"] == pytest.approx(0.5)  # mean of 1.0 and 0.0
        assert feats["pdm_10"] == pytest.approx(0.5)

    def test_no_kbest_lists_zeroes_ambiguity(self):
        feats = syntactic_ratios([], 1)
        assert feats["pd_2"] == feats["pd_10"] == feats["pdm_10"] == 0.0

    def test_best_parse_of_each_list_is_counted(self):
        # Only parses[0] feeds the constituent features.
        flat = tree("S", tree("VBZ", "runs"))
        feats = syntactic_ratios([KBestList(parses=(EXAMPLE, flat), requested_k=2)], 1)
        assert feats == syntactic_ratios([self.EXAMPLE_KB], 1) | {
            "pd_2": feats["pd_2"], "pd_10": feats["pd_10"], "pdm_10": feats["pdm_10"]}
