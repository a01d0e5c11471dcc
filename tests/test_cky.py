import copy
import dataclasses
import math
import pickle
import random

import pytest

from oracles import enumerate_derivations, oracle_kbest, oracle_merge_all, random_grammar
from readgauge import cky, synth
from readgauge.cky import ParseTree, Parser, _drop_dominated, _item, _merge_kbest, _node
from readgauge.errors import NoParse
from readgauge.grammar import Rule, binarize_cnf, make_grammar
from readgauge.textcore import make_document


def rule(lhs, rhs, prob):
    return Rule(lhs=lhs, rhs=tuple(rhs), prob=prob)


def _nodes(tree):
    """(serial, repr(log_prob)) of every node of ``tree``, preorder."""
    out = [(tree.serialize(), repr(tree.log_prob))]
    for c in tree.children:
        if isinstance(c, ParseTree):
            out.extend(_nodes(c))
    return out


@pytest.fixture
def ab_grammar():
    return make_grammar([
        rule("S", ["A", "A"], 1.0),
        rule("A", ["a"], 0.6),
        rule("A", ["b"], 0.4),
    ])


@pytest.fixture
def catalan_grammar():
    return make_grammar([
        rule("S", ["S", "S"], 0.3),
        rule("S", ["a"], 0.7),
    ])


class TestKbestExamples:
    def test_single_derivation(self, ab_grammar):
        kbest = Parser(ab_grammar).kbest(["a", "b"], 5)
        assert len(kbest.parses) == 1
        assert kbest.parses[0].log_prob == pytest.approx(math.log(0.24), abs=1e-12)
        assert kbest.parses[0].serialize() == "(S (A a) (A b))"

    def test_two_branchings_equal_probability(self, catalan_grammar):
        kbest = Parser(catalan_grammar).kbest(["a", "a", "a"], 10)
        assert len(kbest.parses) == 2
        expected = math.log(0.3**2 * 0.7**3)
        for p in kbest.parses:
            assert p.log_prob == pytest.approx(expected, abs=1e-12)
        serials = [p.serialize() for p in kbest.parses]
        # ties broken by serialized-tree order
        assert serials == sorted(serials)
        assert set(serials) == {
            "(S (S (S a) (S a)) (S a))",
            "(S (S a) (S (S a) (S a)))",
        }

    def test_oov_token_raises(self, ab_grammar):
        with pytest.raises(NoParse) as err:
            Parser(ab_grammar).kbest(["z"], 1)
        assert "z" in str(err.value)

    def test_no_derivation_raises(self, ab_grammar):
        # odd-length sentences can't be derived from S -> A A
        with pytest.raises(NoParse):
            Parser(ab_grammar).kbest(["a"], 1)

    def test_empty_sentence_raises(self, ab_grammar):
        with pytest.raises(NoParse, match=r"no derivation for \[\] rooted at S"):
            Parser(ab_grammar).kbest([], 10)

    def test_k_below_one_raises(self, ab_grammar):
        with pytest.raises(ValueError, match="k must be >= 1"):
            Parser(ab_grammar).kbest(["a", "b"], 0)

    def test_k_truncates(self, catalan_grammar):
        kbest = Parser(catalan_grammar).kbest(["a", "a", "a"], 1)
        assert len(kbest.parses) == 1


class TestInvariants:
    def test_non_increasing_log_probs(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_grammar(rng)
            parser = Parser(g)
            terms = sorted(g.terminals)
            for _ in range(5):
                n = rng.randint(1, 6)
                toks = [rng.choice(terms) for _ in range(n)]
                try:
                    kbest = parser.kbest(toks, 20)
                except NoParse:
                    continue
                lps = [p.log_prob for p in kbest.parses]
                assert all(a >= b - 1e-12 for a, b in zip(lps, lps[1:]))

    def test_total_mass_at_most_one(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_grammar(rng)
            parser = Parser(g)
            terms = sorted(g.terminals)
            for _ in range(5):
                n = rng.randint(1, 5)
                toks = [rng.choice(terms) for _ in range(n)]
                try:
                    kbest = parser.kbest(toks, 1000)
                except NoParse:
                    continue
                assert sum(math.exp(p.log_prob) for p in kbest.parses) <= 1 + 1e-9

    def test_matches_enumeration_oracle(self):
        # A smaller version of the acceptance criterion, run on every commit.
        rng = random.Random(5)
        checked = 0
        for _ in range(10):
            g = random_grammar(rng)
            parser = Parser(g)
            terms = sorted(g.terminals)
            for _ in range(8):
                n = rng.randint(1, 6)
                toks = [rng.choice(terms) for _ in range(n)]
                expected = enumerate_derivations(g, toks, cap=1000)
                if not expected:
                    with pytest.raises(NoParse):
                        parser.kbest(toks, 1000)
                    continue
                kbest = parser.kbest(toks, 1000)
                got = [(p.log_prob, p.serialize()) for p in kbest.parses]
                assert len(got) == len(expected)
                for (glp, gser), (elp, eser) in zip(got, expected):
                    assert gser == eser
                    assert glp == pytest.approx(elp, abs=1e-9)
                checked += 1
        assert checked > 10

    def test_truncated_lists_match_enumeration_prefix(self):
        # Small k cuts the lists in every chart cell, so the boundary and
        # near-tie handling of the k-best merge decides what survives.
        rng = random.Random(41)
        truncated = 0
        for _ in range(64):
            g = random_grammar(rng)
            parser = Parser(g)
            terms = sorted(g.terminals)
            for _ in range(8):
                toks = [rng.choice(terms) for _ in range(rng.randint(2, 7))]
                expected = [serial for _, serial in enumerate_derivations(g, toks, cap=100000)]
                if not expected:
                    continue
                for k in (1, 2, 3, 5):
                    got = [p.serialize() for p in parser.kbest(toks, k).parses]
                    assert got == expected[:k]
                    truncated += len(expected) > k
        assert truncated > 100

    def test_matches_every_split_oracle(self):
        # The chart visits only split points with two non-empty sub-spans;
        # the every-split loop must give the same trees, bit for bit.
        rng = random.Random(97)
        parsed = no_parse = 0
        for _ in range(80):
            g = random_grammar(rng)
            parser = Parser(g)
            terms = sorted(g.terminals)
            for _ in range(6):
                toks = [rng.choice(terms) for _ in range(rng.randint(1, 7))]
                for k in (1, 2, 3, 5, 10, 1000):
                    try:
                        expected = oracle_kbest(parser, toks, k)
                    except NoParse:
                        with pytest.raises(NoParse):
                            parser.kbest(toks, k)
                        no_parse += 1
                        continue
                    got = parser.kbest(toks, k)
                    assert [_nodes(t) for t in got.parses] == [_nodes(t) for t in expected.parses]
                    parsed += 1
        assert parsed > 500 and no_parse > 1000

    def test_parse_trees_yield_tokens(self, catalan_grammar):
        toks = ["a", "a", "a", "a"]
        kbest = Parser(catalan_grammar).kbest(toks, 100)

        def leaves(t):
            if isinstance(t, str):
                return [t]
            out = []
            for c in t.children:
                out.extend(leaves(c))
            return out

        for p in kbest.parses:
            assert leaves(p) == toks

    def test_debinarized_output(self):
        # Long RHS round-trips through right-factoring without @ labels.
        g = make_grammar([
            rule("S", ["A", "B", "C"], 1.0),
            rule("A", ["a"], 1.0),
            rule("B", ["b"], 1.0),
            rule("C", ["c"], 1.0),
        ])
        kbest = Parser(g).kbest(["a", "b", "c"], 5)
        assert kbest.parses[0].serialize() == "(S (A a) (B b) (C c))"
        assert kbest.parses[0].log_prob == pytest.approx(0.0)


class TestParserReuse:
    def test_parser_is_reusable_and_deterministic(self, catalan_grammar):
        parser = Parser(catalan_grammar)
        first = [p.serialize() for p in parser.kbest(["a"] * 4, 10).parses]
        second = [p.serialize() for p in parser.kbest(["a"] * 4, 10).parses]
        assert first == second
        assert len(first) == 5  # Catalan(3)

    def test_shared_parser_matches_a_fresh_parser_per_sentence(self, demo_grammar):
        # Every sentence of one parser reads the same lexical cells; parsing
        # them in any order must give what a parser of its own gives, and
        # must leave those cells as they were built.
        rng = random.Random(3)
        sentences = []
        for i in range(6):
            doc = make_document("d", synth.generate_document_text(rng, f"level_{i % 3}"))
            sentences += [[t.lowercased for t in s.word_tokens] for s in doc.sentences]
        pps = ["with the cat", "in the box", "near the tree", "on the road", "with a ball"]
        for n_pps in range(1, 5):
            chain = " ".join(["the man sees the dog", *pps[:n_pps]])
            sentences.append(chain.split())
            sentences.append(f"{chain} and the girl sees the boy {pps[n_pps]}".split())
        rng.shuffle(sentences)
        parser = Parser(demo_grammar)
        lexical = {tok: {lhs: list(items) for lhs, items in cell.items()}
                   for tok, cell in parser.lexical.items()}

        def readings(p, toks):
            try:
                return [(t.log_prob, t.serialize()) for t in p.kbest(toks, 10).parses]
            except NoParse:
                return None

        parsed = 0
        for toks in sentences:
            got = readings(parser, toks)
            assert got == readings(Parser(demo_grammar), toks), toks
            parsed += got is not None
        assert parser.lexical == lexical
        assert parsed > 20 and max(map(len, sentences)) >= 25, (parsed, len(sentences))


class TestMergeAllProducts:
    def test_products_that_fit_in_k_match_the_sorted_reference(self, monkeypatch):
        # Option lists as real charts merge them, over random grammars; each
        # merge's triples are sampled and cut to prefixes, which stay sorted.
        recorded = []
        merge = cky._merge_kbest

        def record(options, k):
            recorded.append(options)
            return merge(options, k)

        monkeypatch.setattr(cky, "_merge_kbest", record)
        rng = random.Random(61)
        for _ in range(30):
            g = random_grammar(rng)
            parser = Parser(g)
            terms = sorted(g.terminals)
            for _ in range(6):
                try:
                    parser.kbest([rng.choice(terms) for _ in range(rng.randint(2, 6))], 1000)
                except NoParse:
                    pass
        monkeypatch.undo()
        single = several = 0
        for options in recorded:
            sample = [(rule, lefts[:rng.randint(1, len(lefts))], rights[:rng.randint(1, len(rights))])
                      for rule, lefts, rights in options if rng.random() < 0.7] or options[:1]
            expected = oracle_merge_all(sample)
            # k = 1 whenever the sample has a single product.
            for k in (len(expected), len(expected) + rng.randint(1, 5)):
                assert _merge_kbest(sample, k) == expected
            single += len(expected) == 1
            several += len(sample) > 1 and len(expected) > 2
        assert single > 200 and several > 80, (single, several)


class TestParseTreeNodes:
    """``_item`` fills nodes through their slots; they must behave as
    nodes built by ``ParseTree(...)``."""

    def test_slot_built_node_is_a_frozen_value(self):
        leaf = ParseTree("DT", ("the",), -0.5)
        built = _node("NP", (leaf, "dog"), -1.25)
        made = ParseTree("NP", (leaf, "dog"), -1.25)
        assert built == made and hash(built) == hash(made)
        assert type(built) is ParseTree and repr(built) == repr(made)
        for field in dataclasses.fields(ParseTree):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, field.name, getattr(made, field.name))
        for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
            assert copied == made and hash(copied) == hash(made)
            assert copied.children[0] == leaf and copied is not built

    def test_item_chain_nodes_equal_constructed_ones(self):
        # A unary chain S -> NP -> N -> 'a' collapses into one lexical rule
        # whose item re-expands the chain above the word.
        g = make_grammar([rule("S", ["NP"], 1.0), rule("NP", ["N"], 0.5), rule("NP", ["c"], 0.5),
                          rule("N", ["a"], 0.25), rule("N", ["b"], 0.75)])
        lexical = next(r for r in binarize_cnf(g) if r.lhs == "S" and r.rhs == ("a",))
        neg_lp, serial, (top,) = _item(lexical, ("a",), "a")
        n = ParseTree("N", ("a",), math.log(0.25))
        np_ = ParseTree("NP", (n,), math.log(0.5) + n.log_prob)
        s = ParseTree("S", (np_,), 0.0 + np_.log_prob)
        assert top == s and hash(top) == hash(s)
        assert (neg_lp, serial) == (-s.log_prob, "(S (NP (N a)))")


@pytest.fixture
def equal_attachment_grammar():
    # demos/parse_ambiguity.py's grammar with NP -> NP PP and VP -> VP PP at
    # one probability: every PP attachment of a sentence ties exactly.
    return make_grammar([
        rule("S", ["NP", "VP"], 1.0),
        rule("NP", ["DT", "NN"], 0.7),
        rule("NP", ["NP", "PP"], 0.3),
        rule("VP", ["V", "NP"], 0.7),
        rule("VP", ["VP", "PP"], 0.3),
        rule("PP", ["P", "NP"], 1.0),
        rule("DT", ["the"], 1.0),
        rule("NN", ["man"], 0.4),
        rule("NN", ["dog"], 0.4),
        rule("NN", ["telescope"], 0.2),
        rule("V", ["sees"], 1.0),
        rule("P", ["with"], 1.0),
    ])


class TestTiedReadings:
    """Cells of tied readings are pruned past position k; the root's lists
    must still be those of the unpruned chart and of exhaustive enumeration."""

    @staticmethod
    def check(grammar, toks):
        parser = Parser(grammar)
        expected = enumerate_derivations(grammar, toks, cap=100000)
        for k in (1, 2, 3, 10):
            got = parser.kbest(toks, k).parses
            assert [_nodes(t) for t in got] == [
                _nodes(t) for t in oracle_kbest(parser, toks, k).parses]
            assert [(p.log_prob, p.serialize()) for p in got] == expected[:k]
        return len(expected)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_catalan_chains(self, catalan_grammar, n):
        readings = self.check(catalan_grammar, ["a"] * n)
        assert readings == math.comb(2 * n - 2, n - 1) // n

    @pytest.mark.parametrize("n_pps", range(3, 7))
    def test_equal_pp_attachments(self, equal_attachment_grammar, n_pps):
        toks = "the man sees the dog".split() + "with the telescope".split() * n_pps
        readings = self.check(equal_attachment_grammar, toks)
        assert readings == math.comb(2 * n_pps + 2, n_pps + 1) // (n_pps + 2)

    def test_nine_pp_chain_on_bundled_grammar(self, demo_grammar, demo_parser):
        pps = ["with the cat", "in the box", "near the tree", "on the road", "with the ball",
               "in the lake", "near the car", "on the bed", "with the hat"]
        toks = " ".join(["the man sees the dog", *pps]).split()
        assert len(toks) == 32
        expected = enumerate_derivations(demo_grammar, toks, cap=100000)
        assert len(expected) == 16796  # Catalan(10) attachments
        got = demo_parser.kbest(toks, 10).parses
        assert [(p.log_prob, p.serialize()) for p in got] == expected[:10]

    def test_spliced_cells_stay_whole(self):
        # A parent adds a spliced ``@`` child's log-probs one at a time, not the
        # child's own sum, so the float order of ``@`` items need not carry over
        # to their parents: pruning ``@`` cells as well returns the top reading
        # at -6.827926907841016 here at k = 1, not at -6.827926907841015.
        grammar = make_grammar([
            rule("S", ["a"], 0.7333333333333334),
            rule("S", ["S", "A", "A"], 0.2666666666666666),
            rule("A", ["a"], 0.48387096774193544),
            rule("A", ["b"], 0.48387096774193544),
            rule("A", ["A", "S"], 0.032258064516129115),
        ])
        self.check(grammar, "a b a a".split())

    @pytest.mark.parametrize("sentence", ["a b a b", "a a b a b"])
    def test_rules_of_four_and_five_symbols(self, sentence):
        grammar = make_grammar([
            rule("S", ["A", "B", "A", "B"], 0.5),
            rule("S", ["A", "S", "b", "A", "B"], 0.2),
            rule("S", ["a"], 0.3),
            rule("A", ["a"], 0.6),
            rule("A", ["S", "A"], 0.4),
            rule("B", ["b"], 0.9),
            rule("B", ["B", "B"], 0.1),
        ])
        self.check(grammar, sentence.split())

    def test_drop_dominated_keeps_items_fewer_than_k_earlier_ones_beat(self):
        # Merge order with k = 2: "e" comes after two or more smaller serials
        # and goes; "a" and "b" each come after fewer than two and stay.
        items = [(1.0, "c", ()), (1.0, "d", ()), (1.0 + 1e-12, "a", ()),
                 (1.0 + 1e-12, "e", ()), (1.0 + 2e-12, "b", ())]
        assert [it[1] for it in _drop_dominated(items, 2)] == ["c", "d", "a", "b"]
        assert _drop_dominated(items, 5) == items
