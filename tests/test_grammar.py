import math

import pytest

from readgauge.errors import (
    BadProbabilitySum,
    MalformedRule,
    MissingFile,
    UnsupportedRule,
)
from readgauge.grammar import (
    Rule,
    binarize_cnf,
    is_intermediate,
    load_grammar,
    make_grammar,
)


def write_grammar(tmp_path, text):
    p = tmp_path / "g.txt"
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoadGrammar:
    def test_basic(self, tmp_path):
        g = load_grammar(write_grammar(tmp_path, "S -> NP VP # 1.0\nNP -> 'dog' # 1.0\nVP -> 'runs' # 1.0\n"))
        assert g.start == "S"
        assert g.nonterminals == {"S", "NP", "VP"}
        assert g.terminals == {"dog", "runs"}
        assert len(g.rules) == 3
        assert g.rules[0].log_prob == pytest.approx(0.0)

    def test_start_directive_and_comments(self, tmp_path):
        text = "// a comment\nA -> 'a' # 1.0\n%start B\nB -> A A # 1.0\n"
        g = load_grammar(write_grammar(tmp_path, text))
        assert g.start == "B"

    def test_default_start_is_first_lhs(self, tmp_path):
        g = load_grammar(write_grammar(tmp_path, "X -> 'x' # 1.0\nY -> X # 1.0\n"))
        assert g.start == "X"

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_grammar(str(tmp_path / "nope.txt"))

    @pytest.mark.parametrize(
        "line", ["S NP VP 1.0", "%start A B", "S -> # 1.0", "S -> 'a' # abc"],
        ids=["no_arrow", "start_names_two", "empty_rhs", "bad_probability"],
    )
    def test_malformed_line(self, tmp_path, line):
        with pytest.raises(MalformedRule) as err:
            load_grammar(write_grammar(tmp_path, line + "\n"))
        assert ":1:" in str(err.value)

    def test_bad_probability(self, tmp_path):
        with pytest.raises(MalformedRule):
            load_grammar(write_grammar(tmp_path, "S -> 'a' # 1.5\n"))
        with pytest.raises(MalformedRule):
            load_grammar(write_grammar(tmp_path, "S -> 'a' # 0.0\n"))

    @pytest.mark.parametrize("prob", ["0.2_5", "1_0e-1"])
    def test_digit_group_probability(self, tmp_path, prob):
        # float() reads both (0.25 and 1.0); no number in an input file may hold "_".
        with pytest.raises(MalformedRule, match=f"g.txt:1: bad probability '{prob}'"):
            load_grammar(write_grammar(tmp_path, f"S -> 'a' # {prob}\n"))

    @pytest.mark.parametrize("prob", ["١.٠", "0.٥", "１"])
    def test_non_ascii_probability(self, tmp_path, prob):
        # float() reads every Unicode decimal digit: "١.٠" as 1.0.
        with pytest.raises(MalformedRule, match=f"g.txt:1: bad probability '{prob}'"):
            load_grammar(write_grammar(tmp_path, f"S -> 'a' # {prob}\n"))

    def test_probability_sum_enforced(self, tmp_path):
        with pytest.raises(BadProbabilitySum):
            load_grammar(write_grammar(tmp_path, "S -> 'a' # 0.5\nS -> 'b' # 0.4\n"))

    def test_sum_tolerance(self, tmp_path):
        # within 1e-6 is accepted
        g = load_grammar(write_grammar(tmp_path, "S -> 'a' # 0.5\nS -> 'b' # 0.4999995\n"))
        assert len(g.rules) == 2

    def test_quoted_symbol_also_lhs_rejected(self, tmp_path):
        with pytest.raises(MalformedRule):
            load_grammar(write_grammar(tmp_path, "S -> 'A' # 1.0\nA -> 'a' # 1.0\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(MalformedRule):
            load_grammar(write_grammar(tmp_path, "// nothing\n"))

    def test_start_symbol_without_rules_rejected(self, tmp_path):
        text = "S -> NP VP # 1.0\nNP -> 'dog' # 1.0\nVP -> 'runs' # 1.0\n%start SS\n"
        with pytest.raises(MalformedRule) as err:
            load_grammar(write_grammar(tmp_path, text))
        assert "SS" in str(err.value)

    def test_unexpanded_rhs_symbol_rejected(self, tmp_path):
        text = "S -> NP VB # 1.0\nNP -> 'dog' # 1.0\n"
        with pytest.raises(MalformedRule) as err:
            load_grammar(write_grammar(tmp_path, text))
        assert "VB" in str(err.value)

    def test_repeated_rule_rejected(self, tmp_path):
        # Two copies would give the parser two derivations of one tree.
        text = "S -> NP VP # 1.0\nNP -> 'dogs' # 1.0\nVP -> 'bark' # 0.5\n// again\nVP -> 'bark' # 0.5\n"
        path = write_grammar(tmp_path, text)
        with pytest.raises(MalformedRule) as err:
            load_grammar(path)
        assert f"{path}:5:" in str(err.value) and "line 3" in str(err.value)
        # make_grammar keeps copies: the enumeration oracle counts each as a derivation.
        assert len(make_grammar([rule("S", ["a"], 0.5), rule("S", ["a"], 0.5)]).rules) == 2

    @pytest.mark.parametrize("second", ["B", "A"])
    def test_repeated_start_rejected(self, tmp_path, second):
        text = f"%start A\nA -> 'a' # 1.0\nB -> A # 1.0\n%start {second}\n"
        path = write_grammar(tmp_path, text)
        with pytest.raises(MalformedRule) as err:
            load_grammar(path)
        assert f"{path}:4:" in str(err.value) and "line 1" in str(err.value)

    def test_nonterminal_named_like_an_intermediate_rejected(self, tmp_path):
        # Parse trees splice '@' symbols away, so '@A' would vanish from (S (@A a) (B b)).
        text = "S -> @A B # 1.0\n@A -> 'a' # 1.0\nB -> 'b' # 1.0\n"
        with pytest.raises(MalformedRule, match="'@A'"):
            load_grammar(write_grammar(tmp_path, text))
        with pytest.raises(MalformedRule, match="'@A'"):
            make_grammar([rule("S", ["@A", "B"], 1.0), rule("@A", ["a"], 1.0), rule("B", ["b"], 1.0)])


def rule(lhs, rhs, prob):
    return Rule(lhs=lhs, rhs=tuple(rhs), prob=prob)


class TestBinarize:
    def test_already_cnf_passthrough(self):
        g = make_grammar([rule("S", ["A", "B"], 1.0), rule("A", ["a"], 1.0), rule("B", ["b"], 1.0)])
        cnf = binarize_cnf(g)
        real = [r for r in cnf if not is_intermediate(r.lhs)]
        assert {(r.lhs, r.rhs) for r in real} == {("S", ("A", "B")), ("A", ("a",)), ("B", ("b",))}

    def test_unary_chain_collapsed(self):
        g = make_grammar([rule("S", ["A"], 1.0), rule("A", ["a"], 1.0)])
        cnf = binarize_cnf(g)
        collapsed = [r for r in cnf if r.lhs == "S" and r.rhs == ("a",)]
        assert len(collapsed) == 1
        r = collapsed[0]
        assert r.chain == ("S", "A")
        assert r.rule_lp == pytest.approx(0.0)
        assert r.chain_lps == (0.0,)

    def test_unary_chain_probability_multiplies(self):
        g = make_grammar([
            rule("S", ["A"], 0.4),
            rule("S", ["s"], 0.6),
            rule("A", ["a"], 1.0),
        ])
        cnf = binarize_cnf(g)
        r = next(r for r in cnf if r.lhs == "S" and r.rhs == ("a",))
        assert r.rule_lp + sum(r.chain_lps) == pytest.approx(math.log(0.4))
        assert r.rule_lp == pytest.approx(0.0)
        assert r.chain_lps[0] == pytest.approx(math.log(0.4))

    def test_long_rhs_right_factored(self):
        g = make_grammar([
            rule("S", ["A", "B", "C"], 1.0),
            rule("A", ["a"], 1.0),
            rule("B", ["b"], 1.0),
            rule("C", ["c"], 1.0),
        ])
        cnf = binarize_cnf(g)
        top = next(r for r in cnf if r.lhs == "S")
        assert top.rhs[0] == "A"
        assert is_intermediate(top.rhs[1])
        assert top.rule_lp + sum(top.chain_lps) == pytest.approx(0.0)
        inter = next(r for r in cnf if r.lhs == top.rhs[1])
        assert inter.rhs == ("B", "C")
        assert inter.rule_lp == 0.0 and inter.chain == inter.chain_lps == ()
        # Five symbols: a chain of three intermediates, two of them in the middle.
        g = make_grammar([
            rule("S", ["A", "B", "C", "A", "B"], 1.0),
            rule("A", ["a"], 1.0),
            rule("B", ["b"], 1.0),
            rule("C", ["c"], 1.0),
        ])
        cnf = binarize_cnf(g)
        rhs = {r.lhs: r.rhs for r in cnf}
        first = rhs["S"][1]
        second = rhs[first][1]
        third = rhs[second][1]
        assert [rhs["S"][0], rhs[first][0], rhs[second][0], *rhs[third]] == ["A", "B", "C", "A", "B"]
        assert all(is_intermediate(s) for s in (first, second, third))
        middle = [r for r in cnf if r.lhs in (first, second, third)]
        assert len(middle) == 3
        assert all(r.rule_lp == 0.0 and r.chain == r.chain_lps == () for r in middle)

    def test_embedded_terminal_lifted(self):
        g = make_grammar([
            rule("S", ["A", "x"], 1.0),
            rule("A", ["a"], 1.0),
        ])
        cnf = binarize_cnf(g)
        top = next(r for r in cnf if r.lhs == "S")
        assert top.rhs == ("A", "@t_x")
        lifted = next(r for r in cnf if r.lhs == "@t_x")
        assert is_intermediate(lifted.lhs) and lifted.rhs == ("x",)
        assert lifted.rule_lp == 0.0 and lifted.chain == lifted.chain_lps == ()

    def test_unary_cycle_rejected(self):
        g = make_grammar([
            rule("A", ["B"], 0.5),
            rule("A", ["a"], 0.5),
            rule("B", ["A"], 0.5),
            rule("B", ["b"], 0.5),
        ])
        with pytest.raises(UnsupportedRule):
            binarize_cnf(g)

    def test_public_view_is_cnf(self):
        g = make_grammar([
            rule("S", ["A", "B", "C"], 0.5),
            rule("S", ["A"], 0.5),
            rule("A", ["a"], 1.0),
            rule("B", ["b"], 1.0),
            rule("C", ["c"], 1.0),
        ])
        cnf = binarize_cnf(g)
        lhs = {r.lhs for r in cnf}
        for r in cnf:
            assert len(r.rhs) in (1, 2)
            if len(r.rhs) == 1:
                assert r.rhs[0] in g.terminals and r.rhs[0] not in lhs
            else:
                assert all(s in lhs for s in r.rhs)

    def test_probability_mass_preserved_per_lhs(self):
        # Sum over CNF expansions per original LHS equals the original sums.
        g = make_grammar([
            rule("S", ["A", "B"], 0.7),
            rule("S", ["s"], 0.3),
            rule("A", ["a"], 1.0),
            rule("B", ["b"], 1.0),
        ])
        cnf = binarize_cnf(g)
        total = sum(math.exp(r.rule_lp + sum(r.chain_lps)) for r in cnf if r.lhs == "S")
        assert total == pytest.approx(1.0)


class TestValidate:
    def test_accepts_valid(self):
        assert make_grammar([rule("S", ["a"], 1.0)]).start == "S"

    def test_make_grammar_empty_rejected(self):
        with pytest.raises(MalformedRule):
            make_grammar([])
