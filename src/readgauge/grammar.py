"""Probabilistic context-free grammars: file loading and CNF binarization.

Grammar files are UTF-8 lines ``LHS -> RHS1 [RHS2 ...] # prob`` with
single-quoted terminals, ``//`` comments and an optional ``%start SYM``
directive (otherwise the first rule's LHS is the start symbol).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import BadProbabilitySum, MalformedRule, UnsupportedRule
from .inputs import ascii_numeral, read_text

PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: tuple[str, ...]
    prob: float

    @property
    def log_prob(self) -> float:
        return math.log(self.prob)


@dataclass(frozen=True)
class Grammar:
    nonterminals: frozenset[str]
    terminals: frozenset[str]
    start: str
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class CnfRule:
    """Binarized rule carrying enough provenance to rebuild original trees.

    ``chain`` is the collapsed unary path of original labels ending at the
    label whose original rule fired, with ``chain_lps`` holding the log-prob
    of each unary step; ``rule_lp`` is the bottom rule's own log-prob.
    A rule's log-prob is ``rule_lp + sum(chain_lps)``. All three are
    empty/zero for intermediate rules and for the ``@t_`` preterminals lifted
    from terminals embedded in a long RHS.
    """

    lhs: str
    rhs: tuple[str, ...]
    chain: tuple[str, ...] = ()
    chain_lps: tuple[float, ...] = ()
    rule_lp: float = 0.0


def is_intermediate(symbol: str) -> bool:
    return symbol.startswith("@")


_RULE_RE = re.compile(r"^(\S+)\s*->\s*(.+?)\s*#\s*(\S+)\s*$")


def make_grammar(rules: list[Rule], start: Optional[str] = None) -> Grammar:
    """Grammar over ``rules``; terminals are the RHS symbols that no rule expands."""
    lhs = {r.lhs for r in rules}
    terminals = {s for r in rules for s in r.rhs if s not in lhs and not is_intermediate(s)}
    return _grammar(rules, start, terminals, where="")


def _grammar(rules: list[Rule], start: Optional[str], terminals: set[str], where: str) -> Grammar:
    """The one Grammar constructor; ``where`` prefixes error messages."""
    if not rules:
        raise MalformedRule(f"{where}no rules (no start symbol)")
    nonterminals = frozenset(r.lhs for r in rules)
    # Binarization's own symbols start with '@', and parse trees splice them away.
    reserved = sorted(s for s in nonterminals if is_intermediate(s))
    if reserved:
        raise MalformedRule(f"{where}nonterminals may not start with '@': {reserved}")
    clash = terminals & nonterminals
    if clash:
        raise MalformedRule(f"{where}symbols both quoted and used as LHS: {sorted(clash)}")
    start = start or rules[0].lhs
    if start not in nonterminals:
        raise MalformedRule(f"{where}start symbol {start!r} has no rules")
    # A symbol no rule expands and no quote makes a terminal derives nothing.
    dead = {s for r in rules for s in r.rhs} - nonterminals - terminals
    if dead:
        raise MalformedRule(f"{where}unquoted RHS symbols with no rules: {sorted(dead)}")
    # load_grammar checked each rule's probability range; here each LHS must sum to 1.
    sums: dict[str, float] = {}
    for rule in rules:
        sums[rule.lhs] = sums.get(rule.lhs, 0.0) + rule.prob
    for lhs, total in sums.items():
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise BadProbabilitySum(f"{lhs} (sum {total:.9f})")
    return Grammar(
        nonterminals=nonterminals,
        terminals=frozenset(terminals),
        start=start,
        rules=tuple(rules),
    )


def load_grammar(path: str) -> Grammar:
    rules: list[Rule] = []
    start: Optional[str] = None
    start_line = 0
    terminal_names: set[str] = set()
    first_line: dict[tuple[str, tuple[str, ...]], int] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%start"):
            parts = line.split()
            if len(parts) != 2:
                raise MalformedRule(f"{path}:{lineno}: bad %start directive")
            if start_line:
                raise MalformedRule(f"{path}:{lineno}: %start repeats line {start_line}: {line!r}")
            start, start_line = parts[1], lineno
            continue
        m = _RULE_RE.match(line)
        if not m:
            raise MalformedRule(f"{path}:{lineno}: {line!r}")
        lhs, rhs_str, prob_str = m.groups()
        rhs = []
        for sym in rhs_str.split():
            if len(sym) >= 3 and sym[0] == "'" and sym[-1] == "'":
                term = sym[1:-1]
                terminal_names.add(term)
                rhs.append(term)
            else:
                rhs.append(sym)
        if not rhs:
            raise MalformedRule(f"{path}:{lineno}: empty RHS")
        try:
            prob = float(ascii_numeral(prob_str))
        except ValueError:
            raise MalformedRule(f"{path}:{lineno}: bad probability {prob_str!r}")
        if not (0.0 < prob <= 1.0):
            raise MalformedRule(f"{path}:{lineno}: probability {prob} out of (0,1]")
        key = (lhs, tuple(rhs))
        if key in first_line:
            raise MalformedRule(f"{path}:{lineno}: rule repeats line {first_line[key]}: {line!r}")
        first_line[key] = lineno
        rules.append(Rule(lhs=lhs, rhs=tuple(rhs), prob=prob))
    return _grammar(rules, start, terminal_names, where=f"{path}: ")


def _unary_closure(
    grammar: Grammar,
) -> dict[str, list[tuple[tuple[str, ...], tuple[float, ...]]]]:
    """All acyclic unary chains A ->* C with per-step log-probs.

    Maps each nonterminal A to chains (A, ..., C) ending at a symbol with at
    least one non-unary rule (or no rules). Raises on unary cycles.
    """
    unaries: dict[str, list[Rule]] = {}
    for rule in grammar.rules:
        if len(rule.rhs) == 1 and rule.rhs[0] in grammar.nonterminals:
            unaries.setdefault(rule.lhs, []).append(rule)

    closure: dict[str, list[tuple[tuple[str, ...], tuple[float, ...]]]] = {}

    def expand(
        sym: str, seen: tuple[str, ...]
    ) -> list[tuple[tuple[str, ...], tuple[float, ...]]]:
        chains: list[tuple[tuple[str, ...], tuple[float, ...]]] = [((sym,), ())]
        for rule in unaries.get(sym, []):
            child = rule.rhs[0]
            if child in seen:
                raise UnsupportedRule(f"unary cycle through {child}")
            for chain, lps in expand(child, seen + (child,)):
                chains.append(((sym,) + chain, (rule.log_prob,) + lps))
        return chains

    for nt in grammar.nonterminals:
        closure[nt] = expand(nt, (nt,))
    return closure


def binarize_cnf(grammar: Grammar) -> list[CnfRule]:
    """Binarize into CNF rules with provenance for tree reconstruction.

    Unary nonterminal chains are collapsed with multiplied probabilities,
    long RHSes are right-factored through probability-1 intermediates, and
    terminals inside long RHSes get lifted preterminals.
    """
    closure = _unary_closure(grammar)
    cnf: list[CnfRule] = []
    lift_cache: dict[str, str] = {}
    counter = 0

    def lift_terminal(term: str) -> str:
        if term not in lift_cache:
            sym = f"@t_{term}"
            lift_cache[term] = sym
            cnf.append(CnfRule(lhs=sym, rhs=(term,)))
        return lift_cache[term]

    by_lhs: dict[str, list[Rule]] = {}
    for rule in grammar.rules:
        by_lhs.setdefault(rule.lhs, []).append(rule)

    for top in sorted(grammar.nonterminals):
        for chain, chain_lps in closure[top]:
            bottom = chain[-1]
            for rule in by_lhs.get(bottom, []):
                if len(rule.rhs) == 1 and rule.rhs[0] in grammar.nonterminals:
                    continue  # unary NT rule, handled by the closure
                prov = dict(chain=chain, chain_lps=chain_lps, rule_lp=rule.log_prob)
                if len(rule.rhs) == 1:
                    cnf.append(CnfRule(lhs=top, rhs=rule.rhs, **prov))
                    continue
                symbols = [
                    s if s in grammar.nonterminals else lift_terminal(s)
                    for s in rule.rhs
                ]
                if len(symbols) == 2:
                    cnf.append(CnfRule(lhs=top, rhs=tuple(symbols), **prov))
                    continue
                # Right-factor: the first split carries the probability.
                counter += 1
                prev = f"@{top}_{counter}_1"
                cnf.append(CnfRule(lhs=top, rhs=(symbols[0], prev), **prov))
                for i in range(1, len(symbols) - 2):
                    nxt = f"@{top}_{counter}_{i + 1}"
                    cnf.append(CnfRule(lhs=prev, rhs=(symbols[i], nxt)))
                    prev = nxt
                cnf.append(CnfRule(lhs=prev, rhs=(symbols[-2], symbols[-1])))
    return cnf

