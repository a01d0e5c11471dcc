"""Exact k-best CKY parsing over a binarized PCFG.

Chart items carry the de-binarized original tree and its serialization,
joined from the children's serials; candidates are ordered by
(-log_prob, serialization) so ties break deterministically and the k-best
list matches exhaustive enumeration.
Binary rules are indexed by their left child, so a cell looks up only the
rules whose left child is present in the left sub-span.

Each terminal's lexical cell depends on the grammar alone, so the parser
builds and sorts it once, and every span-1 cell of every sentence is that
shared dict. Sharing changes no list: the chart reads a cell's lists and
never mutates them (a merge builds new items, and ``_drop_dominated``
returns its input or a new list), so each sentence sees the lists a fresh
build would give, in the same order. The trees share the lexical nodes as
well: a word that occurs twice in a sentence is one node object at both
positions. Nodes are immutable values, so only ``id()`` can tell.

Most cells of a sentence are empty, so the chart stores only non-empty
cells, row by row: ``chart[i]`` maps each m whose cell (i, m) is non-empty
to that cell. Spans are filled shortest first, so a row's keys come in
ascending order. Cell (i, j) visits only those m, in that order, and skips
an m whose cell (m, j) is not in the chart, so its candidate order, and
with it every tie-break, is that of a loop over all m from i + 1 to j - 1.

When an LHS's products all fit in k, the merge builds every one and sorts
them by (-log_prob, serial): the heap would pop them all and end with that
same sort, and no near-tie trimming applies to a list of at most k items.
Otherwise a lazy heap walks each option's grid of products as a tree: a pop
of (li, ri) pushes (li + 1, ri), and (0, ri + 1) too when li is 0, so each
product has one predecessor and no set is needed to push it only once.

Exactly tied readings (PP attachments) would pile up past position k, since
the merge keeps every near-tie of the k-th item. So a cell of a real symbol
drops each item x past position k whose serial is greater than the k-th
smallest serial among the items before it. Those k items have a log-prob no
lower than x's and a smaller serial, and each beats x in every parent:
- x's node log-prob is one addend of every ancestor's canonical sum, and
  IEEE addition is monotone, so swapping in an earlier item never lowers
  the ancestor's float;
- the two ancestors' serials differ only inside that item's substring, and
  two serials of one symbol over one span are never prefixes of each other,
  so their order is the order of the two items' serials.
So every root candidate built from x has k distinct candidates strictly
ahead of it, and the root's top k is what the unpruned chart gives, bit for
bit. ``@`` cells stay whole: their parents add the spliced children's
log-probs one at a time, not the item's own sum.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Union

from .errors import NoParse
from .grammar import CnfRule, Grammar, binarize_cnf, is_intermediate

Child = Union["ParseTree", str]


@dataclass(frozen=True, slots=True)
class ParseTree:
    label: str
    children: tuple[Child, ...]
    log_prob: float = 0.0

    def serialize(self) -> str:
        return _serialize(self)

    @property
    def yield_(self) -> tuple[str, ...]:
        out: list[str] = []
        _collect_yield(self, out)
        return tuple(out)


_new_node = object.__new__
_set_label = ParseTree.label.__set__
_set_children = ParseTree.children.__set__
_set_log_prob = ParseTree.log_prob.__set__


def _node(label: str, children: tuple[Child, ...], log_prob: float) -> ParseTree:
    """``ParseTree(label, children, log_prob)``, filled through its slots: the
    frozen dataclass ``__init__`` pays an ``object.__setattr__`` per field."""
    node = _new_node(ParseTree)
    _set_label(node, label)
    _set_children(node, children)
    _set_log_prob(node, log_prob)
    return node


def _serialize(node: Child) -> str:
    if isinstance(node, str):
        return node
    inner = " ".join(_serialize(c) for c in node.children)
    return f"({node.label} {inner})"


def _collect_yield(node: Child, out: list[str]) -> None:
    if isinstance(node, str):
        out.append(node)
        return
    for c in node.children:
        _collect_yield(c, out)


@dataclass(frozen=True)
class KBestList:
    parses: tuple[ParseTree, ...]


# A chart item is (neg_log_prob, serial, payload); payload is a ParseTree
# for real symbols and a tuple of spliceable children for intermediates and
# lifted terminals. ``serial`` is always the payload's serializations joined
# by spaces, so a parent's serial is built from its children's serials.
Item = tuple[float, str, tuple[Child, ...]]

_ORDER = itemgetter(0, 1)  # an item's sort key: (neg_log_prob, serial)


def _item(rule: CnfRule, children: tuple[Child, ...], serial: str) -> Item:
    """The chart item of ``rule`` over ``children``, whose joined serial is ``serial``.

    Intermediate and lifted symbols pass their children up for splicing.
    A real symbol gets its original-label node, with a collapsed unary chain
    re-expanded above it. Log-probs are accumulated in a canonical order
    (rule first, then each child subtree left to right, then unary steps
    bottom-up) so equal derivations get bit-identical floats regardless of
    chart split points.
    """
    lp = rule.rule_lp  # 0.0 for intermediate and lifted rules
    for c in children:
        if isinstance(c, ParseTree):
            lp += c.log_prob
    if is_intermediate(rule.lhs):
        return (-lp, serial, children)
    label = rule.chain[-1]
    node = _node(label, children, lp)
    serial = f"({label} {serial})"
    for label, step_lp in zip(reversed(rule.chain[:-1]), reversed(rule.chain_lps)):
        lp = step_lp + lp
        node = _node(label, (node,), lp)
        serial = f"({label} {serial})"
    return (-lp, serial, (node,))


class Parser:
    """Reusable parser holding the binarized form of a grammar and the
    lexical cell of each terminal, shared by every sentence it parses."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        cnf = binarize_cnf(grammar)
        self.lexical: dict[str, dict[str, list[Item]]] = {}
        self.binary_by_left: dict[str, list[CnfRule]] = {}
        for rule in cnf:
            if len(rule.rhs) == 1:
                tok = rule.rhs[0]
                cell = self.lexical.setdefault(tok, {})
                cell.setdefault(rule.lhs, []).append(_item(rule, (tok,), tok))
            else:
                self.binary_by_left.setdefault(rule.rhs[0], []).append(rule)
        # Lexical lists stay untruncated; they are bounded by the number of
        # rules over one terminal.
        for cell in self.lexical.values():
            for items in cell.values():
                items.sort(key=_ORDER)

    def kbest(self, tokens: list[str], k: int) -> KBestList:
        if k < 1:
            raise ValueError("k must be >= 1")
        oov = sorted({t for t in tokens if t not in self.grammar.terminals})
        if oov:
            raise NoParse(f"tokens not in grammar terminals: {oov}")
        n = len(tokens)
        # Every terminal has a lexical rule (a unary one or its @t_ lift), so
        # after the OOV check every span-1 cell is non-empty.
        chart: list[dict[int, dict[str, list[Item]]]] = [
            {i + 1: self.lexical[tok]} for i, tok in enumerate(tokens)]
        binary_by_left = self.binary_by_left

        for span in range(2, n + 1):
            for i in range(0, n - span + 1):
                j = i + span
                row = chart[i]
                # Candidate sources per LHS: (rule, left list, right list).
                options: dict[str, list[tuple[CnfRule, list[Item], list[Item]]]] = {}
                # Spans are filled shortest first, so row i holds only
                # m < j here, in ascending order.
                for m, left_cell in row.items():
                    right_cell = chart[m].get(j)
                    if right_cell is None:
                        continue
                    for b, lefts in left_cell.items():
                        for rule in binary_by_left.get(b, ()):
                            rights = right_cell.get(rule.rhs[1])
                            if rights:
                                options.setdefault(rule.lhs, []).append((rule, lefts, rights))
                if options:
                    cell = {}
                    for lhs, opts in options.items():
                        items = _merge_kbest(opts, k)
                        cell[lhs] = items if is_intermediate(lhs) else _drop_dominated(items, k)
                    row[j] = cell

        root = chart[0].get(n, {}).get(self.grammar.start, []) if n else []
        if not root:
            raise NoParse(f"no derivation for {tokens!r} rooted at {self.grammar.start}")
        return KBestList(parses=tuple(item[2][0] for item in root[:k]))


# Successor expansion can misorder mathematically equal candidates whose
# floats differ in the last bits, so pop a little past the k-th item and
# let a final exact sort settle the order. Of the near-ties this keeps past
# position k, a real symbol's cell then drops those that k earlier items
# beat in every parent (``_drop_dominated``; the module docstring has the
# proof), and an ``@`` cell keeps them all.
_TIE_MARGIN = 1e-9


def _merge_kbest(options: list[tuple[CnfRule, list[Item], list[Item]]], k: int) -> list[Item]:
    """Top-k of the union of item products: all of them, sorted, when they fit
    in k, and otherwise by lazy heap expansion."""
    if sum(len(lefts) * len(rights) for _, lefts, rights in options) <= k:
        out = [_item(rule, left[2] + right[2], left[1] + " " + right[1])
               for rule, lefts, rights in options for left in lefts for right in rights]
        out.sort(key=_ORDER)
        return out
    heap: list[tuple[float, str, int, int, int, Item]] = []

    def push(oi: int, li: int, ri: int) -> None:
        rule, lefts, rights = options[oi]
        if li >= len(lefts) or ri >= len(rights):
            return
        left, right = lefts[li], rights[ri]
        item = _item(rule, left[2] + right[2], left[1] + " " + right[1])
        heapq.heappush(heap, (item[0], item[1], oi, li, ri, item))

    for oi in range(len(options)):
        push(oi, 0, 0)
    out: list[Item] = []
    boundary: Optional[float] = None
    while heap:
        if boundary is not None and heap[0][0] > boundary + _TIE_MARGIN:
            break
        _neg_lp, _serial, oi, li, ri, item = heapq.heappop(heap)
        out.append(item)
        if boundary is None and len(out) == k:
            boundary = max(it[0] for it in out)
        push(oi, li + 1, ri)
        if li == 0:
            push(oi, 0, ri + 1)
    out.sort(key=_ORDER)
    # Keep near-ties of the k-th item: a derivation that loses a local
    # last-bit comparison can still head the final list after rebuilding.
    if len(out) > k:
        cut = out[k - 1][0] + _TIE_MARGIN
        end = k
        while end < len(out) and out[end][0] <= cut:
            end += 1
        del out[end:]
    return out


def _drop_dominated(items: list[Item], k: int) -> list[Item]:
    """``items`` without each item past position k whose serial is greater
    than the k-th smallest serial before it; ``items`` is in merge order."""
    if len(items) <= k:
        return items
    smallest = sorted(it[1] for it in items[:k])  # the k smallest serials so far
    kept = items[:k]
    for it in items[k:]:
        if it[1] > smallest[-1]:
            continue
        kept.append(it)
        bisect.insort(smallest, it[1])
        smallest.pop()
    return kept
