"""k-best parsing and the parse-ambiguity measures, step by step.

Builds a deliberately ambiguous PP-attachment grammar, prints every parse
of one sentence with its log-probability, and shows how the PD/PDM
ambiguity measures summarize the k-best distribution.
"""

from readgauge.cky import Parser
from readgauge.grammar import Rule, make_grammar
from readgauge.parse_features import parse_deviation, parse_deviation_from_max


def r(lhs, rhs, prob):
    return Rule(lhs=lhs, rhs=tuple(rhs), prob=prob)


# "the man sees the dog with the telescope": the PP can attach to the VP
# (instrument) or to the object NP (the dog that has a telescope).
GRAMMAR = make_grammar([
    r("S", ["NP", "VP"], 1.0),
    r("NP", ["DT", "NN"], 0.7),
    r("NP", ["NP", "PP"], 0.3),
    r("VP", ["V", "NP"], 0.6),
    r("VP", ["VP", "PP"], 0.4),
    r("PP", ["P", "NP"], 1.0),
    r("DT", ["the"], 1.0),
    r("NN", ["man"], 0.4),
    r("NN", ["dog"], 0.4),
    r("NN", ["telescope"], 0.2),
    r("V", ["sees"], 1.0),
    r("P", ["with"], 1.0),
])


def main():
    parser = Parser(GRAMMAR)
    tokens = "the man sees the dog with the telescope".split()
    kbest = parser.kbest(tokens, 10)

    print(f"sentence: {' '.join(tokens)}")
    print(f"parses found: {len(kbest.parses)}\n")
    for i, tree in enumerate(kbest.parses, 1):
        print(f"#{i}  log_prob={tree.log_prob:.4f}")
        print(f"    {tree.serialize()}")

    print("\nambiguity measures over the k-best log-probabilities:")
    for x in (1, 2, 10):
        pd = parse_deviation(kbest, x)
        pdm = parse_deviation_from_max(kbest, x)
        print(f"  x={x:>2}   PD_{x}={pd:.6f}   PDM_{x}={pdm:.6f}")
    print("\nA single unambiguous sentence would score PD = PDM = 0; the gap")
    print("between the attachment readings is what these features measure.")


if __name__ == "__main__":
    main()
