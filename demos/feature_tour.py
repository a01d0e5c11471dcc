"""A walking tour of the feature battery on two contrasting passages.

Run with ``python3 demos/feature_tour.py``. Everything here uses the bundled
demo resources (grammar, tag lexicon, norms, sense counts) that ship inside
the package, so no external data is needed.
"""

from readgauge.cky import Parser
from readgauge.data_files import (
    GRAMMAR_FILE,
    NORMS_FILE,
    SENSES_FILE,
    TAG_LEXICON_FILE,
    default_data_dir,
)
from readgauge.grammar import load_grammar
from readgauge.lexicons import load_norms, load_senses
from readgauge.pos_features import load_tag_lexicon
from readgauge.registry import FEATURE_SETS, Resources, extract
from readgauge.textcore import make_document

import os

EASY = (
    "The cat sat on the mat. The dog ran. It was fun. "
    "A bird sees the tree. The tree is big."
)
HARD = (
    "Notwithstanding unprecedented circumstances, the investigation "
    "demonstrated extraordinarily complicated interdependencies. "
    "Comprehensive documentation accompanied every preliminary assessment."
)


def main():
    data = default_data_dir()
    resources = Resources(
        parser=Parser(load_grammar(os.path.join(data, GRAMMAR_FILE))),
        tag_lexicon=load_tag_lexicon(os.path.join(data, TAG_LEXICON_FILE)),
        norm_tables=load_norms(os.path.join(data, NORMS_FILE)),
        sense_table=load_senses(os.path.join(data, SENSES_FILE)),
    )

    docs = {
        "easy": make_document("easy", EASY),
        "hard": make_document("hard", HARD),
    }

    for set_name in ("flesch", "lexical_diversity", "novel_syntactic"):
        fs = FEATURE_SETS[set_name]
        print(f"\n== {set_name} ==")
        vectors = {k: extract(d, fs, resources) for k, d in docs.items()}
        width = max(len(n) for n in fs.members)
        print(f"{'feature':<{width}}  {'easy':>10}  {'hard':>10}")
        for name in fs.members:
            e, h = vectors["easy"][name], vectors["hard"][name]
            print(f"{name:<{width}}  {e:>10.4f}  {h:>10.4f}")


if __name__ == "__main__":
    main()
