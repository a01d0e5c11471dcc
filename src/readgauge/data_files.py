"""Where the bundled demonstration resources live.

The files under ``data/`` (grammar, tag lexicon, norms, sense counts) are the
source: they are maintained by hand, not generated. The word pools in
``synth`` must match them, so that synthetic documents always parse under the
bundled grammar and are fully covered by the bundled tag lexicon and norms;
``tests/test_data_files.py`` checks that they agree.
"""

from __future__ import annotations

import os

GRAMMAR_FILE = "demo_grammar.txt"
TAG_LEXICON_FILE = "tag_lexicon.csv"
NORMS_FILE = "norms.csv"
SENSES_FILE = "senses.csv"


def default_data_dir() -> str:
    env = os.environ.get("READGAUGE_DATA")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data")
