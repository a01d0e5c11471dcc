import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

import readgauge
from readgauge.cky import Parser
from readgauge.grammar import load_grammar
from readgauge.lexicons import load_norms, load_senses
from readgauge.pos_features import load_tag_lexicon
from readgauge.registry import Resources

# Every property test draws the same examples on every run, so a failure in CI
# replays anywhere; no deadline, since a slow shared runner would trip it, and no
# example database written into the checkout. Example counts stay per test.
settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def data_dir():
    """The bundled resource directory; no test writes into it."""
    return os.path.join(os.path.dirname(readgauge.__file__), "data")


@pytest.fixture(scope="session")
def demo_grammar(data_dir):
    return load_grammar(os.path.join(data_dir, "demo_grammar.txt"))


@pytest.fixture(scope="session")
def demo_parser(demo_grammar):
    return Parser(demo_grammar)


@pytest.fixture(scope="session")
def demo_resources(data_dir, demo_parser):
    return Resources(
        parser=demo_parser,
        tag_lexicon=load_tag_lexicon(os.path.join(data_dir, "tag_lexicon.csv")),
        norm_tables=load_norms(os.path.join(data_dir, "norms.csv")),
        sense_table=load_senses(os.path.join(data_dir, "senses.csv")),
    )
