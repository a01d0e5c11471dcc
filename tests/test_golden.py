"""Pinned output bytes: the CLI's BLAS-free outputs on a fixed corpus.

The manifest and the feature matrix pass through no BLAS call, so their
bytes must match on every machine. A change that moves one of these values
changes the program's outputs; it must say which value and why, and re-pin
the table on purpose. Never update the table to get a pass.
"""

import hashlib

import pytest

from readgauge.cli import main

GOLDEN_SHA256 = {
    "corpus/manifest.csv": "1999e4e8d4736e45b05a049e8785a67472cb229b54c15ce2a6e634643af3900c",
    "extract/features.csv": "c0f88c003cf375c5410ae6d965e4d4fd5bcf5677fefde4385b6e1ceaa12d2a73",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    manifest = str(out / "corpus" / "manifest.csv")
    assert main(["synth", "--out", str(out / "corpus"), "--docs", "60", "--seed", "7"]) == 0
    assert main([
        "extract", "--manifest", manifest, "--features", "word_types+linguistic",
        "--out", str(out / "extract")]) == 0
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_bytes_are_pinned(golden_run, name):
    digest = hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
