"""The benchmark's tracer still finds every name it patches.

``perfbench/tracing.py`` wraps module-level functions and methods by name. A
rename in ``readgauge`` stops ``install``, and a call that no longer goes
through the patched name leaves a metric at zero. This runs the CLI in
process under the tracer, checks that each span it reports was recorded, and
then that ``restore`` puts back every original.
"""

import importlib.util
import os

from readgauge import (
    cli, cky, lexical_features, models, parse_features, pipeline, pos_features, registry, synth, textcore,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    """Every attribute of every owner the tracer may patch."""
    owners = (cli, cky, cky.Parser, lexical_features, models, parse_features, pipeline,
              pipeline.FeaturePipeline, pos_features, registry, registry.GROUPS, synth, textcore)
    return [(owner, dict(owner if isinstance(owner, dict) else vars(owner))) for owner in owners]


def test_every_patch_point_records_a_span(tmp_path):
    tracing = load_tracing()
    corpus = str(tmp_path / "corpus")
    assert cli.main(["synth", "--out", corpus, "--docs", "12", "--seed", "3"]) == 0
    manifest = os.path.join(corpus, "manifest.csv")
    before = snapshot()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        codes = [
            cli.main(["extract", "--manifest", manifest, "--features", "linguistic",
                      "--out", str(tmp_path / "x")]),
            # 12 training documents: the C-grid runs (it needs at least 10).
            cli.main(["train", "--manifest", manifest, "--features", "flesch", "--model", "svm",
                      "--out", str(tmp_path / "m")]),
        ]
    finally:
        restore()
    assert codes == [0, 0]
    _inclusive, _self, calls = tracer.totals()
    expected = [f"registry.extract.{group}" for group in tracing.REGISTRY_GROUPS] + [
        "parse_features.constituent_counts", "cky.kbest", "pos_features.tag", "pipeline.fit",
        "models.grid_search_c",
    ]
    assert [name for name in expected if not calls.get(name)] == []
    for owner, attrs in before:
        now = owner if isinstance(owner, dict) else vars(owner)
        # ``restore`` puts a registry group back as an equal, new (names, function) pair.
        changed = [name for name, value in attrs.items()
                   if now.get(name) is not value and now.get(name) != value]
        assert changed == [], owner
