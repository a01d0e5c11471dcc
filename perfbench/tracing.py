"""Spans around the calls into readgauge's modules, recorded from outside.

``install`` replaces public functions and methods with timing wrappers at
the names the CLI looks them up by, and returns a function that puts the
originals back. Spans stay in memory; ``write`` saves them with the self
time of every span name (its duration minus the part its child spans
cover). ``layer_metrics`` turns spans and counters into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LENGTH_BUCKETS = ((1, 10), (11, 20), (21, 30), (31, 40))
REGISTRY_GROUPS = ("traditional", "pos", "syntactic", "ttr", "senses", "psycholinguistic", "novel_pos")


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, run id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self.run_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.kbest_results: list[tuple[list[str], tuple]] = []

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive time, self time and call count per span name.

        Inclusive time counts a name once when it nests inside itself."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _run) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[i]
            anc = parent
            while anc >= 0 and self.spans[anc][0] != name:
                anc = self.spans[anc][3]
            if anc < 0:
                inclusive[name] += end - start
        return inclusive, self_time, calls

    def write(self, path: str, extra: dict) -> None:
        inclusive, self_time, calls = self.totals()
        payload = dict(extra)
        payload["layers"] = {
            name: {"calls": calls[name], "inclusive_s": inclusive[name], "self_s": self_time[name]}
            for name in sorted(calls)
        }
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _patch(undo, owner, attr, wrapper_factory):
    original = getattr(owner, attr)
    undo.append((owner, attr, original))
    setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))


def _timed(tracer: Tracer, name: str):
    def factory(original):
        def wrapper(*args, **kwargs):
            return tracer.span(name, original, *args, **kwargs)
        return wrapper
    return factory


def install(tracer: Tracer):
    """Wrap the CLI path's entry points; returns a function undoing it."""
    from readgauge import (
        cli, cky, lexical_features, models, parse_features, pipeline, pos_features,
        registry, synth, textcore,
    )
    from readgauge.errors import NoParse

    undo: list = []

    def timed(owner, attr, name):
        _patch(undo, owner, attr, _timed(tracer, name))

    timed(synth, "generate_corpus", "synth.generate_corpus")
    timed(cli, "ingest_corpus", "cli.ingest")
    timed(cli, "build_resources", "cli.build_resources")
    timed(cli, "load_grammar", "grammar.load")
    timed(cky.Parser, "__init__", "cky.parser_init")
    timed(parse_features, "syntactic_ratios", "parse_features.syntactic_ratios")
    timed(parse_features, "constituent_counts", "parse_features.constituent_counts")
    timed(registry, "sense_features", "lexicons.sense_features")
    timed(lexical_features, "surface_stats", "lexical_features.surface_stats")
    timed(lexical_features, "ttr_measures", "lexical_features.ttr_measures")
    timed(pipeline.FeaturePipeline, "fit", "pipeline.fit")
    timed(pipeline.FeaturePipeline, "predict", "pipeline.predict")
    timed(models, "train_linear_svm", "models.train_linear_svm")
    timed(models, "grid_search_c", "models.grid_search_c")
    timed(models, "train_logistic", "models.train_logistic")
    timed(models, "predict", "models.predict")
    timed(cli, "cross_validate", "evaluation.cross_validate")
    timed(cli, "size_ablation", "evaluation.size_ablation")

    def make_document(original):
        def wrapper(*args, **kwargs):
            doc = tracer.span("textcore.make_document", original, *args, **kwargs)
            tracer.counts["tokens"] += sum(len(s.tokens) for s in doc.sentences)
            return doc
        return wrapper

    _patch(undo, cli, "make_document", make_document)

    def per_doc(name, counter):
        def factory(original):
            def wrapper(doc, *args, **kwargs):
                tracer.counts[counter] += 1
                tracer.keys[counter].add((tracer.run_id, doc.doc_id))
                return tracer.span(name, original, doc, *args, **kwargs)
            return wrapper
        return factory

    _patch(undo, pos_features, "tag", per_doc("pos_features.tag", "tag_calls"))
    _patch(undo, registry, "mean_rating", per_doc("lexicons.mean_rating", "mean_rating_calls"))

    def extract(original):
        def wrapper(doc, feature_set, resources):
            if feature_set.name != "word_types":  # word types are fold-fitted, never cached
                tracer.counts["static_extract_calls"] += 1
                tracer.keys["static_extract_calls"].add((tracer.run_id, feature_set.name, doc.doc_id))
            return original(doc, feature_set, resources)
        return wrapper

    _patch(undo, registry, "extract", extract)

    def kbest(original):
        def wrapper(self, tokens, k):
            bucket = next((b for b in LENGTH_BUCKETS if b[0] <= len(tokens) <= b[1]), None)
            index = len(tracer.spans)
            try:
                kb = tracer.span("cky.kbest", original, self, tokens, k)
            except NoParse:
                tracer.counts["skipped.no_parse"] += 1
                raise
            tracer.counts["kbest_ok"] += 1
            tracer.counts["parses"] += len(kb.parses)
            _name, start, end, _parent, _run = tracer.spans[index]
            if bucket is not None:
                tracer.counts[f"bucket.{bucket[0]:02d}_{bucket[1]:02d}.n"] += 1
                tracer.counts[f"bucket.{bucket[0]:02d}_{bucket[1]:02d}.s"] += end - start
            tracer.kbest_results.append((list(tokens), kb.parses))
            return kb
        return wrapper

    _patch(undo, cky.Parser, "kbest", kbest)

    for group in REGISTRY_GROUPS:
        names, fn = registry.GROUPS[group]

        def group_wrapper(doc, res, _fn=fn, _group=group):
            if _group == "syntactic":
                before = tracer.counts["kbest_ok"] + tracer.counts["skipped.no_parse"]
                out = tracer.span("registry.extract.syntactic", _fn, doc, res)
                tried = tracer.counts["kbest_ok"] + tracer.counts["skipped.no_parse"] - before
                tracer.counts["skipped.over_cap"] += len(doc.sentences) - tried
                return out
            return tracer.span(f"registry.extract.{_group}", _fn, doc, res)

        undo.append((registry.GROUPS, group, (names, fn)))
        registry.GROUPS[group] = (names, group_wrapper)

    def restore():
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, overhead_s: float, wall_s: float) -> dict[str, tuple[float, str]]:
    inc, _self, calls = tracer.totals()
    c = tracer.counts

    def per(num, den):
        return num / den if den else 0.0

    def per_doc(counter):
        return per(c[counter], len(tracer.keys[counter]))

    m = {
        "synth.generate_corpus_s": (inc["synth.generate_corpus"], "s"),
        "cli.ingest_s": (inc["cli.ingest"], "s"),
        "cli.build_resources_s": (inc["cli.build_resources"], "s"),
        "textcore.make_document_s": (inc["textcore.make_document"], "s"),
        "textcore.tokens_per_s": (per(c["tokens"], inc["textcore.make_document"]), "tokens/s"),
        "grammar.load_s": (inc["grammar.load"], "s"),
        "cky.parser_init_s": (inc["cky.parser_init"], "s"),
        "cky.kbest_s": (inc["cky.kbest"], "s"),
        "cky.kbest_calls": (calls["cky.kbest"], "count"),
        "cky.parses_per_sentence": (per(c["parses"], c["kbest_ok"]), "parses/sentence"),
    }
    for lo, hi in LENGTH_BUCKETS:
        key = f"bucket.{lo:02d}_{hi:02d}"
        m[f"cky.sentences_per_s.len_{lo:02d}_{hi:02d}"] = (per(c[key + ".n"], c[key + ".s"]), "1/s")
    m.update({
        "cky.sentences_skipped.over_cap": (c["skipped.over_cap"], "count"),
        "cky.sentences_skipped.no_parse": (c["skipped.no_parse"], "count"),
        "parse_features.syntactic_ratios_s": (inc["parse_features.syntactic_ratios"], "s"),
        "parse_features.constituent_counts_per_s": (
            per(calls["parse_features.constituent_counts"], inc["parse_features.constituent_counts"]), "1/s"),
        "pos_features.tag_s": (inc["pos_features.tag"], "s"),
        "pos_features.tag_calls_per_doc": (per_doc("tag_calls"), "calls/doc"),
        "lexicons.mean_rating_s": (inc["lexicons.mean_rating"], "s"),
        "lexicons.mean_rating_calls_per_doc": (per_doc("mean_rating_calls"), "calls/doc"),
        "lexicons.sense_features_s": (inc["lexicons.sense_features"], "s"),
        "lexical_features.surface_stats_s": (inc["lexical_features.surface_stats"], "s"),
        "lexical_features.ttr_measures_s": (inc["lexical_features.ttr_measures"], "s"),
    })
    for group in REGISTRY_GROUPS:
        m[f"registry.extract_s.{group}"] = (inc[f"registry.extract.{group}"], "s")
    m.update({
        "pipeline.fit_s": (inc["pipeline.fit"], "s"),
        "pipeline.predict_s": (inc["pipeline.predict"], "s"),
        "pipeline.extract_calls_per_doc": (per_doc("static_extract_calls"), "calls/doc"),
        "models.train_linear_svm_s": (inc["models.train_linear_svm"], "s"),
        "models.train_linear_svm_calls": (calls["models.train_linear_svm"], "count"),
        "models.svm_fits_per_s": (per(calls["models.train_linear_svm"], inc["models.train_linear_svm"]), "1/s"),
        "models.grid_search_c_s": (inc["models.grid_search_c"], "s"),
        "models.train_logistic_s": (inc["models.train_logistic"], "s"),
        "models.train_logistic_calls": (calls["models.train_logistic"], "count"),
        "models.predict_s": (inc["models.predict"], "s"),
        "evaluation.cross_validate_s": (inc["evaluation.cross_validate"], "s"),
        "evaluation.size_ablation_s": (inc["evaluation.size_ablation"], "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return m
