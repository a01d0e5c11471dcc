import math

import pytest

from readgauge import registry
from readgauge.errors import MissingResource
from readgauge.registry import (
    FEATURE_SETS,
    NOVEL_SYNTACTIC_FEATURE_NAMES,
    PSYCHOLINGUISTIC_FEATURE_NAMES,
    Resources,
    extract,
    union_sets,
)
from readgauge.textcore import make_document


class TestRegistryShape:
    def test_novel_syntactic_members(self):
        # the novel feature bundle is exactly these five
        assert set(FEATURE_SETS["novel_syntactic"].members) == {
            "pd_2",
            "pd_10",
            "pdm_10",
            "posd_dev",
            "pos_div",
        }
        assert NOVEL_SYNTACTIC_FEATURE_NAMES == ["pd_2", "pd_10", "pdm_10", "posd_dev", "pos_div"]

    def test_set_sizes(self):
        assert len(FEATURE_SETS["flesch"].members) == 12
        assert len(FEATURE_SETS["traditional"].members) == 12
        assert len(FEATURE_SETS["pos"].members) == 29
        assert len(FEATURE_SETS["syntactic"].members) == 27
        assert len(FEATURE_SETS["lexical_diversity"].members) == 9
        assert len(FEATURE_SETS["psycholinguistic"].members) == 11

    def test_linguistic_is_deduped_union(self):
        linguistic = FEATURE_SETS["linguistic"].members
        assert len(linguistic) == len(set(linguistic))
        for name in ("flesch", "pos", "syntactic", "lexical_diversity", "psycholinguistic", "novel_syntactic"):
            assert set(FEATURE_SETS[name].members) <= set(linguistic)

    def test_sets_are_whole_groups(self):
        def groups_of(members):
            groups, i = [], 0
            while i < len(members):
                group = registry.NAME_TO_GROUP[members[i]]
                names = registry.GROUPS[group][0]
                assert members[i : i + len(names)] == names, (group, members[i:])
                groups.append(group)
                i += len(names)
            return groups

        for name, fs in FEATURE_SETS.items():
            if name != "novel_syntactic":
                groups_of(fs.members)
        assert groups_of(FEATURE_SETS["linguistic"].members) == list(registry.GROUPS)

    def test_every_member_has_extractor(self):
        for fs in FEATURE_SETS.values():
            for member in fs.members:
                assert member in registry.NAME_TO_GROUP

    def test_psycholinguistic_names(self):
        assert len(PSYCHOLINGUISTIC_FEATURE_NAMES) == 11
        assert len(set(PSYCHOLINGUISTIC_FEATURE_NAMES)) == 11


class TestResolveAndUnion:
    def test_union_dedups_preserving_first_occurrence(self):
        fs = union_sets(["flesch", "linguistic"])
        assert fs.members[: len(FEATURE_SETS["flesch"].members)] == FEATURE_SETS["flesch"].members
        assert len(fs.members) == len(set(fs.members))
        assert set(fs.members) == set(FEATURE_SETS["linguistic"].members)

    def test_union_is_order_of_first_mention(self):
        a = union_sets(["pos", "flesch"])
        assert a.members[:29] == FEATURE_SETS["pos"].members


class TestExtract:
    def test_traditional_needs_no_resources(self):
        doc = make_document("d", "The dog runs. It barked!")
        out = extract(doc, FEATURE_SETS["flesch"], Resources())
        assert list(out) == list(FEATURE_SETS["flesch"].members)
        assert all(math.isfinite(v) for v in out.values())
        assert out["number_of_sentences"] == 2.0

    def test_missing_resources_raise(self):
        doc = make_document("d", "The dog runs.")
        with pytest.raises(MissingResource):
            extract(doc, FEATURE_SETS["pos"], Resources())
        with pytest.raises(MissingResource):
            extract(doc, FEATURE_SETS["syntactic"], Resources())
        with pytest.raises(MissingResource):
            extract(doc, FEATURE_SETS["psycholinguistic"], Resources())
        with pytest.raises(MissingResource):  # a norms file with one column
            extract(doc, FEATURE_SETS["psycholinguistic"], Resources(norm_tables={"aoa": {}}))

    def test_full_linguistic_extraction(self, demo_resources):
        doc = make_document("d", "The dog runs. The cat sees a bird.")
        out = extract(doc, FEATURE_SETS["linguistic"], demo_resources)
        assert list(out) == list(FEATURE_SETS["linguistic"].members)
        assert all(math.isfinite(v) for v in out.values())

    @pytest.mark.parametrize("group", list(registry.GROUPS))
    def test_group_returns_exactly_its_names_in_order(self, demo_resources, group):
        # extract reads a group's output by member name, so an extra or
        # misordered key would go unnoticed there.
        names, fn = registry.GROUPS[group]
        doc = make_document("d", "The dog runs. The cat sees a bird.")
        assert list(fn(doc, demo_resources)) == list(names)

    def test_unparseable_sentences_zero_not_error(self, demo_resources):
        # nonsense words tag via suffixes but never parse: syntactic features 0
        doc = make_document("d", "Zzz qqq vvv.")
        out = extract(doc, FEATURE_SETS["syntactic"], demo_resources)
        assert set(out.values()) == {0.0}

    def test_lemma_fallback(self, tmp_path):
        from readgauge.lexicons import load_norms

        # norms file with only the surface columns: lemma variants fall back
        columns = []
        for n in PSYCHOLINGUISTIC_FEATURE_NAMES:
            base = n[: -len("_lemmas")] if n.endswith("_lemmas") else n
            if base not in columns:
                columns.append(base)
        header = "word," + ",".join(columns)
        n_cols = header.count(",")
        p = tmp_path / "norms.csv"
        p.write_text(header + "\ndog," + ",".join(["3"] * n_cols) + "\n", encoding="utf-8")
        res = Resources(norm_tables=load_norms(str(p)))
        doc = make_document("d", "The dog runs.")
        out = extract(doc, FEATURE_SETS["psycholinguistic"], res)
        assert out["aoa_kuperman_lemmas"] == out["aoa_kuperman"] == 3.0

    def test_deterministic(self, demo_resources):
        doc = make_document("d", "The dog sees the cat. A bird runs.")
        a = extract(doc, FEATURE_SETS["linguistic"], demo_resources)
        b = extract(doc, FEATURE_SETS["linguistic"], demo_resources)
        assert a == b
