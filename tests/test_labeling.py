import pytest

from readgauge.errors import MalformedRow, UnknownClass
from readgauge.labeling import as_classes, load_difficulty_order


def labels(*names):
    return list(names)


class TestAsClasses:
    def test_first_seen_order(self):
        ids, order = as_classes(labels("B", "A", "B"))
        assert ids == [0, 1, 0]
        assert order == ["B", "A"]

    def test_explicit_ordering(self):
        ids, order = as_classes(labels("C", "A"), ordering=["A", "B", "C"])
        assert ids == [2, 0]
        assert order == ["A", "B", "C"]

    def test_unknown_class(self):
        with pytest.raises(UnknownClass, match=r"class 'Z' is not in the difficulty order"):
            as_classes(labels("Z"), ordering=["A", "B"])

    def test_empty(self):
        assert as_classes([]) == ([], [])


class TestDifficultyOrder:
    def test_load(self, tmp_path):
        p = tmp_path / "order.txt"
        p.write_text("easy\n\nmedium\nhard\n", encoding="utf-8")
        assert load_difficulty_order(str(p)) == ["easy", "medium", "hard"]

    def test_class_named_twice(self, tmp_path):
        p = tmp_path / "order.txt"
        p.write_text("easy\nhard\n\neasy\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load_difficulty_order(str(p))
        message = str(err.value)
        assert str(p) in message and "line 4" in message and "'easy'" in message
