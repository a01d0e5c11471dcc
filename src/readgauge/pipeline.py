"""End-to-end pipeline: feature extraction + optional fusion + linear model.

``fit_vocab`` and ``matrix`` are the single path from documents to a
feature matrix: ``fit``, ``predict`` and the ``extract`` command all call
them, so the columns of a features CSV are the columns a model is fit on.
Fold-independent features come from ``registry`` and are cached per
document (they are pure functions of the text); everything fold-dependent
is fit inside ``fit`` from the training documents only: the word-type
vocabulary and its ``wt_<word>`` columns, the scaler and the model. Each
``fit`` replaces them all, so evaluation refits one pipeline fold after fold.

Only ``rows`` assembles a row: registry features, ``wt_<word>``, then
``--scores`` columns. Its rules raise here alone (``MissingScore``,
``NameCollision``, ``FeatureMismatch``); ``cli.parse_feature_sets`` checks set names.

numpy and ``models`` are imported by the methods that build a matrix or a
model, so ``extract``, which writes ``rows``, never pays numpy's import.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Optional, Sequence

from . import registry
from .errors import DegenerateLabels, FeatureMismatch, MissingResource, MissingScore, NameCollision
from .textcore import Document, word_type_proportions

if TYPE_CHECKING:
    import numpy as np

    from .models import LinearModel

MODEL_KINDS = ("svm", "logistic", "linear")

# Every feature set a pipeline accepts: the registry's, plus the word types.
FEATURE_SET_NAMES = (*registry.FEATURE_SETS, "word_types")


class FeaturePipeline:
    def __init__(
        self,
        feature_sets: list[str],
        resources: registry.Resources,
        model: str = "svm",  # svm | logistic | linear (C=1 svm, no tuning)
        seed: int = 7,
        scores: Optional[dict[str, list[tuple[str, float]]]] = None,
    ):
        if model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {model!r}")
        self.feature_sets = feature_sets
        self.resources = resources
        self.model_kind = model
        self.seed = seed
        self.scores = scores
        static_sets = [s for s in feature_sets if s != "word_types"]
        self._static_set = registry.union_sets(static_sets) if static_sets else None
        # Kept across fits: features that do not depend on the fold.
        self._static_cache: dict[str, dict[str, float]] = {}
        self.vocab: Optional[list[str]] = None
        self.model: Optional[LinearModel] = None

    # -- feature assembly ---------------------------------------------------

    def _static_features(self, doc: Document) -> dict[str, float]:
        cached = self._static_cache.get(doc.doc_id)
        if cached is None:
            fs = self._static_set
            cached = {} if fs is None else registry.extract(doc, fs, self.resources)
            self._static_cache[doc.doc_id] = cached
        return cached

    def _doc_vector(self, doc: Document) -> dict[str, float]:
        feats = dict(self._static_features(doc))
        if "word_types" in self.feature_sets:
            if self.vocab is None:
                raise MissingResource("word_types requires a fitted vocabulary")
            props = word_type_proportions(doc, self.vocab)
            feats.update((f"wt_{w}", v) for w, v in props.items())
        if self.scores is not None:
            for name, value in self.scores[doc.doc_id]:
                if name in feats:
                    raise NameCollision(f"score name {name!r} is also a feature column")
                feats[name] = float(value)
        return feats

    def fit_vocab(self, docs: Sequence[Document]) -> None:
        """Fit the word-type vocabulary (sorted lowercased word types of ``docs``).

        A no-op unless ``word_types`` is among the feature sets.
        """
        if "word_types" in self.feature_sets:
            self.vocab = sorted({tok.lowercased for doc in docs for tok in doc.word_tokens})

    def rows(self, docs: Sequence[Document]) -> tuple[list[list[float]], tuple[str, ...]]:
        """Feature rows of ``docs`` (one list each) and their column names.

        Columns follow the first document's feature order; every document must
        have exactly the same feature names, or ``FeatureMismatch`` is raised.
        With external scores, a document that has none raises ``MissingScore``
        before any document's features are extracted.
        """
        if self.scores is not None:
            missing = next((d.doc_id for d in docs if d.doc_id not in self.scores), None)
            if missing is not None:
                raise MissingScore(f"no external score rows for doc {missing!r}")
        rows = [self._doc_vector(d) for d in docs]
        if not rows:
            return [], ()
        names = tuple(rows[0])
        first = rows[0].keys()
        for doc, row in zip(docs, rows):
            if row.keys() != first:
                raise FeatureMismatch(
                    f"doc {doc.doc_id!r} lacks {sorted(first - row.keys())} and adds "
                    f"{sorted(row.keys() - first)} to the features of doc {docs[0].doc_id!r}"
                )
        return [[r[n] for n in names] for r in rows], names

    def matrix(self, docs: Sequence[Document]) -> tuple[np.ndarray, tuple[str, ...]]:
        """``rows`` as a float matrix; (0, 0) when there are no documents."""
        import numpy as np

        rows, names = self.rows(docs)
        return (np.array(rows, dtype=float) if rows else np.zeros((0, 0))), names

    # -- fit / predict ------------------------------------------------------

    def fit(self, docs: Sequence[Document], labels: Sequence[int]) -> None:
        from . import models

        self.fit_vocab(docs)
        X, names = self.matrix(docs)
        if self.model_kind == "logistic":
            self.model = models.train_logistic(X, labels, names)
        else:  # "linear" is the C=1 linear SVM without tuning
            c = 1.0
            # Under 10 samples are too few to cross-validate the grid meaningfully,
            # and an inner fold that trains on one class cannot score it at all.
            if self.model_kind == "svm" and len(labels) >= 10:
                # Name a column whose mean or std overflows before the grid's folds do.
                models.standardize(X, names)
                with contextlib.suppress(DegenerateLabels):
                    c = models.grid_search_c(X, labels, models.DEFAULT_C_GRID, seed=self.seed)
            self.model = models.train_linear_svm(X, labels, c, names)

    def predict(self, docs: Sequence[Document]) -> list[int]:
        from . import models

        assert self.model is not None, "fit before predict"
        X, names = self.matrix(docs)
        if X.size == 0 and not docs:
            return []
        return list(models.predict(self.model, X, names))
