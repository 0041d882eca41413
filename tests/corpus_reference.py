"""The rule miner's corpus index as it was built from token tuples, kept
verbatim as an oracle.

:class:`ReferenceCorpusIndex` holds a tuple per row, counts
``(token tuple, label)`` keys in a ``Counter`` and sorts them into
label-major reps; :class:`repro.rulegen.corpus.CorpusIndex` builds the same
columns from token codes. ``tests/test_corpus_index_oracle.py`` holds the
two to equal columns.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.text import tokenize_uncached


class ReferenceCorpusIndex:
    """Rows collapsed to distinct ``(token tuple, label)`` reps, label-major
    and in first-appearance order within a label, as flat columns."""

    def __init__(
        self,
        token_lists: Sequence[Sequence[str]],
        labels: Optional[Sequence[str]] = None,
    ):
        if labels is not None and len(labels) != len(token_lists):
            raise ValueError(
                f"{len(labels)} labels for {len(token_lists)} rows"
            )
        self.n_rows = len(token_lists)
        self.labeled = labels is not None
        # Insertion-ordered, so the stable sort keeps first-appearance
        # order within a label.
        weights = Counter(
            zip(map(tuple, token_lists), labels or [""] * self.n_rows)
        )
        reps = sorted(weights, key=itemgetter(1))
        rep_tokens = [rep[0] for rep in reps]
        self.label_names: List[str] = sorted({rep[1] for rep in reps})
        self.id_tokens: List[str] = sorted(set(chain.from_iterable(rep_tokens)))
        n_reps = len(reps)
        lengths = np.fromiter(
            map(len, rep_tokens), dtype=np.int64, count=n_reps
        )
        n_pos = int(lengths.sum())
        label_code = {name: code for code, name in enumerate(self.label_names)}
        self.rep_label = np.fromiter(
            (label_code[rep[1]] for rep in reps), dtype=np.int32, count=n_reps
        )
        self.rep_weight = np.fromiter(
            map(weights.__getitem__, reps), dtype=np.int64, count=n_reps
        )
        self.label_rows = np.bincount(
            self.rep_label, weights=self.rep_weight,
            minlength=len(self.label_names),
        ).astype(np.int64)

        token_id = {token: tid for tid, token in enumerate(self.id_tokens)}
        self.tok = np.fromiter(
            map(token_id.__getitem__, chain.from_iterable(rep_tokens)),
            dtype=np.int32,
            count=n_pos,
        )
        self.pos_rep = np.repeat(np.arange(n_reps, dtype=np.int32), lengths)
        self.pos_end = np.repeat(np.cumsum(lengths, dtype=np.int32), lengths)

    @classmethod
    def from_labeled(cls, training: Sequence) -> "ReferenceCorpusIndex":
        memo: Dict[str, Tuple[str, ...]] = {}
        token_lists: List[Tuple[str, ...]] = []
        for example in training:
            title = example.title
            tokens = memo.get(title)
            if tokens is None:
                tokens = memo[title] = tokenize_uncached(title)
            token_lists.append(tokens)
        return cls(token_lists, [example.label for example in training])
