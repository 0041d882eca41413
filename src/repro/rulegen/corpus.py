"""Columnar corpus index and sequence miner for §5.2 rule induction.

:class:`CorpusIndex` reduces a labeled corpus to flat ``int64`` arrays
once; :meth:`CorpusIndex.mine` then produces every type's frequent
sequences — with supports, cleanliness verdicts and covering titles — as
one :class:`CandidateTable` of arrays. No per-candidate Python object
exists until the pipeline materializes the rules it selected.

Three structural ideas carry it:

* **Representatives.** Catalog titles repeat heavily (templated vendor
  feeds), so rows collapse to *reps* — distinct ``(token tuple, label)``
  pairs with integer row weights, stored label-major so each type's reps
  are one contiguous id range. A sequence is contained in all copies of
  a title or none, so weighted rep counting is exactly row counting.
* **Sorted vocabulary.** Token ids are ranks in the sorted vocabulary,
  so comparing ids compares strings and the reference's string-sorted
  candidate order is a ``lexsort`` over id columns.
* **One level loop for all types.** Level ``k`` extends every surviving
  level ``k-1`` observation ``(sequence, rep, leftmost end position)`` by
  each later position of its rep; one sort of packed ``(code, position)``
  keys groups the observations by sequence, then label, then rep. Per
  ``(sequence, label)`` group the weight sum is that type's support; per
  sequence the sum over all labels is its corpus-wide support, and the
  sequence is §7-clean for a type exactly when the two are equal (no
  differently-labeled title contains it). A sequence survives to be
  extended while any type finds it frequent, and survivors are re-ranked
  densely so packed keys stay small at every length.

numpy wraps ``int64`` silently, so each level bounds its largest key in
Python integers first (:func:`_require_int64`) and raises instead.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as _np

from repro.rulegen.seqmine import exact_min_count
from repro.utils.text import tokenize_uncached

_INT64_MAX = 2**63 - 1


def _require_int64(n_codes: int, radix: int, what: str) -> None:
    """Raise unless every ``code * radix + low`` key fits in ``int64``.

    ``code < n_codes`` and ``low < radix``, so the largest key is
    ``n_codes * radix - 1`` — computed here in unbounded Python integers,
    before numpy gets a chance to wrap it.
    """
    largest = n_codes * radix - 1
    if largest > _INT64_MAX:
        raise ValueError(
            f"{what}: {n_codes} sequence codes over {radix} positions pack "
            f"keys up to {largest}, past the int64 limit {_INT64_MAX}"
        )


def _boundaries(*columns) -> "_np.ndarray":
    """Mask of the rows where any of the (sorted) ``columns`` changes."""
    mask = _np.ones(columns[0].size, dtype=bool)
    mask[1:] = columns[0][1:] != columns[0][:-1]
    for column in columns[1:]:
        mask[1:] |= column[1:] != column[:-1]
    return mask


class _Level(NamedTuple):
    """The frequent ``(sequence, label)`` groups of one sequence length."""

    tokens: "_np.ndarray"  # (n, length) token ids
    label: "_np.ndarray"  # label code
    count: "_np.ndarray"  # rows of that label containing the sequence
    clean: "_np.ndarray"  # no row of another label contains it
    lo: "_np.ndarray"  # the containing reps of that label are
    hi: "_np.ndarray"  # ``reps[lo:hi]``
    reps: "_np.ndarray"


def mine_levels(
    tok, pos_rep, pos_end, rep_label, rep_weight, min_counts, vocab, max_length
) -> Iterator[_Level]:
    """The level loop: yield lengths 1..``max_length`` until none survive.

    ``tok`` / ``pos_rep`` / ``pos_end`` give each flat position's token
    id (``< vocab``), rep id and its rep's exclusive end position; reps
    are stored contiguously and label-major (``rep_label`` ascending).
    A ``(sequence, label)`` group is frequent at ``min_counts[label]``
    weighted reps.
    """
    n_pos = tok.size
    code, pos = tok, _np.arange(n_pos)
    n_codes = vocab
    prefixes = None
    for length in range(1, max_length + 1):
        if not code.size:
            return
        _require_int64(n_codes, n_pos, f"length-{length} sequence keys")
        # Sorted by (code, position), hence by (code, rep, position) and —
        # reps being label-major — by (code, label, rep): the first row of
        # each (code, rep) run is the sequence's leftmost match in the rep.
        key = code * n_pos + pos
        key.sort()
        code = key // n_pos
        pos = key - code * n_pos
        rep = pos_rep[pos]
        leftmost = _boundaries(code, rep)
        code, rep, pos = code[leftmost], rep[leftmost], pos[leftmost]
        label = rep_label[rep]
        group_mask = _boundaries(code, label)
        group_lo = _np.flatnonzero(group_mask)
        group_code = code[group_lo]
        group_label = label[group_lo]
        group_count = _np.add.reduceat(rep_weight[rep], group_lo)
        frequent = group_count >= min_counts[group_label]
        node_mask = _boundaries(group_code)
        node_lo = _np.flatnonzero(node_mask)
        node_of_group = _np.cumsum(node_mask) - 1
        total = _np.add.reduceat(group_count, node_lo)
        alive = _np.logical_or.reduceat(frequent, node_lo)
        rank = _np.cumsum(alive) - 1

        alive_code = group_code[node_lo][alive]
        if prefixes is None:
            prefixes = alive_code[:, None]
        else:
            prefixes = _np.column_stack(
                (prefixes[alive_code // vocab], alive_code % vocab)
            )
        group_hi = _np.append(group_lo[1:], code.size)
        yield _Level(
            prefixes[rank[node_of_group[frequent]]],
            group_label[frequent],
            group_count[frequent],
            (group_count == total[node_of_group])[frequent],
            group_lo[frequent],
            group_hi[frequent],
            rep,
        )
        if length == max_length or not alive.any():
            return

        # Extend every observation of a surviving sequence — other labels'
        # too: the next level's corpus-wide supports need them — by each
        # later position of its rep.
        node = node_of_group[_np.cumsum(group_mask) - 1]
        keep = alive[node]
        node, pos = rank[node[keep]], pos[keep]
        end = pos_end[pos]
        codes, positions = [], []
        while pos.size:
            pos = pos + 1
            inside = pos < end
            node, pos, end = node[inside], pos[inside], end[inside]
            codes.append(node * vocab + tok[pos])
            positions.append(pos)
        code, pos = _np.concatenate(codes), _np.concatenate(positions)
        n_codes = len(alive_code) * vocab


class CandidateTable(NamedTuple):
    """Every type's mined candidates as columns, in the reference's order.

    Rows are sorted by label code, then by token *strings* (the order
    ``sorted()`` gives the reference's per-type candidate tuples), so
    type ``c``'s candidates are rows ``type_ptr[c]:type_ptr[c + 1]``.
    Row ``i`` is the sequence ``tokens[i]`` (``-1``-padded token ids),
    contained in ``count[i]`` rows of its label — exactly the rows of
    reps ``reps[lo[i]:hi[i]]`` — and ``clean[i]`` when no row of any
    other label contains it.
    """

    tokens: "_np.ndarray"
    count: "_np.ndarray"
    clean: "_np.ndarray"
    lo: "_np.ndarray"
    hi: "_np.ndarray"
    reps: "_np.ndarray"
    type_ptr: "_np.ndarray"


class CorpusIndex:
    """A labeled corpus as weighted representatives in flat arrays.

    ``label_names`` is sorted and indexed by label code; ``label_rows``
    counts each label's rows. Reps are label-major (``rep_label``
    ascending), ``rep_weight`` counts a rep's rows and ``rep_tokens``
    keeps its token strings. ``id_tokens`` is the sorted vocabulary; the flat
    position arrays are the miner's input (:func:`mine_levels`).
    """

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
        self.labels = labels
        # Insertion-ordered, so the stable sort keeps first-appearance
        # order within a label.
        weights = Counter(
            zip(map(tuple, token_lists), labels or [""] * self.n_rows)
        )
        reps = sorted(weights, key=itemgetter(1))
        self.rep_tokens: List[Tuple[str, ...]] = [rep[0] for rep in reps]
        self.label_names: List[str] = sorted({rep[1] for rep in reps})
        self.id_tokens: List[str] = sorted(
            set(chain.from_iterable(self.rep_tokens))
        )
        n_reps = len(reps)
        label_code = {name: code for code, name in enumerate(self.label_names)}
        self.rep_label = _np.fromiter(
            (label_code[rep[1]] for rep in reps), dtype=_np.int64, count=n_reps
        )
        self.rep_weight = _np.fromiter(
            map(weights.__getitem__, reps), dtype=_np.int64, count=n_reps
        )
        self.label_rows = _np.bincount(
            self.rep_label, weights=self.rep_weight,
            minlength=len(self.label_names),
        ).astype(_np.int64)

        lengths = _np.fromiter(
            map(len, self.rep_tokens), dtype=_np.int64, count=n_reps
        )
        token_id = {token: tid for tid, token in enumerate(self.id_tokens)}
        self.tok = _np.fromiter(
            map(token_id.__getitem__, chain.from_iterable(self.rep_tokens)),
            dtype=_np.int64,
            count=int(lengths.sum()),
        )
        self.pos_rep = _np.repeat(_np.arange(n_reps), lengths)
        self.pos_end = _np.repeat(_np.cumsum(lengths), lengths)

    @classmethod
    def from_labeled(cls, training: Sequence) -> "CorpusIndex":
        """Index a sequence of ``LabeledTitle``-likes (``.title``/``.label``).

        Every distinct title is tokenized once, by the uncached tokenizer:
        the memo here already absorbs the repeats, and the process-wide
        text caches stay the served path's.
        """
        memo: Dict[str, Tuple[str, ...]] = {}
        token_lists: List[Tuple[str, ...]] = []
        for example in training:
            title = example.title
            tokens = memo.get(title)
            if tokens is None:
                tokens = memo[title] = tokenize_uncached(title)
            token_lists.append(tokens)
        return cls(token_lists, [example.label for example in training])

    def decode(self, token_ids: Sequence[int]) -> Tuple[str, ...]:
        """A ``-1``-padded row of token ids -> its token strings."""
        id_tokens = self.id_tokens
        return tuple(id_tokens[tid] for tid in token_ids if tid >= 0)

    def mine(
        self, min_support: float, min_length: int, max_length: int
    ) -> CandidateTable:
        """All types' frequent sequences of ``min_length``..``max_length``.

        A sequence is frequent for a type at
        ``exact_min_count(min_support, rows of that type)`` rows.
        """
        if self.labels is None:
            raise ValueError("mining per type needs a labeled corpus")
        min_counts = _np.array(
            [exact_min_count(min_support, rows)
             for rows in self.label_rows.tolist()],
            dtype=_np.int64,
        )
        levels = list(mine_levels(
            self.tok, self.pos_rep, self.pos_end, self.rep_label,
            self.rep_weight, min_counts, len(self.id_tokens), max_length,
        ))[min_length - 1:]
        n_labels = len(self.label_names)
        if not levels:
            empty = _np.zeros(0, dtype=_np.int64)
            return CandidateTable(
                empty.reshape(0, max_length), empty, empty.astype(bool),
                empty, empty, empty, _np.zeros(n_labels + 1, dtype=_np.int64),
            )
        tokens, label, count, clean, lo, hi, reps = zip(*levels)
        tokens = _np.concatenate([
            _np.pad(
                level_tokens,
                ((0, 0), (0, max_length - level_tokens.shape[1])),
                constant_values=-1,
            )
            for level_tokens in tokens
        ])
        label = _np.concatenate(label)
        # Each level's slices index its own ``reps``; shift them into the
        # concatenation.
        offsets = _np.cumsum([0] + [level_reps.size for level_reps in reps])
        shift = _np.repeat(offsets[:-1], [level_lo.size for level_lo in lo])
        order = _np.lexsort((*tokens.T[::-1], label))
        return CandidateTable(
            tokens[order],
            _np.concatenate(count)[order],
            _np.concatenate(clean)[order],
            (_np.concatenate(lo) + shift)[order],
            (_np.concatenate(hi) + shift)[order],
            _np.concatenate(reps),
            _np.searchsorted(label[order], _np.arange(n_labels + 1)),
        )
