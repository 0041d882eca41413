"""Columnar corpus index and sequence miner for §5.2 rule induction.

:class:`CorpusIndex` reduces a labeled corpus to flat ``int32`` columns
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
  densely so packed keys stay small at every length. A level passes on
  only its frequent groups' reps, as a compact CSR.

Positions, reps, token ids and prefixes are ``int32``; only the packed
sort key and the weight sums are ``int64``. numpy wraps silently, so the
index bounds its columns (:func:`_require_int32`) and each level its
largest key (:func:`_require_int64`) in Python integers first, and raises
instead.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as _np

from repro.rulegen.seqmine import exact_min_count
from repro.utils.text import tokenize_uncached

_INT32_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1


def _require_int32(count: int, what: str) -> None:
    """Raise unless ids ``0..count`` fit an ``int32`` column."""
    if count > _INT32_MAX:
        raise ValueError(
            f"{what}: {count} is past the int32 limit {_INT32_MAX}"
        )


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
    code, pos = tok.astype(_np.int64), _np.arange(n_pos, dtype=_np.int32)
    n_codes = vocab
    prefixes = None
    for length in range(1, max_length + 1):
        if not code.size:
            return
        _require_int64(n_codes, n_pos, f"length-{length} sequence keys")
        # Sorted by (code, position), hence by (code, rep, position) and —
        # reps being label-major — by (code, label, rep): the first row of
        # each (code, rep) run is the sequence's leftmost match in the rep.
        code *= n_pos
        code += pos
        code.sort()
        _np.divmod(code, n_pos, out=(code, pos))
        rep = pos_rep[pos]
        leftmost = _boundaries(code, rep)
        code = code[leftmost]
        rep = rep[leftmost]
        pos = pos[leftmost]
        label = rep_label[rep]
        group_lo = _np.flatnonzero(_boundaries(code, label))
        group_size = _np.diff(group_lo, append=rep.size)
        group_code = code[group_lo]
        group_label = label[group_lo]
        # Observation-sized columns go as soon as they are read: the peak
        # is a few of them at the largest level.
        del code, label, leftmost
        group_count = _np.add.reduceat(rep_weight[rep], group_lo)
        frequent = group_count >= min_counts[group_label]
        node_mask = _boundaries(group_code)
        node_lo = _np.flatnonzero(node_mask)
        _require_int32(node_lo.size, f"length-{length} sequences")
        node_of_group = _np.cumsum(node_mask, dtype=_np.int32) - 1
        total = _np.add.reduceat(group_count, node_lo)
        alive = _np.logical_or.reduceat(frequent, node_lo)
        rank = _np.cumsum(alive, dtype=_np.int32) - 1

        alive_code = group_code[node_lo][alive]
        if prefixes is None:
            prefixes = alive_code.astype(_np.int32)[:, None]
        else:
            parent, token = _np.divmod(alive_code, vocab)
            prefixes = _np.column_stack(
                (prefixes[parent], token.astype(_np.int32))
            )
        hi = _np.cumsum(group_size[frequent])
        reps = rep[_np.repeat(frequent, group_size)]
        del rep
        yield _Level(
            prefixes[rank[node_of_group[frequent]]],
            group_label[frequent],
            group_count[frequent],
            (group_count == total[node_of_group])[frequent],
            hi - group_size[frequent],
            hi,
            reps,
        )
        del reps
        if length == max_length or not alive.any():
            return

        # Extend every observation of a surviving sequence — other labels'
        # too: the next level's corpus-wide supports need them — by each
        # later position of its rep. The next level sorts its keys, so the
        # extensions are built in one pass, in any order.
        later = pos_end[pos]
        later -= pos
        later -= 1
        keep = _np.repeat(alive[node_of_group], group_size)
        keep &= later > 0
        node = _np.repeat(rank[node_of_group], group_size)[keep]
        pos = pos[keep]
        later = later[keep]
        del keep
        if not later.size:
            return
        # Observation i's run is pos[i] + 1 .. pos[i] + later[i]: a running
        # sum of unit steps whose first step jumps from the previous run's
        # last position.
        step = _np.ones(int(later.sum()), dtype=_np.int32)
        step[0] = pos[0] + 1
        step[_np.cumsum(later[:-1])] = pos[1:] + 1 - (pos[:-1] + later[:-1])
        pos = _np.cumsum(step, out=step)
        code = _np.repeat(node.astype(_np.int64), later)
        del node, later
        code *= vocab
        code += tok[pos]
        n_codes = len(alive_code) * vocab


class CandidateTable(NamedTuple):
    """Every type's mined candidates as columns, in the reference's order.

    Rows are sorted by label code, then by token *strings* (the order
    ``sorted()`` gives the reference's per-type candidate tuples), so
    type ``c``'s candidates are rows ``type_ptr[c]:type_ptr[c + 1]``.
    Row ``i`` is the sequence ``tokens[i]`` (``-1``-padded token ids),
    contained in ``count[i]`` rows of its label — exactly the rows of
    reps ``reps[lo[i]:hi[i]]``, ascending — and ``clean[i]`` when no row
    of any other label contains it. ``reps`` holds those slices and
    nothing else.
    """

    tokens: "_np.ndarray"
    count: "_np.ndarray"
    clean: "_np.ndarray"
    lo: "_np.ndarray"
    hi: "_np.ndarray"
    reps: "_np.ndarray"
    type_ptr: "_np.ndarray"


class CorpusIndex:
    """A labeled corpus as weighted representatives in flat columns.

    ``label_names`` is sorted and indexed by label code; ``label_rows``
    counts each label's rows. Reps are label-major (``rep_label``
    ascending) and ``rep_weight`` counts a rep's rows. ``id_tokens`` is
    the sorted vocabulary; the flat position columns are the miner's
    input (:func:`mine_levels`) and the only copy of the reps' tokens.
    ``labeled`` says whether labels were given.
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
        lengths = _np.fromiter(
            map(len, rep_tokens), dtype=_np.int64, count=n_reps
        )
        n_pos = int(lengths.sum())
        _require_int32(n_pos, "token positions")
        _require_int32(n_reps, "representatives")
        label_code = {name: code for code, name in enumerate(self.label_names)}
        self.rep_label = _np.fromiter(
            (label_code[rep[1]] for rep in reps), dtype=_np.int32, count=n_reps
        )
        self.rep_weight = _np.fromiter(
            map(weights.__getitem__, reps), dtype=_np.int64, count=n_reps
        )
        self.label_rows = _np.bincount(
            self.rep_label, weights=self.rep_weight,
            minlength=len(self.label_names),
        ).astype(_np.int64)

        token_id = {token: tid for tid, token in enumerate(self.id_tokens)}
        self.tok = _np.fromiter(
            map(token_id.__getitem__, chain.from_iterable(rep_tokens)),
            dtype=_np.int32,
            count=n_pos,
        )
        self.pos_rep = _np.repeat(_np.arange(n_reps, dtype=_np.int32), lengths)
        self.pos_end = _np.repeat(_np.cumsum(lengths, dtype=_np.int32), lengths)

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
        if not 1 <= min_length <= max_length:
            raise ValueError(
                f"need 1 <= min_length <= max_length, got {min_length}..{max_length}"
            )
        if not self.labeled:
            raise ValueError("mining per type needs a labeled corpus")
        min_counts = _np.array(
            [exact_min_count(min_support, rows)
             for rows in self.label_rows.tolist()],
            dtype=_np.int64,
        )
        levels = list(islice(mine_levels(
            self.tok, self.pos_rep, self.pos_end, self.rep_label,
            self.rep_weight, min_counts, len(self.id_tokens), max_length,
        ), min_length - 1, None))
        n_labels = len(self.label_names)
        if not levels:
            empty = _np.zeros(0, dtype=_np.int64)
            return CandidateTable(
                _np.zeros((0, max_length), dtype=_np.int32), empty,
                empty.astype(bool), empty, empty, empty.astype(_np.int32),
                _np.zeros(n_labels + 1, dtype=_np.int64),
            )
        tokens, label, count, clean, lo, hi, reps = zip(*levels)
        # Each column's per-level pieces go once it is concatenated.
        del levels
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
