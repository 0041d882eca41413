"""Columnar corpus index and sequence miner for §5.2 rule induction.

:class:`CorpusIndex` reduces a labeled corpus to flat ``int32`` columns
once; :meth:`CorpusIndex.mine` then produces every type's frequent
sequences — with supports, cleanliness verdicts and covering titles — as
one :class:`CandidateTable` of arrays. No per-candidate Python object
exists until the pipeline materializes the rules it selected.

Three structural ideas carry it:

* **Representatives.** Catalog titles repeat heavily (templated vendor
  feeds), so rows collapse to *reps* — distinct ``(token sequence, label)``
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

Positions, reps, token ids, prefixes, weight sums (counts) and coverage
slices (``lo``/``hi``) are ``int32``; only the packed sort key is
``int64``. numpy wraps silently, so the index bounds its columns, each
level its counts and slices, and the table its concatenated slices
(:func:`_require_int32`), and each level its largest key
(:func:`_require_int64`), in Python integers first, and raises instead.
A level's working set is freed before the next level's sort, and the
table is assembled column by column: the peak is the largest level's
observation columns beside the levels already yielded.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import chain, count, islice
from operator import attrgetter
from typing import (
    Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence,
    Tuple,
)

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


def _numbering() -> Dict[Hashable, int]:
    """A dict that numbers each key the first time it is read: 0, 1, ..."""
    return defaultdict(count().__next__)


def _ranks(values: List[str]) -> "_np.ndarray":
    """``rank[code]``: the place of ``values[code]`` in ``sorted(values)``."""
    rank = _np.empty(len(values), dtype=_np.int32)
    rank[sorted(range(len(values)), key=values.__getitem__)] = _np.arange(
        len(values), dtype=_np.int32
    )
    return rank


def _drain(pieces: List["_np.ndarray"]) -> "_np.ndarray":
    """``np.concatenate(pieces)``, emptying ``pieces``: each goes once it
    is copied."""
    out = _np.empty(sum(map(len, pieces)), dtype=pieces[0].dtype)
    at = 0
    while pieces:
        piece = pieces.pop(0)
        out[at:at + piece.size] = piece
        at += piece.size
    return out


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
    # Every count is a sum of weights: bounding their total bounds them all,
    # so the sums run in int32.
    _require_int32(int(rep_weight.sum()), "count")
    rep_weight = rep_weight.astype(_np.int32)
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
        group_size = _np.diff(group_lo, append=rep.size).astype(_np.int32)
        group_code = code[group_lo]
        group_label = label[group_lo]
        # Observation-sized columns go as soon as they are read: the peak
        # is a few of them at the largest level.
        del code, label, leftmost
        group_count = _np.add.reduceat(rep_weight[rep], group_lo, dtype=_np.int32)
        del group_lo
        frequent = group_count >= min_counts[group_label]
        node_mask = _boundaries(group_code)
        node_lo = _np.flatnonzero(node_mask)
        _require_int32(node_lo.size, f"length-{length} sequences")
        node_of_group = _np.cumsum(node_mask, dtype=_np.int32) - 1
        del node_mask
        total = _np.add.reduceat(group_count, node_lo, dtype=_np.int32)
        alive = _np.logical_or.reduceat(frequent, node_lo)
        rank = _np.cumsum(alive, dtype=_np.int32) - 1

        alive_code = group_code[node_lo][alive]
        del group_code, node_lo
        if prefixes is None:
            prefixes = alive_code.astype(_np.int32)[:, None]
        else:
            parent, token = _np.divmod(alive_code, vocab)
            prefixes = _np.column_stack(
                (prefixes[parent], token.astype(_np.int32))
            )
            del parent, token
        n_codes = alive_code.size * vocab
        del alive_code
        size = group_size[frequent]
        _require_int32(int(size.sum(dtype=_np.int64)), f"length-{length} lo/hi")
        hi = _np.cumsum(size, dtype=_np.int32)
        yield _Level(
            prefixes[rank[node_of_group[frequent]]],
            group_label[frequent],
            group_count[frequent],
            (group_count == total[node_of_group])[frequent],
            hi - size,
            hi,
            rep[_np.repeat(frequent, group_size)],
        )
        del group_label, group_count, total, frequent, size, hi, rep
        if length == max_length or not alive.any():
            return

        # Extend every observation of a surviving sequence — other labels'
        # too: the next level's corpus-wide supports need them — by each
        # later position of its rep. The next level sorts its keys, so the
        # extensions are built in one pass, in any order. Nothing of this
        # level outlives the extension: the next sort is the peak.
        later = pos_end[pos]
        later -= pos
        later -= 1
        keep = _np.repeat(alive[node_of_group], group_size)
        keep &= later > 0
        node = _np.repeat(rank[node_of_group], group_size)[keep]
        del alive, rank, node_of_group, group_size
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
        del step
        code = _np.repeat(node.astype(_np.int64), later)
        del node, later
        code *= vocab
        code += tok[pos]


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
        self._build(list(map(tuple, token_lists)), tuple, labels)

    @classmethod
    def from_labeled(cls, training: Sequence) -> "CorpusIndex":
        """Index a sequence of ``LabeledTitle``-likes (``.title``/``.label``).

        Every distinct title is tokenized once, by the uncached tokenizer,
        straight into codes: the process-wide text caches stay the served
        path's.
        """
        index = cls.__new__(cls)
        index._build(
            list(map(attrgetter("title"), training)),
            tokenize_uncached,
            list(map(attrgetter("label"), training)),
        )
        return index

    def _build(
        self,
        keys: List[Hashable],
        tokens_of: Callable[[Hashable], Tuple[str, ...]],
        labels: Optional[List[str]],
    ) -> None:
        """The one construction: row ``i`` holds ``tokens_of(keys[i])``.

        Each distinct key is tokenized once; each distinct token sequence
        (titles may tokenize alike) gets a sequence id and its first-seen
        token codes in one flat ``array('i')``. Reps are the distinct
        ``(label, sequence)`` pairs, found by numpy; sorted ranks replace
        first-seen codes with one gather per column.
        """
        self.n_rows = n_rows = len(keys)
        self.labeled = labels is not None
        key_of = _numbering()
        row_key = array("i", map(key_of.__getitem__, keys))
        seq_of = _numbering()
        key_seq = array("i", map(seq_of.__getitem__, map(tokens_of, key_of)))
        del key_of
        code_of = _numbering()
        flat = array("i", map(code_of.__getitem__, chain.from_iterable(seq_of)))
        seq_length = _np.fromiter(
            map(len, seq_of), dtype=_np.int64, count=len(seq_of)
        )
        del seq_of
        row_seq = _np.frombuffer(key_seq, dtype=_np.int32)[
            _np.frombuffer(row_key, dtype=_np.int32)
        ]
        del row_key, key_seq
        if labels is None:
            names = [""] if n_rows else []
            row_label = _np.zeros(n_rows, dtype=_np.int32)
        else:
            label_of = _numbering()
            row_label = _np.frombuffer(
                array("i", map(label_of.__getitem__, labels)), dtype=_np.int32
            )
            names = list(label_of)
        self.label_names: List[str] = sorted(names)
        row_label = _ranks(names)[row_label]
        vocabulary = list(code_of)
        del code_of
        self.id_tokens: List[str] = sorted(vocabulary)

        # A rep is a distinct (label, sequence) pair; reps are label-major
        # and in first-appearance order within a label.
        n_seqs = max(seq_length.size, 1)
        pair = row_label.astype(_np.int64)
        pair *= n_seqs
        pair += row_seq
        pair, first, weight = _np.unique(
            pair, return_index=True, return_counts=True
        )
        rep_label, rep_seq = _np.divmod(pair, n_seqs)
        order = _np.lexsort((first, rep_label))
        rep_seq = rep_seq[order]
        lengths = seq_length[rep_seq]
        n_reps = rep_seq.size
        n_pos = int(lengths.sum())
        _require_int32(n_pos, "token positions")
        _require_int32(n_reps, "representatives")
        self.rep_label = rep_label[order].astype(_np.int32)
        self.rep_weight = weight[order]
        self.label_rows = _np.bincount(row_label, minlength=len(names))

        seq_end = _np.cumsum(seq_length)
        rep_end = _np.cumsum(lengths)
        take = _np.repeat(seq_end[rep_seq] - rep_end, lengths)
        take += _np.arange(n_pos)
        self.tok = _ranks(vocabulary)[_np.frombuffer(flat, dtype=_np.int32)[take]]
        self.pos_rep = _np.repeat(_np.arange(n_reps, dtype=_np.int32), lengths)
        self.pos_end = _np.repeat(rep_end.astype(_np.int32), lengths)

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
            empty = _np.zeros(0, dtype=_np.int32)
            return CandidateTable(
                _np.zeros((0, max_length), dtype=_np.int32), empty,
                empty.astype(bool), empty, empty, empty,
                _np.zeros(n_labels + 1, dtype=_np.int64),
            )
        # Column by column, each level's piece goes once it is copied: the
        # table never sits beside a second copy of itself.
        tokens, label, count, clean, lo, hi, reps = map(list, zip(*levels))
        del levels
        # Each level's slices index its own ``reps``; shift them into the
        # concatenation.
        offsets = _np.cumsum([0] + [level_reps.size for level_reps in reps])
        _require_int32(int(offsets[-1]), "lo/hi")
        for level, shift in enumerate(offsets[:-1].tolist()):
            lo[level] += shift
            hi[level] += shift
        label = _drain(label)
        padded = _np.full((label.size, max_length), -1, dtype=_np.int32)
        at = 0
        while tokens:
            level_tokens = tokens.pop(0)
            padded[at:at + len(level_tokens), :level_tokens.shape[1]] = level_tokens
            at += len(level_tokens)
        del level_tokens
        order = _np.lexsort((*padded.T[::-1], label))
        for column in padded.T:
            column[:] = column[order]
        type_ptr = _np.searchsorted(label[order], _np.arange(n_labels + 1))
        del label
        return CandidateTable(
            padded,
            _drain(count)[order],
            _drain(clean)[order],
            _drain(lo)[order],
            _drain(hi)[order],
            _drain(reps),
            type_ptr,
        )
