"""Reusable corpus index for §5.2 rule induction.

Mining, cleanliness checking and selection all need the same artefacts
over a labeled corpus: tokenized titles, a token -> title inverted index,
and per-type views. :class:`CorpusIndex` builds them once; every stage —
and every repeated ``generate`` over the same corpus — reuses them.

Two structural ideas carry the index:

* **Representatives.** Catalog titles repeat heavily (templated vendor
  feeds), so rows are collapsed to *reps* — distinct token tuples with
  integer row weights. Support counting over reps with weights is exactly
  support counting over rows (a sequence is contained in all copies of a
  title or none), at a fraction of the work.
* **Integer interning + vectorization.** Tokens are interned to dense
  ids, postings and low mining levels (L1/L2/L3) run as numpy array ops,
  and in-order containment falls back to a two-pointer subsequence scan
  over the (short) rep token tuples for the rare higher levels.

:func:`mine_weighted_reps` is the weighted AprioriAll core: given reps +
weights it produces the same frequent set and counts as
``mine_frequent_sequences`` over the expanded rows
(``tests/test_rulegen_parallel.py`` holds it to that).

The vectorized passes pack ``(sequence, rep)`` and ``(sequence, label)``
pairs into single ``int64`` sort keys; numpy wraps silently on overflow,
so every packing site first bounds its largest possible key in Python
integers (:func:`_require_int64`) and raises instead.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.rulegen.seqmine import Sequence_, _generate_candidates
from repro.utils.text import tokenize_cached

_INT64_MAX = 2**63 - 1


def _require_int64(vocab: int, arity: int, radix: int, what: str) -> None:
    """Raise unless every ``code * radix + low`` key fits in ``int64``.

    ``code`` ranges over length-``arity`` sequences of ``vocab`` token
    ids (``code < vocab ** arity``) and ``low < radix``, so the largest
    key is ``vocab ** arity * radix - 1`` — computed here in unbounded
    Python integers, before numpy gets a chance to wrap it.
    """
    largest = vocab**arity * radix - 1
    if largest > _INT64_MAX:
        raise ValueError(
            f"{what}: a vocabulary of {vocab} tokens packs length-{arity} "
            f"keys up to {largest}, past the int64 limit {_INT64_MAX}"
        )


def tokens_contain(tokens: Sequence, candidate: Sequence) -> bool:
    """In-order (not necessarily contiguous) containment.

    Equivalent to ``contains_word_sequence(tokens, candidate)``: the
    greedy leftmost two-pointer match is complete for subsequence
    containment. Works in either token-id or string space.
    """
    it = iter(tokens)
    for token in candidate:
        for seen in it:
            if seen == token:
                break
        else:
            return False
    return True


def _weighted_groups(codes, rids, rep_weights, n, min_count, vocab, arity):
    """Weighted support counting over ``(code, rep)`` observation pairs.

    Dedupes the pairs (a rep supports a code once however many positional
    matches produced it), sums rep weights per code, and keeps codes
    reaching ``min_count``. Returns ``(codes, counts, id_sets)`` as plain
    Python lists, ordered by code. ``codes`` are length-``arity``
    sequences over ``vocab`` token ids, which bounds the packed
    ``codes * n + rid`` key (:func:`_require_int64`).
    """
    _require_int64(vocab, arity, n, "weighted support counting")
    combo = codes * n + rids
    if combo.size == 0:
        return [], [], []
    # Sort + boundary mask dedups the pairs; measurably faster than
    # ``_np.unique`` for these array sizes.
    combo.sort()
    combo = combo[_np.r_[True, combo[1:] != combo[:-1]]]
    ucode = combo // n
    urid = combo % n
    # ``combo`` is sorted, so each code's reps form a contiguous run;
    # group boundaries + reduceat replace a second unique pass, and the
    # integer weight sums stay exact.
    starts = _np.flatnonzero(_np.r_[True, ucode[1:] != ucode[:-1]])
    counts = _np.add.reduceat(rep_weights[urid], starts)
    keep = _np.flatnonzero(counts >= min_count)
    if keep.size == 0:
        return [], [], []
    ends = _np.r_[starts[1:], combo.size]
    id_sets = [
        set(urid[starts[i]:ends[i]].tolist()) for i in keep.tolist()
    ]
    return ucode[starts[keep]].tolist(), counts[keep].tolist(), id_sets


def _mine_levels_vectorized(
    rep_tokens: Sequence[Tuple[int, ...]],
    weights: Sequence[int],
    min_count: int,
    max_length: int,
) -> Tuple[Dict[Sequence_, Tuple[int, Set[int]]], Dict[Sequence_, Set[int]], int]:
    """L1 + L2 + L3 over integer token ids, vectorized.

    Produces exactly what row-wise scans and the AprioriAll
    join-plus-verify do — weighted rep counts and rep-id sets for every
    frequent token, ordered pair, and ordered triple of in-rep positions
    (a rep supports a sequence once however many positional matches it
    has) — but enumeration, dedup, and counting all run as array ops, and
    no Python-side postings are built at all. Direct enumeration is
    complete: any frequent triple consists of L1-frequent tokens, so
    counting every in-rep triple of frequent tokens and keeping those at
    ``min_count`` yields the same set and counts as the candidate join.
    Returns ``(frequent, current_sets, level)`` where ``current_sets``
    holds the deepest mined level to seed the L``level+1``+ join.
    """
    n = len(rep_tokens)
    frequent: Dict[Sequence_, Tuple[int, Set[int]]] = {}
    lengths = _np.fromiter(map(len, rep_tokens), dtype=_np.int64, count=n)
    total = int(lengths.sum())
    if total == 0:
        return frequent, {}, 1
    flat = _np.fromiter(
        chain.from_iterable(rep_tokens), dtype=_np.int64, count=total
    )
    reps = _np.repeat(_np.arange(n, dtype=_np.int64), lengths)
    rep_weights = _np.asarray(weights, dtype=_np.int64)

    # L1.
    n_token_ids = int(flat.max()) + 1
    tids, counts, id_sets = _weighted_groups(
        flat, reps, rep_weights, n, min_count, n_token_ids, 1
    )
    for tid, count, ids in zip(tids, counts, id_sets):
        frequent[(tid,)] = (count, ids)
    if max_length == 1 or not tids:
        return frequent, {}, 1

    # L2: each rep's frequent tokens form a contiguous run in the masked
    # flat array, so shifting by ``d = 1..max_run-1`` under a same-rep
    # mask enumerates every in-rep ordered index pair exactly once.
    # Tokens are remapped to dense ranks in the (sorted) frequent-token
    # alphabet so pair and triple codes stay small.
    vocab = len(tids)
    tid_arr = _np.asarray(tids, dtype=_np.int64)
    is_freq = _np.zeros(n_token_ids, dtype=bool)
    is_freq[tid_arr] = True
    mask = is_freq[flat]
    arr = _np.searchsorted(tid_arr, flat[mask])
    rep = reps[mask]
    if arr.size < 2:
        return frequent, {}, 1
    max_run = int(_np.bincount(rep, minlength=n).max())
    code_chunks = []
    rep_chunks = []
    for d in range(1, max_run):
        same = rep[d:] == rep[:-d]
        if not same.any():
            break
        code_chunks.append(arr[:-d][same] * vocab + arr[d:][same])
        rep_chunks.append(rep[d:][same])
    if not code_chunks:
        return frequent, {}, 1
    pair_codes, pair_counts, pair_sets = _weighted_groups(
        _np.concatenate(code_chunks),
        _np.concatenate(rep_chunks),
        rep_weights,
        n,
        min_count,
        vocab,
        2,
    )
    current: Dict[Sequence_, Set[int]] = {}
    for code, count, ids in zip(pair_codes, pair_counts, pair_sets):
        pair = (tids[code // vocab], tids[code % vocab])
        frequent[pair] = (count, ids)
        current[pair] = ids
    if max_length == 2 or not current:
        return frequent, current, 2

    # L3: direct ordered-triple counting. A triple of positions
    # ``(i, i+d1, i+d)`` with ``0 < d1 < d`` lies in one rep exactly when
    # its endpoints do (rep runs are contiguous), so one same-rep mask per
    # span ``d`` covers every middle offset.
    vocab2 = vocab * vocab
    code_chunks = []
    rep_chunks = []
    for d in range(2, max_run):
        same = rep[d:] == rep[:-d]
        if not same.any():
            break
        ii = _np.flatnonzero(same)
        first = arr[ii] * vocab2
        last = arr[ii + d]
        rep_d = rep[ii]
        for d1 in range(1, d):
            code_chunks.append(first + arr[ii + d1] * vocab + last)
            rep_chunks.append(rep_d)
    if not code_chunks:
        return frequent, {}, 3
    triple_codes, triple_counts, triple_sets = _weighted_groups(
        _np.concatenate(code_chunks),
        _np.concatenate(rep_chunks),
        rep_weights,
        n,
        min_count,
        vocab,
        3,
    )
    current = {}
    for code, count, ids in zip(triple_codes, triple_counts, triple_sets):
        triple = (tids[code // vocab2], tids[code % vocab2 // vocab],
                  tids[code % vocab])
        frequent[triple] = (count, ids)
        current[triple] = ids
    return frequent, current, 3


def mine_weighted_reps(
    rep_tokens: Sequence[Tuple[int, ...]],
    weights: Sequence[int],
    min_count: int,
    max_length: int,
) -> Dict[Sequence_, Tuple[int, Set[int]]]:
    """Weighted AprioriAll over distinct reps of integer token ids.

    Returns ``{sequence: (row_count, rep_id_set)}`` for every sequence of
    length 1..``max_length`` whose weighted support reaches ``min_count``.
    ``row_count`` sums the weights of the containing reps, so the frequent
    set and counts match ``mine_frequent_sequences`` over the expanded rows.

    L1-L3 run by direct vectorized enumeration
    (:func:`_mine_levels_vectorized`); deeper levels use the AprioriAll
    join with rep-set intersection and a two-pointer subsequence
    verification over the rep tokens.
    """
    if not rep_tokens or max_length < 1:
        return {}

    weight_at = weights.__getitem__

    def weigh(ids: Set[int]) -> int:
        return sum(map(weight_at, ids))

    frequent, current, length = _mine_levels_vectorized(
        rep_tokens, weights, min_count, max_length
    )

    # Deeper levels: AprioriAll join + prune, then verify candidates on
    # the reps containing both the prefix and the suffix in order. The
    # two-pointer subsequence scan is ``tokens_contain``, inlined — this
    # loop is hot and the call frames are measurable.
    while current and length < max_length:
        length += 1
        next_level: Dict[Sequence_, Set[int]] = {}
        for candidate in _generate_candidates(set(current), length):
            possible = current[candidate[:-1]] & current[candidate[1:]]
            if weigh(possible) < min_count:
                continue
            ids: Set[int] = set()
            add = ids.add
            for rid in possible:
                it = iter(rep_tokens[rid])
                for token in candidate:
                    for seen_token in it:
                        if seen_token == token:
                            break
                    else:
                        break
                else:
                    add(rid)
            count = weigh(ids)
            if count >= min_count:
                next_level[candidate] = ids
                frequent[candidate] = (count, ids)
        current = next_level
    return frequent


class CorpusIndex:
    """Tokenized rows, reps, and inverted indexes over a labeled corpus.

    Tokens are interned to dense integer ids on the way in
    (``token_ids``/``id_tokens``); every internal structure — positional
    maps, rep postings, mined sequences — lives in id space, where tuple
    keys hash an order of magnitude faster than string tuples;
    :meth:`encode`/:meth:`decode` convert at the boundary.
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
        self.labels: Optional[List[str]] = (
            list(labels) if labels is not None else None
        )

        token_ids: Dict[str, int] = {}
        id_tokens: List[str] = []
        rep_of: Dict[Tuple[str, ...], int] = {}
        rep_itokens: List[Tuple[int, ...]] = []
        row_rep: List[int] = []
        rep_postings: Dict[int, Set[int]] = {}
        # A rep's single shared label, or None when its rows disagree
        # (meaningful only when labels are given).
        rep_label: List[Optional[str]] = []

        for row, tokens in enumerate(token_lists):
            key = tuple(tokens)
            rid = rep_of.get(key)
            if rid is None:
                rid = rep_of[key] = len(rep_itokens)
                # Vocabulary saturates quickly, so interning is a plain
                # C-speed lookup comprehension almost always; the except
                # branch only runs for titles introducing a new token.
                try:
                    itoks = [token_ids[token] for token in key]
                except KeyError:
                    itoks = []
                    for token in key:
                        tid = token_ids.get(token)
                        if tid is None:
                            tid = token_ids[token] = len(id_tokens)
                            id_tokens.append(token)
                        itoks.append(tid)
                rep_itokens.append(tuple(itoks))
                rep_label.append(labels[row] if labels is not None else None)
            elif labels is not None and rep_label[rid] != labels[row]:
                rep_label[rid] = None
            row_rep.append(rid)

        # Labels interned to codes for the token-uniformity index below:
        # -1 marks mixed-label reps, so "uniformly labeled" stays a single
        # integer compare.
        label_ids: Dict[str, int] = {}
        rep_label_codes: List[int] = []
        if labels is not None:
            for label in rep_label:
                if label is None:
                    rep_label_codes.append(-1)
                else:
                    code = label_ids.get(label)
                    if code is None:
                        code = label_ids[label] = len(label_ids)
                    rep_label_codes.append(code)

        # token id -> containing rep ids, plus (labeled corpora only)
        # token id -> the one label code shared by *every* rep containing
        # it, or -2 when they disagree — the cleanliness check's early
        # exit. One flatten + unique in numpy (the unique also dedups
        # repeated tokens within a title) rather than half a million dict
        # probes in the row loop.
        n_reps = len(rep_itokens)
        token_uniform: List[int] = []
        if n_reps:
            lengths = _np.fromiter(
                map(len, rep_itokens), dtype=_np.int64, count=n_reps
            )
            total = int(lengths.sum())
            flat = _np.fromiter(
                chain.from_iterable(rep_itokens),
                dtype=_np.int64,
                count=total,
            )
            rids = _np.repeat(_np.arange(n_reps, dtype=_np.int64), lengths)
            _require_int64(len(id_tokens), 1, n_reps, "rep postings")
            combo = flat * n_reps + rids
            if combo.size:
                combo.sort()
                combo = combo[_np.r_[True, combo[1:] != combo[:-1]]]
            utid = combo // n_reps
            urid = combo % n_reps
            starts = _np.flatnonzero(_np.r_[True, utid[1:] != utid[:-1]])
            ends = _np.r_[starts[1:], utid.size]
            bounds = zip(utid[starts].tolist(), starts.tolist(), ends.tolist())
            for tid, start, end in bounds:
                rep_postings[tid] = set(urid[start:end].tolist())
            if labels is not None and combo.size:
                codes = _np.asarray(rep_label_codes, dtype=_np.int64)[urid]
                mins = _np.minimum.reduceat(codes, starts)
                maxs = _np.maximum.reduceat(codes, starts)
                uniform = _np.full(len(id_tokens), -2, dtype=_np.int64)
                uniform[utid[starts]] = _np.where(mins == maxs, mins, -2)
                token_uniform = uniform.tolist()

        self.token_ids = token_ids
        self.id_tokens = id_tokens
        self.rep_itokens = rep_itokens
        self.row_rep = row_rep
        self.rep_postings = rep_postings
        self.rep_label = rep_label
        self.label_ids = label_ids
        self.rep_label_codes = rep_label_codes
        self.token_uniform = token_uniform
        self.n_reps = n_reps
        self._rows_by_type: Optional[Dict[str, List[int]]] = None
        self._seq_uniform: Optional[Tuple[Dict[int, int], Dict[int, int]]] = None
        self._type_views: Dict[str, "TypeView"] = {}

    @classmethod
    def from_labeled(cls, training: Sequence) -> "CorpusIndex":
        """Index a sequence of ``LabeledTitle``-likes (``.title``/``.label``).

        Catalog titles repeat heavily, so exact-duplicate titles skip
        re-tokenization (and the dedup loop then sees the *same* tuple
        object, making the rep lookup a pointer-fast hash hit).
        """
        memo: Dict[str, Tuple[str, ...]] = {}
        token_lists: List[Tuple[str, ...]] = []
        for example in training:
            title = example.title
            tokens = memo.get(title)
            if tokens is None:
                tokens = memo[title] = tokenize_cached(title)
            token_lists.append(tokens)
        return cls(token_lists, [example.label for example in training])

    def encode(self, sequence: Sequence[str]) -> Optional[Tuple[int, ...]]:
        """Token sequence -> id space; ``None`` if any token is unknown."""
        token_ids = self.token_ids
        out: List[int] = []
        for token in sequence:
            tid = token_ids.get(token)
            if tid is None:
                return None
            out.append(tid)
        return tuple(out)

    def decode(self, sequence: Sequence[int]) -> Tuple[str, ...]:
        """Id sequence -> token strings."""
        id_tokens = self.id_tokens
        return tuple(id_tokens[tid] for tid in sequence)

    @property
    def rows_by_type(self) -> Dict[str, List[int]]:
        """label -> row ids, in row order (requires labels)."""
        if self.labels is None:
            raise ValueError("corpus was indexed without labels")
        if self._rows_by_type is None:
            by_type: Dict[str, List[int]] = {}
            for row, label in enumerate(self.labels):
                rows = by_type.get(label)
                if rows is None:
                    by_type[label] = [row]
                else:
                    rows.append(row)
            self._rows_by_type = by_type
        return self._rows_by_type

    @property
    def types(self) -> List[str]:
        return sorted(self.rows_by_type)

    @property
    def seq_uniform(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Pair/triple code -> the one label code shared by *every* rep
        containing that sequence in order, or -2 when they disagree.

        The sequence-level analogue of ``token_uniform`` (lazy; requires
        labels): codes are ``a * V + b`` and ``(a * V + b) * V + c`` over
        the token-id vocabulary ``V``. A sequence is §7-clean for a type
        exactly when its uniformity code equals that type's label code,
        which turns the cleanliness check for every mined sequence of
        length <= 3 into a dict probe. Built in one global enumeration of
        in-rep ordered pairs and triples — titles are short, so that is
        only a few observations per position.
        """
        if self.labels is None:
            raise ValueError("sequence uniformity needs a labeled corpus")
        if self._seq_uniform is None:
            vocab = len(self.id_tokens)
            rep_itokens = self.rep_itokens
            rep_label_codes = self.rep_label_codes
            n_reps = self.n_reps
            pair_uniform: Dict[int, int] = {}
            triple_uniform: Dict[int, int] = {}
            if n_reps:
                lengths = _np.fromiter(
                    map(len, rep_itokens), dtype=_np.int64, count=n_reps
                )
                total = int(lengths.sum())
                flat = _np.fromiter(
                    chain.from_iterable(rep_itokens),
                    dtype=_np.int64,
                    count=total,
                )
                reps = _np.repeat(
                    _np.arange(n_reps, dtype=_np.int64), lengths
                )
                labels_of = _np.asarray(rep_label_codes, dtype=_np.int64)
                max_run = int(lengths.max())

                # Label codes shifted into [0, span) ride in the low bits
                # of a composite key, so one in-place sort groups each
                # sequence code with its labels in order: uniform exactly
                # when the group's first and last labels agree.
                span = len(self.label_ids) + 2

                def grouped_uniform(codes, obs_labels, arity):
                    _require_int64(vocab, arity, span, "sequence uniformity")
                    comp = codes * span + (obs_labels + 2)
                    comp.sort()
                    code_s = comp // span
                    starts = _np.flatnonzero(
                        _np.r_[True, code_s[1:] != code_s[:-1]]
                    )
                    ends = _np.r_[starts[1:], comp.size]
                    lo = comp[starts] % span
                    hi = comp[ends - 1] % span
                    uni = _np.where(lo == hi, lo - 2, -2)
                    return dict(zip(code_s[starts].tolist(), uni.tolist()))

                code_chunks = []
                label_chunks = []
                for d in range(1, max_run):
                    same = reps[d:] == reps[:-d]
                    if not same.any():
                        break
                    code_chunks.append(
                        flat[:-d][same] * vocab + flat[d:][same]
                    )
                    label_chunks.append(labels_of[reps[d:][same]])
                if code_chunks:
                    pair_uniform = grouped_uniform(
                        _np.concatenate(code_chunks),
                        _np.concatenate(label_chunks),
                        2,
                    )
                code_chunks = []
                label_chunks = []
                for d in range(2, max_run):
                    same = reps[d:] == reps[:-d]
                    if not same.any():
                        break
                    ii = _np.flatnonzero(same)
                    first = flat[ii] * vocab
                    last = flat[ii + d]
                    obs_labels = labels_of[reps[ii]]
                    for d1 in range(1, d):
                        code_chunks.append(
                            (first + flat[ii + d1]) * vocab + last
                        )
                        label_chunks.append(obs_labels)
                if code_chunks:
                    triple_uniform = grouped_uniform(
                        _np.concatenate(code_chunks),
                        _np.concatenate(label_chunks),
                        3,
                    )
            self._seq_uniform = (pair_uniform, triple_uniform)
        return self._seq_uniform

    def contains(self, rid: int, candidate: Sequence[str]) -> bool:
        """Does rep ``rid`` contain the (string) ``candidate`` in order?"""
        encoded = self.encode(candidate)
        if encoded is None:
            return False
        return tokens_contain(self.rep_itokens[rid], encoded)

    def type_view(self, type_name: str) -> "TypeView":
        view = self._type_views.get(type_name)
        if view is None:
            view = self._type_views[type_name] = TypeView(self, type_name)
        return view


class TypeView:
    """One type's view of a :class:`CorpusIndex`: its reps and weights.

    Local rep ids (``lid``) index this type's reps in first-appearance
    order; ``g_reps[lid]`` maps back to the global rep id. ``weights[lid]``
    counts the type's rows for that rep — the weighted-rep coverage
    universe that mining counts and selection optimizes over.
    """

    def __init__(self, index: CorpusIndex, type_name: str):
        self.index = index
        self.type_name = type_name
        type_rows = index.rows_by_type.get(type_name)
        if type_rows is None:
            raise KeyError(f"no rows labeled {type_name!r}")
        row_rep = index.row_rep
        lid_of: Dict[int, int] = {}
        g_reps: List[int] = []
        weights: List[int] = []
        for row in type_rows:
            rid = row_rep[row]
            lid = lid_of.get(rid)
            if lid is None:
                lid_of[rid] = len(g_reps)
                g_reps.append(rid)
                weights.append(1)
            else:
                weights[lid] += 1
        self.g_reps = g_reps
        self.weights = weights
        self.n_rows = len(type_rows)
        self.n_reps = len(g_reps)
        self._pure_reps: Optional[Set[int]] = None

    def mine(
        self, min_count: int, max_length: int
    ) -> Dict[Sequence_, Tuple[int, Set[int]]]:
        """Mine this type's reps: ``{id_sequence: (row_count, lid_set)}``.

        Sequences are token-id tuples (decode at the boundary); the id
        sets may alias the miner's internals and are read-only.
        """
        rep_itokens = self.index.rep_itokens
        return mine_weighted_reps(
            [rep_itokens[rid] for rid in self.g_reps],
            self.weights,
            min_count,
            max_length,
        )

    @property
    def pure_reps(self) -> Set[int]:
        """Global rep ids every one of whose rows is labeled this type."""
        if self._pure_reps is None:
            rep_label = self.index.rep_label
            type_name = self.type_name
            self._pure_reps = {
                rid for rid in self.g_reps if rep_label[rid] == type_name
            }
        return self._pure_reps

    def has_impure_match(self, candidate: Sequence[int]) -> bool:
        """Does any title *not* labeled this type contain ``candidate``?

        The §7 cleanliness check, rep-wise, over the id-space candidate:
        the candidate is clean exactly when every rep containing it is
        purely this type, i.e. when its label-uniformity code equals this
        type's label code. For lengths 1-3 — the bulk of what the miner
        produces — that is one probe of the index's uniformity tables.
        Longer candidates fall back to posting intersection plus an
        in-order verify of the impure remainder.
        """
        index = self.index
        if index.labels is None:
            raise ValueError("cleanliness needs a labeled corpus")
        # A type with no purely-labeled rep can never be uniform;
        # -3 is below every uniformity code.
        own_code = index.label_ids.get(self.type_name, -3)
        size = len(candidate)
        if size == 1:
            uniform = index.token_uniform[candidate[0]]
            return uniform != own_code
        if size <= 3:
            vocab = len(index.id_tokens)
            pair_uniform, triple_uniform = index.seq_uniform
            code = candidate[0] * vocab + candidate[1]
            if size == 2:
                uniform = pair_uniform.get(code)
            else:
                uniform = triple_uniform.get(code * vocab + candidate[2])
            if uniform is None:
                # No rep anywhere contains the sequence: vacuously clean.
                return False
            return uniform != own_code
        g_postings = index.rep_postings
        token_uniform = index.token_uniform
        sets: List[Set[int]] = []
        for tid in candidate:
            posting = g_postings.get(tid)
            if posting is None:
                return False
            if token_uniform[tid] == own_code:
                # Every rep containing this token is purely this type, so
                # no differently-labeled title can contain the candidate.
                return False
            sets.append(posting)
        sets.sort(key=len)
        possible = sets[0].intersection(*sets[1:])
        impure = possible - self.pure_reps
        rep_itokens = index.rep_itokens
        for rid in impure:
            if tokens_contain(rep_itokens[rid], candidate):
                return True
        return False
