"""Paged KV cache: a vLLM-style block-pool allocator with prefix sharing.

A dense cache would preallocate ``slots x max_len`` positions per layer,
so memory would scale with the *worst case* even when every live
request is short, and identical prompt prefixes (a shared system
prompt, few-shot headers) would be recomputed and stored once per slot.
This module is the serving-literature answer (paged attention + KV
reuse, per the training-to-inference survey in PAPERS.md):

- **Page pool** — K/V storage is carved into fixed-size *pages* of
  ``page_size`` token positions, held in one
  ``(layers, num_pages, H, page_size, head_dim)`` buffer pair.  A page
  id is valid across every layer, so allocation granularity is "one
  page of positions for the whole model".
- **Free list + refcounts** — pages are handed out from a free list and
  reference-counted; a page returns to the pool when its last holder
  (a slot's block table or the prefix cache) releases it.
- **Block tables** — each slot maps logical positions to pages through
  a per-slot table: position ``p`` lives in ``table[p // page_size]``
  at row ``p % page_size``.  Short sequences hold few pages; nothing
  scales with ``max_len`` until a sequence actually grows.
- **Copy-on-write** — :meth:`PagedKVCache.fork_slot` shares every page
  between parent and child; the first write to a shared page copies it
  (all layers) so divergent continuations never corrupt each other.
- **Prefix cache** — full pages of finished prompt prefills are
  published under their token-prefix key; a later prompt with the same
  prefix re-uses those pages outright and skips the covered positions
  at prefill.  Under memory pressure, unreferenced cached pages are
  evicted LRU back into the free list.

Every model step is a **span step** (:class:`SpanBatch`): each slot
feeds a *span* of consecutive positions — one row for a decoding slot,
a chunk of its prompt for a prefilling one, ``k + 1`` rows for a
speculative verify.  The step's rows are written into the pool, then
each span reads its slot's history through **one** gather into the
contiguous ``(H, t, head_dim)`` layout the attention step expects — one
gather per span, not per row — and its rows attend causally over it
under the ragged mask of :func:`~repro.infer.kv_cache.ragged_key_mask`.
"""

from __future__ import annotations

import numpy as np

from .kv_cache import kv_value_dtype, ragged_key_mask


class PagePoolExhausted(RuntimeError):
    """No free page and nothing evictable: every page is actively held.

    The engine avoids this by checking availability before admitting or
    stepping (queueing / preempting instead); seeing it raised means the
    caller wrote past what :meth:`PagedKVCache.span_page_shortfall`
    reported, or sized the pool below one maximum-length sequence.
    """


class PrefixCache:
    """Token-prefix -> page index for sharing prompt prefills across slots.

    One entry per *full* page of a registered prompt, keyed by the
    tuple of every token up to and including that page — chained
    keying, so a lookup hit guarantees the whole covered prefix
    matches, not just the page's own slice.  Entries hold a pool
    reference (refcount +1) to keep their page alive after the
    registering slot retires; :meth:`evict_one` drops the least
    recently used entry whose page no live slot shares.

    Hit/miss/eviction totals are plain ints kept here and nowhere else:
    :meth:`PagedKVCache.try_admit` counts hits and misses, and the
    engine's ``prefix_cache.*`` metrics read these totals.
    """

    def __init__(self, cache: "PagedKVCache"):
        self._cache = cache
        self._pages: dict[tuple, int] = {}    # prefix key -> page id
        self._stamp: dict[tuple, int] = {}    # prefix key -> LRU tick
        self._tick = 0                        # logical clock, RNG-free
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.hit_tokens = 0

    def __len__(self) -> int:
        return len(self._pages)

    def _touch(self, key: tuple) -> None:
        self._tick += 1
        self._stamp[key] = self._tick

    def match(self, tokens) -> list[int]:
        """Longest chain of cached pages covering a prefix of ``tokens``.

        Capped at ``len(tokens) - 1`` positions so at least one token is
        always left to feed (the model must produce logits for the last
        prompt position before anything can be sampled).  A lookup only:
        it counts nothing and stamps no LRU tick.
        """
        size = self._cache.page_size
        pages: list[int] = []
        for n_pages in range(1, (len(tokens) - 1) // size + 1):
            page = self._pages.get(tuple(tokens[: n_pages * size]))
            if page is None:
                break
            pages.append(page)
        return pages

    def insert(self, tokens, block_table: list[int]) -> int:
        """Publish every full page of ``tokens`` held in ``block_table``.

        Idempotent: prefixes already cached (including pages this very
        slot borrowed on its own admission) are left untouched, so two
        slots registering the same prompt share one chain.  Returns the
        number of newly published pages.
        """
        size = self._cache.page_size
        published = 0
        for n_pages in range(1, len(tokens) // size + 1):
            key = tuple(tokens[: n_pages * size])
            if key in self._pages:
                self._touch(key)
                continue
            page = block_table[n_pages - 1]
            self._pages[key] = page
            self._cache.refcounts[page] += 1
            self._touch(key)
            published += 1
        return published

    @property
    def evictable_pages(self) -> int:
        """Cached pages no live slot shares (refcount held by us alone)."""
        refs = self._cache.refcounts
        return sum(refs[page] == 1 for page in self._pages.values())

    def evict_one(self) -> int:
        """Drop the LRU unshared entry, freeing its page; returns the page.

        Raises :class:`PagePoolExhausted` when every cached page is
        still shared by a live slot (nothing can be reclaimed).
        """
        refs = self._cache.refcounts
        victim = None
        for key in sorted(self._pages, key=self._stamp.__getitem__):
            if refs[self._pages[key]] == 1:
                victim = key
                break
        if victim is None:
            raise PagePoolExhausted(
                "prefix cache holds no evictable page: every page is "
                "shared by a live slot")
        page = self._pages.pop(victim)
        del self._stamp[victim]
        self._cache._release(page)
        self.evictions += 1
        return page

    def stats(self) -> dict:
        """JSON-ready counters for ``engine.stats()`` / ``/v1/stats``."""
        return {
            "entries": len(self._pages),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_tokens": self.hit_tokens,
        }


class PagedLayerKV:
    """One layer's view of a :class:`SpanBatch`; the ``state`` handed to
    :meth:`MultiHeadSelfAttention.step`."""

    __slots__ = ("span", "_layer")

    def __init__(self, span: "SpanBatch", layer: int):
        self.span = span
        self._layer = layer

    def append(self, k: np.ndarray, v: np.ndarray):
        """Write the step's ``(n, H, head_dim)`` rows, then read history.

        Every row's key/value lands in the pool *before* anything is
        read, so a row sees the rows before it in its own span.  Returns
        ``(keys, values, mask)``: keys/values are ``(S, H, t, head_dim)``
        ndarrays holding one gathered history per span — the one-row
        spans first, then the longer ones, as laid out by
        :attr:`SpanBatch.single_rows` and :attr:`SpanBatch.span_rows` —
        and ``mask`` is the additive ``(n, t)`` row mask (``None`` when
        every row sits at the same length).
        """
        span = self.span
        cache = span.cache
        kb = cache._k[self._layer]
        vb = cache._v[self._layer]
        kb[span.pages, :, span.offsets, :] = k
        vb[span.pages, :, span.offsets, :] = v
        keys = cache._gather(kb, span.table, span.lo, span.t_max)
        values = cache._gather(vb, span.table, span.lo, span.t_max)
        return keys, values, span.mask


class SpanBatch:
    """Resolved plan for one batched model step over the page pool.

    Built by :meth:`PagedKVCache.begin_spans` from ``(slot, start, m)``
    triples: positions ``start .. start+m-1`` of each slot become ``m``
    consecutive batch rows.  Construction does the step's bookkeeping
    once, for every layer and for both K and V:

    - resolves every written page (allocating at page boundaries,
      copying shared pages on write);
    - builds the ``(spans, pages)`` page table the reads gather through;
    - builds the additive key mask of every row (causal inside a span,
      ragged across spans, banded under an attention window).

    Slot lengths are NOT advanced: the caller commits explicitly
    (``commit_span`` / ``promote_fork``) after deciding how much of the
    span survives.
    """

    __slots__ = ("cache", "positions", "pages", "offsets", "lo", "t_max",
                 "mask", "single_rows", "span_rows", "table")

    def __init__(self, cache: "PagedKVCache", spans):
        size = cache.page_size
        pages: list[int] = []
        positions: list[int] = []
        singles: list[tuple[int, int]] = []            # (row, slot)
        longer: list[tuple[int, int, int]] = []        # (row_lo, row_hi, slot)
        for slot, start, m in spans:
            if m < 1:
                raise ValueError("span length must be >= 1")
            end = start + m
            if end > cache.max_seq_len:
                raise ValueError(
                    f"PagedKVCache overflow: span reaches {end} > "
                    f"{cache.max_seq_len}")
            table = cache.block_tables[slot]
            for idx in range(start // size, (end - 1) // size + 1):
                if idx == len(table):
                    table.append(cache._allocate())
                elif cache.refcounts[table[idx]] > 1:
                    # Copy-on-write before the span lands: the page is
                    # shared with a fork parent or the prefix cache.
                    fresh = cache._allocate()
                    cache._k[:, fresh] = cache._k[:, table[idx]]
                    cache._v[:, fresh] = cache._v[:, table[idx]]
                    cache._release(table[idx])
                    table[idx] = fresh
            row = len(positions)
            if m == 1:
                singles.append((row, slot))
            else:
                longer.append((row, row + m, slot))
            pages.extend(table[pos // size] for pos in range(start, end))
            positions.extend(range(start, end))
        self.cache = cache
        self.positions = np.asarray(positions, dtype=np.int64)
        self.pages = np.asarray(pages, dtype=np.int64)
        self.offsets = self.positions % size
        new_lens = self.positions + 1
        self.t_max = int(new_lens.max())
        window = cache.window
        self.lo = 0 if window is None \
            else max(0, int(new_lens.min()) - window)
        self.mask = ragged_key_mask(new_lens, self.lo, self.t_max, window,
                                    dtype=cache.dtype)
        # One-row spans are gathered first so they read as one batched
        # (n1, H, t, hd) block; each longer span follows as one history.
        self.single_rows = np.asarray([row for row, _ in singles],
                                      dtype=np.int64)
        self.span_rows = [(lo, hi) for lo, hi, _ in longer]
        self.table = cache._page_table(
            [slot for _, slot in singles] + [slot for _, _, slot in longer],
            self.lo, self.t_max)

    @property
    def layers(self) -> list[PagedLayerKV]:
        """Per-layer views driving one ``decode_step``.  Built on demand
        so the batch holds no reference back to its views: a step's
        buffers are freed the moment the step drops the batch, not at
        the next cyclic garbage collection."""
        return [PagedLayerKV(self, i) for i in range(self.cache.num_layers)]


class PagedKVCache:
    """Fixed-size-page KV pool with refcounted sharing and copy-on-write.

    The engine drives it one :class:`SpanBatch` per model step
    (:meth:`begin_spans`, then :meth:`commit_span` or
    :meth:`promote_fork`), and uses the paging API for admission and
    preemption (:meth:`try_admit`, :meth:`span_page_shortfall`,
    :meth:`register_prefix`, :meth:`fork_slot`, :meth:`reset_slot`).

    ``num_pages`` defaults to dense-equivalent capacity
    (``batch_size * ceil(max_seq_len / page_size)``) so a default
    engine can never run out of pages; size it smaller to oversubscribe
    slots against real memory, with admission/preemption absorbing the
    pressure.
    """

    def __init__(
        self,
        num_layers: int,
        batch_size: int,
        num_heads: int,
        max_seq_len: int,
        head_dim: int,
        page_size: int = 16,
        num_pages: int | None = None,
        window: int | None = None,
        dtype=None,
        prefix_sharing: bool = True,
    ):
        if min(num_layers, batch_size, num_heads, max_seq_len, head_dim,
               page_size) < 1:
            raise ValueError("all PagedKVCache dimensions must be >= 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 when set")
        if num_pages is None:
            # Dense-equivalent capacity: every slot can reach max_seq_len,
            # so a default engine can never exhaust the pool.  Sizing
            # num_pages smaller opts into oversubscription — the engine
            # then bounds each request by pool capacity at submit and
            # preempts under mid-decode pressure.
            num_pages = batch_size * -(-max_seq_len // page_size)
        if num_pages < 1:
            raise ValueError("num_pages must be >= 1")
        dtype = kv_value_dtype(dtype=dtype)
        shape = (num_layers, num_pages, num_heads, page_size, head_dim)
        self._k = np.zeros(shape, dtype=dtype)
        self._v = np.zeros(shape, dtype=dtype)
        self.batch_size = batch_size
        self.max_seq_len = max_seq_len
        self.page_size = page_size
        self.num_pages = num_pages
        self.window = window
        self.lengths = np.zeros(batch_size, dtype=np.int64)
        self.block_tables: list[list[int]] = [[] for _ in range(batch_size)]
        self.refcounts = np.zeros(num_pages, dtype=np.int64)
        # Popping yields ascending page ids: deterministic allocation
        # order, which keeps paged runs reproducible byte for byte.
        self._free = list(range(num_pages - 1, -1, -1))
        self.peak_pages_used = 0
        self.prefix: PrefixCache | None = \
            PrefixCache(self) if prefix_sharing else None

    @classmethod
    def for_model(cls, model, batch_size: int,
                  max_seq_len: int | None = None, page_size: int = 16,
                  num_pages: int | None = None,
                  prefix_sharing: bool = True,
                  dtype=None) -> "PagedKVCache":
        """Size a cache from a :class:`TransformerLM`-style ``model.config``.

        The page-pool dtype follows the model's parameter dtype via
        :func:`~repro.infer.kv_cache.kv_value_dtype` (explicit ``dtype``
        overrides), halving KV bytes per page for a float32 model.
        """
        cfg = model.config
        return cls(
            num_layers=cfg.num_layers,
            batch_size=batch_size,
            num_heads=cfg.num_heads,
            max_seq_len=max_seq_len or cfg.max_seq_len,
            head_dim=cfg.head_dim,
            page_size=page_size,
            num_pages=num_pages,
            window=cfg.attention_window,
            prefix_sharing=prefix_sharing,
            dtype=kv_value_dtype(model, dtype),
        )

    # ------------------------------------------------------------------
    # Pool accounting
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the page pool (index arrays are always int64)."""
        return self._k.dtype

    @property
    def num_layers(self) -> int:
        return self._k.shape[0]

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.num_pages - len(self._free)

    @property
    def shared_pages(self) -> int:
        """Pages with more than one holder (slots and/or the prefix cache)."""
        return int((self.refcounts > 1).sum())

    @property
    def available_pages(self) -> int:
        """Pages obtainable right now: free plus LRU-evictable cached."""
        evictable = self.prefix.evictable_pages if self.prefix else 0
        return len(self._free) + evictable

    @property
    def page_bytes(self) -> int:
        """K+V bytes of one page across every layer."""
        return int(self._k[:, 0].nbytes + self._v[:, 0].nbytes)

    @property
    def nbytes(self) -> int:
        """Bytes of the whole pool allocation (used or not)."""
        return self._k.nbytes + self._v.nbytes

    @property
    def bytes_in_use(self) -> int:
        """Bytes of pages currently held by slots or the prefix cache."""
        return self.used_pages * self.page_bytes

    def pages_for(self, n_tokens: int) -> int:
        """Pages needed to hold ``n_tokens`` positions."""
        return -(-n_tokens // self.page_size)

    def stats(self) -> dict:
        """JSON-ready pool + prefix-cache snapshot for ``engine.stats()``."""
        snapshot = {
            "backend": "paged",
            "dtype": self.dtype.name,
            "page_size": self.page_size,
            "num_pages": self.num_pages,
            "pages_free": self.free_pages,
            "pages_used": self.used_pages,
            "pages_shared": self.shared_pages,
            "peak_pages_used": self.peak_pages_used,
            "page_bytes": self.page_bytes,
            "kv_bytes_pool": self.nbytes,
            "kv_bytes_in_use": self.bytes_in_use,
        }
        if self.prefix is not None:
            snapshot["prefix_cache"] = self.prefix.stats()
        return snapshot

    # ------------------------------------------------------------------
    # Allocation / release
    # ------------------------------------------------------------------
    def _allocate(self) -> int:
        if not self._free:
            if self.prefix is None:
                raise PagePoolExhausted(
                    f"all {self.num_pages} pages are in use")
            self.prefix.evict_one()
        page = self._free.pop()
        self.refcounts[page] = 1
        self.peak_pages_used = max(self.peak_pages_used, self.used_pages)
        return page

    def _release(self, page: int) -> None:
        self.refcounts[page] -= 1
        if self.refcounts[page] == 0:
            self._free.append(page)
        elif self.refcounts[page] < 0:
            raise AssertionError(f"page {page} refcount went negative")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _page_table(self, slots, lo: int, t_max: int) -> np.ndarray:
        """``(len(slots), pages)`` matrix of the pages covering
        positions ``lo .. t_max - 1`` of each slot.

        Built once per step by :class:`SpanBatch` and reused by every
        layer for both K and V.  Columns past a slot's block table stay
        page 0: those positions are exactly the ones
        :func:`ragged_key_mask` sends to ``-inf``, so their values never
        reach an attention weight (``exp(-inf) == 0.0``).
        """
        page_lo = lo // self.page_size
        page_hi = -(-t_max // self.page_size)
        table = np.zeros((len(slots), page_hi - page_lo), dtype=np.int64)
        for row, slot in enumerate(slots):
            pages = self.block_tables[slot][page_lo:page_hi]
            table[row, :len(pages)] = pages
        return table

    def _gather(self, buf: np.ndarray, table: np.ndarray, lo: int,
                t_max: int) -> np.ndarray:
        """Contiguous ``(rows, H, t_max - lo, hd)`` copy of the pages in
        ``table`` (from :meth:`_page_table` over the same ``lo, t_max``)."""
        size = self.page_size
        base = lo // size * size
        rows, cols = table.shape
        _, heads, _, head_dim = buf.shape
        # One column at a time lands each (rows, H, page, hd) page block
        # directly in its target position — a single copy into the
        # contiguous layout, instead of fancy-index + transpose/reshape
        # (two full copies).  cols is small (t / page_size).
        out = np.empty((rows, heads, cols * size, head_dim), dtype=buf.dtype)
        for col in range(cols):
            out[:, :, col * size:(col + 1) * size] = buf[table[:, col]]
        return out[:, :, lo - base:t_max - base]

    def reset_slot(self, slot: int) -> None:
        """Release the slot's pages back to the pool (or to the prefix
        cache, for pages it also holds) and zero its length."""
        for page in self.block_tables[slot]:
            self._release(page)
        self.block_tables[slot] = []
        self.lengths[slot] = 0

    # ------------------------------------------------------------------
    # Paging-specific API (admission, sharing, forking)
    # ------------------------------------------------------------------
    def try_admit(self, slot: int, tokens) -> int | None:
        """Attach prefix-cached pages and reserve the slot for ``tokens``.

        Returns the number of positions covered by reused pages (0 on a
        miss) — the engine starts prefill *after* them — or ``None``
        when the pool cannot currently supply the prompt's fresh pages
        (the caller should keep the request queued).
        """
        pages = self.prefix.match(tokens) if self.prefix else []
        needed = self.pages_for(len(tokens)) - len(pages)
        self.reset_slot(slot)
        for page in pages:
            self.refcounts[page] += 1
        # Matched pages are pinned (refcount >= 2) before availability is
        # measured, so the eviction headroom below cannot count them.
        if needed > self.available_pages:
            for page in pages:
                self._release(page)
            return None
        if self.prefix is not None:
            # Count the admission (match() above only looked).
            if pages:
                self.prefix.hits += 1
                self.prefix.hit_tokens += len(pages) * self.page_size
                for n_pages in range(1, len(pages) + 1):
                    self.prefix._touch(tuple(tokens[: n_pages * self.page_size]))
            else:
                self.prefix.misses += 1
        self.block_tables[slot] = list(pages)
        self.lengths[slot] = len(pages) * self.page_size
        return len(pages) * self.page_size

    def span_page_shortfall(self, spans, forked=()) -> int:
        """Pages writing ``spans`` needs beyond what the pool can supply.

        ``spans`` are ``(slot, start, m)`` triples as for
        :meth:`begin_spans`.  Every page a span touches counts when it
        is fresh (past the slot's block table) or must be copied on
        write (shared); a slot listed in ``forked`` writes on a fresh
        fork of itself, so each of its existing pages the span touches
        counts as a copy.  Positive means the step would exhaust the
        pool; the engine preempts until it is not.
        """
        size = self.page_size
        needed = 0
        for slot, start, m in spans:
            table = self.block_tables[slot]
            fork = slot in forked
            for idx in range(start // size, (start + m - 1) // size + 1):
                if idx >= len(table) or fork \
                        or self.refcounts[table[idx]] > 1:
                    needed += 1
        return needed - self.available_pages

    def register_prefix(self, slot: int, tokens) -> int:
        """Publish the slot's full prompt pages into the prefix cache."""
        if self.prefix is None:
            return 0
        return self.prefix.insert(tokens, self.block_tables[slot])

    def begin_spans(self, spans) -> SpanBatch:
        """Plan one model step: ``spans`` is a list of ``(slot, start,
        m)`` triples, each contributing ``m`` batch rows at consecutive
        positions.  Returns the :class:`SpanBatch` whose ``layers``
        drive one ``decode_step``; commit survivors with
        :meth:`commit_span` / :meth:`promote_fork` afterwards."""
        return SpanBatch(self, spans)

    def commit_span(self, slot: int, length: int) -> None:
        """Set a slot's valid length after a span write landed on it."""
        if length > self.max_seq_len:
            raise ValueError(
                f"PagedKVCache overflow: sequence exceeds {self.max_seq_len}")
        self.lengths[slot] = length

    def promote_fork(self, src: int, dst: int, length: int) -> None:
        """Adopt ``src``'s pages as ``dst``'s state, truncated to ``length``.

        The speculative commit-or-rollback primitive: the draft branch
        decoded on fork ``src``; ``dst`` (the canonical slot) takes over
        ``src``'s block table up to ``length`` accepted positions, pages
        beyond that are released (the rollback of rejected drafts), and
        ``dst``'s previous references are dropped — pages shared by both
        tables just lose the fork's double-count, pages ``src`` COW-ed
        replace their stale originals, and ``src`` is left empty.
        """
        keep = self.pages_for(length)
        table = self.block_tables[src]
        if keep > len(table):
            raise ValueError(
                f"promote_fork: {length} positions need {keep} pages but "
                f"slot {src} holds {len(table)}")
        for page in table[keep:]:
            self._release(page)
        kept = table[:keep]
        self.block_tables[src] = []
        self.lengths[src] = 0
        for page in self.block_tables[dst]:
            self._release(page)
        self.block_tables[dst] = kept
        self.lengths[dst] = length

    def fork_slot(self, src: int, dst: int) -> None:
        """Clone ``src`` into ``dst`` by sharing every page (O(1) copies).

        Both slots keep decoding from the same history; the first write
        either side makes to a shared page triggers copy-on-write, so
        continuations diverge safely — the building block for parallel
        sampling and beam-style search.
        """
        if src == dst:
            raise ValueError("cannot fork a slot onto itself")
        self.reset_slot(dst)
        for page in self.block_tables[src]:
            self.refcounts[page] += 1
        self.block_tables[dst] = list(self.block_tables[src])
        self.lengths[dst] = self.lengths[src]
