"""Fully-associative TLB model (Table II: 128 entries).

The TLB operates on page numbers (lines / lines-per-page).  It is a
strict LRU fully-associative structure; a miss charges a fixed software
fill penalty.  The hierarchy-level experiments leave the TLB optional
because at line granularity its effect is second-order, but it is wired
into the core model and exercised by the ablation benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import ConfigurationError

#: 8 KB pages over 64-byte lines.
LINES_PER_PAGE = 128


class TranslationBuffer:
    """Fully-associative, LRU translation look-aside buffer."""

    def __init__(self, entries: int = 128, miss_penalty: int = 60):
        if entries <= 0:
            raise ConfigurationError("TLB must have at least one entry")
        if miss_penalty < 0:
            raise ConfigurationError("TLB miss penalty must be non-negative")
        self.entries = entries
        self.miss_penalty = miss_penalty
        self.hits = 0
        self.misses = 0
        self._table: "OrderedDict[int, None]" = OrderedDict()

    def access_page(self, page: int) -> int:
        """Translate ``page``; return stall cycles (0 on hit).

        The reference for :meth:`access_batch`.
        """
        table = self._table
        if page in table:
            table.move_to_end(page)
            self.hits += 1
            return 0
        self.misses += 1
        if len(table) >= self.entries:
            table.popitem(last=False)
        table[page] = None
        return self.miss_penalty

    def access_batch(self, lines: np.ndarray) -> int:
        """Translate a whole line array; return the summed stall cycles.

        Bit-identical to folding :meth:`access_page` over each line's
        page — same stall sum, hit/miss counts and final LRU order
        (``tests/test_cpu.py`` checks it) — but the page numbers
        are computed for the whole array with one vectorized divide, and
        consecutive same-page references are run-length grouped: after
        the first access a page is resident and MRU, so repeats are
        counted as hits without touching the table.
        """
        n = lines.size
        if n == 0:
            return 0
        pages = lines // LINES_PER_PAGE
        if n > 1:
            repeats = np.empty(n, dtype=bool)
            repeats[0] = False
            np.equal(pages[1:], pages[:-1], out=repeats[1:])
            repeat_list = repeats.tolist()
        else:
            repeat_list = [False]
        table = self._table
        entries = self.entries
        penalty = self.miss_penalty
        hits = 0
        misses = 0
        total = 0
        for page, repeat in zip(pages.tolist(), repeat_list):
            if repeat:
                hits += 1
                continue
            if page in table:
                table.move_to_end(page)
                hits += 1
                continue
            misses += 1
            if len(table) >= entries:
                table.popitem(last=False)
            table[page] = None
            total += penalty
        self.hits += hits
        self.misses += misses
        return total

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def flush(self) -> None:
        """Drop all translations (e.g. on an address-space switch)."""
        self._table.clear()
