"""Direct set-associative LRU cache simulation.

Used for runtime simulation at a single configuration and as the
ground-truth cross-check for the stack-distance simulator (the two must
agree exactly at every associativity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache configuration (replacement is true LRU, the
    policy whose stack inclusion property the multi-associativity
    simulator relies on)."""

    num_sets: int = 512
    ways: int = 2
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.num_sets <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache dimensions must be positive")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")

    @property
    def size_bytes(self) -> int:
        return self.num_sets * self.ways * self.line_bytes

    @property
    def size_kb(self) -> float:
        return self.size_bytes / 1024.0

    def __str__(self) -> str:
        return f"{self.size_kb:g}KB ({self.ways}-way, {self.num_sets} sets)"


class SetAssocCache:
    """A set-associative cache with true LRU replacement."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = address >> self._line_shift
        set_index = line & self._set_mask
        ways = self._sets[set_index]
        try:
            ways.remove(line)
        except ValueError:
            self.misses += 1
            ways.insert(0, line)
            if len(ways) > self.config.ways:
                ways.pop()
            return False
        ways.insert(0, line)
        self.hits += 1
        return True

    def access_many(self, addresses: Iterable[int]) -> int:
        """Access a sequence; returns the number of misses incurred."""
        before = self.misses
        for address in addresses:
            self.access(int(address))
        return self.misses - before

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def flush(self) -> None:
        """Invalidate all contents (counters are preserved)."""
        self._sets = [[] for _ in range(self.config.num_sets)]
