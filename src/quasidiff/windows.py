"""Contiguous integer-indexed windows of real values."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import WindowIndexError


@dataclass(frozen=True)
class Window:
    """A finite run of values x_start, ..., x_end with no gaps.

    Windows are callable, so any code expecting an integer -> float
    evaluator accepts one directly.
    """

    start: int
    values: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a window needs at least one value")
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    @classmethod
    def from_evaluator(cls, fn: Callable[[int], float], start: int, end: int) -> "Window":
        if end < start:
            raise ValueError(f"empty index range [{start}, {end}]")
        return cls(start, tuple(fn(n) for n in range(start, end + 1)))

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def covers(self, lo: int, hi: int) -> bool:
        return self.start <= lo and hi <= self.end

    def __contains__(self, n: int) -> bool:
        return self.start <= n <= self.end

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> float:
        if n not in self:
            raise WindowIndexError(n, self.start, self.end)
        return self.values[n - self.start]

    def __call__(self, n: int) -> float:
        return self[n]

    def items(self) -> Iterator[tuple[int, float]]:
        return ((self.start + i, v) for i, v in enumerate(self.values))

    def suffix(self, count: int) -> "Window":
        count = max(1, min(count, len(self.values)))
        return Window(self.end - count + 1, self.values[-count:])

    def max_abs(self) -> float:
        return max(map(abs, self.values))

    def all_finite(self) -> bool:
        return all(map(math.isfinite, self.values))
