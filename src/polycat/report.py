"""Plain-text check reports with a stable rendering for golden tests, and
the exact decimal digits of a count of any size."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Report:
    """Outcome of a verification: a title, a verdict, and detail lines.

    Rendering is deterministic: no timestamps, no addresses, no dict
    iteration over unordered data. Two runs with the same inputs render
    byte-identical text.
    """

    title: str
    ok: bool
    lines: tuple[str, ...] = ()

    def render(self) -> str:
        head = f"{self.title}: {'ok' if self.ok else 'FAIL'}"
        return "\n".join([head, *(f"  {line}" for line in self.lines)])

    def __str__(self) -> str:
        return self.render()


# built once: building it costs far more than printing a small count
_CHUNK = 10**4000


def decimal(n: int) -> str:
    """The exact decimal digits of a count. str() refuses integers of
    more than 4300 digits, so the digits are made 4000 at a time."""
    parts = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        parts.append(str(low).zfill(4000))
    parts.append(str(n))
    return "".join(reversed(parts))
