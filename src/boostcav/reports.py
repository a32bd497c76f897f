"""Structured discrepancy reports.

Where two computation routes disagree by construction (documented internal
inconsistencies of the closed forms), the package reports both sides with
the deviation quantified rather than silently preferring one.
"""

from typing import NamedTuple

from .cavity import _fmt

__all__ = ["DiscrepancyEntry", "DiscrepancyReport"]


class DiscrepancyEntry(NamedTuple):
    quantity: str
    value_a: float
    value_b: float

    @property
    def abs_diff(self) -> float:
        return abs(self.value_a - self.value_b)

    @property
    def rel_diff(self) -> float:
        scale = max(abs(self.value_a), abs(self.value_b), 1e-300)
        return self.abs_diff / scale


class DiscrepancyReport(NamedTuple):
    title: str
    label_a: str
    label_b: str
    entries: tuple[DiscrepancyEntry, ...]
    note: str = ""

    def lines(self) -> list[str]:
        out = [f"discrepancy report: {self.title}", f"  [A] {self.label_a}  [B] {self.label_b}"]
        for e in self.entries:
            out.append(
                f"  {e.quantity}: A={_fmt(e.value_a)} B={_fmt(e.value_b)} "
                f"abs={e.abs_diff:.3e} rel={e.rel_diff:.3e}"
            )
        if self.note:
            out.append(f"  note: {self.note}")
        return out
