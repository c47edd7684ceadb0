"""The answer of every check: yes, no or inconclusive."""

from __future__ import annotations

# a status in the words of the bisimilarities, as the pi commands print it
BISIM_WORDS = {"yes": "bisimilar", "no": "not", "inconclusive": "inconclusive"}


class Verdict:
    """status is "yes" (the property holds, within any bound the note names),
    "no" (it fails, and witness is the counterexample) or "inconclusive" (a
    resource limit was reached first, and the note says which).  checked
    counts the cases a bounded search went through, where the check counts
    them.  A check that stops at the first failing case (criterion 8's
    check_compositional and is_fvr) counts only the cases that passed, so
    its "no" at the n-th case has checked n - 1; a "no" that exhausts a
    search (check_valid_upto) counts every case tried.  The fields are not
    set again."""
    __slots__ = ("status", "witness", "note", "checked")

    def __init__(self, status: str, witness: object = None, note: str = "",
                 checked: int = 0) -> None:
        self.status = status
        self.witness = witness
        self.note = note
        self.checked = checked

    def __repr__(self) -> str:
        return (f"Verdict(status={self.status!r}, witness={self.witness!r}, "
                f"note={self.note!r}, checked={self.checked!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.status, self.witness, self.note, self.checked)
                == (other.status, other.witness, other.note, other.checked))

    def __hash__(self) -> int:
        return hash((self.status, self.witness, self.note, self.checked))

    @property
    def holds(self) -> bool:
        return self.status == "yes"

    @property
    def result(self) -> str:
        """The status in the words of the bisimilarities: "bisimilar", "not"
        or "inconclusive"."""
        return BISIM_WORDS[self.status]
