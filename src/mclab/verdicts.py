"""Verdict container shared by the property checkers.

A check never proves a universally quantified statement; it either gathers
sampled evidence (holds), produces a counterexample certificate (fails), or
refuses because the operation it relies on is undefined on the space
(refused).  Fail certificates carry every input needed to re-evaluate both
sides of the violated relation through the public operations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import Scalar
from .reports import to_json

HOLDS = "holds"
FAILS = "fails"
REFUSED = "refused"


@dataclass
class PropertyVerdict:
    property: str
    outcome: str
    samples: int = 0
    max_slack: Scalar | None = None
    witness: dict | None = None
    plan: dict | None = None
    convention: str | None = None
    reason: str | None = None

    @property
    def holds(self) -> bool:
        return self.outcome == HOLDS

    @property
    def fails(self) -> bool:
        return self.outcome == FAILS

    @property
    def refused(self) -> bool:
        return self.outcome == REFUSED

    def to_json(self) -> dict:
        out = {
            "property": self.property,
            "outcome": self.outcome,
            "samples": self.samples,
        }
        if self.max_slack is not None:
            out["maxSlack"] = self.max_slack
        if self.witness is not None:
            out["witness"] = self.witness
        if self.plan is not None:
            out["plan"] = self.plan
        if self.convention is not None:
            out["convention"] = self.convention
        if self.reason is not None:
            out["reason"] = self.reason
        return to_json(out)

