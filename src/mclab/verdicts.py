"""Verdicts of the property checkers, and the one loop that builds them.

A check never proves a universally quantified statement; it either gathers
sampled evidence (holds), produces a counterexample certificate (fails), or
refuses because the operation it relies on is undefined on the space
(refused).  Fail certificates carry every input needed to re-evaluate both
sides of the violated relation through the public operations.

Every verdict is built by `verdict`; every sampled checker feeds its seeded
trials to `first_failure`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import Scalar

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
        optional = {
            "maxSlack": self.max_slack,
            "witness": self.witness,
            "plan": self.plan,
            "convention": self.convention,
            "reason": self.reason,
        }
        out.update((key, value) for key, value in optional.items() if value is not None)
        return out

def verdict(name, outcome, plan=None, conv=None, **kw) -> PropertyVerdict:
    """A verdict on property `name`, recording the sample plan's description
    and the midpoint convention when given."""
    return PropertyVerdict(
        property=name,
        outcome=outcome,
        plan=plan.describe() if plan is not None else None,
        convention=conv.value if conv is not None else None,
        **kw,
    )


def first_failure(name, trials, limit, plan=None, conv=None, worst=None):
    """Verdict of the seeded `trials`, each a pair (slack, witness).

    The first slack above `limit` fails, with the certificate that
    `witness()` builds; a slack of None is a trial that failed without
    measuring one (a sphere check of a set with no sampled members).
    Otherwise the verdict holds with the worst slack, starting from
    `worst`.  `witness` is called before the next trial is drawn, so it may
    read the trial's loop variables."""
    samples = 0
    for samples, (slack, witness) in enumerate(trials, 1):
        if slack is None or slack > limit:
            return verdict(
                name,
                FAILS,
                plan=plan,
                conv=conv,
                samples=samples,
                witness=witness(),
                max_slack=slack,
            )
        if worst is None or slack > worst:
            worst = slack
    return verdict(name, HOLDS, plan=plan, conv=conv, samples=samples, max_slack=worst)
