"""The benchmark's output check.

A session's rules and violations are reduced to digests of their
canonical forms -- rules by ``PFD.to_dict`` in rule order, violations
by ``ViolationReport.canonical_violations`` -- and compared with the
digests a from-scratch monolithic run produced for the same data
(``gen.reference``).  Digests keep the reference small on disk; the
counts beside them make a mismatch readable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Sequence


def rule_key(rule: Dict) -> str:
    """A rule's identity by content, ignoring its ``psiN`` name (the key
    ``AnmatSession.recheck`` re-confirms by)."""
    data = dict(rule)
    data.pop("name", None)
    return json.dumps(data, sort_keys=True)


def rules_digest(rules: Sequence[Dict]) -> str:
    return hashlib.sha256(json.dumps(list(rules), sort_keys=True).encode()).hexdigest()


def violations_digest(violations: Iterable) -> str:
    """Digest of violations in the given order (``Violation`` is a frozen
    dataclass, so its repr spells out every field)."""
    digest = hashlib.sha256()
    for violation in violations:
        digest.update(repr(violation).encode())
    return digest.hexdigest()


def checkpoint(pfds, report) -> Dict[str, object]:
    """The checked outputs of one session checkpoint."""
    return {
        "n_rules": len(pfds),
        "rules": rules_digest([pfd.to_dict() for pfd in pfds]),
        "n_violations": len(report),
        "violations": violations_digest(report.canonical_violations()),
    }


def mismatches(observed: Sequence[Dict], expected: Sequence[Dict]) -> List[str]:
    """Human-readable differences between a session's checkpoints and
    the reference; empty when they agree."""
    problems = []
    if len(observed) != len(expected):
        problems.append(f"{len(observed)} checkpoints, expected {len(expected)}")
    for step, (got, want) in enumerate(zip(observed, expected)):
        if got["rules"] != want["rules"]:
            problems.append(
                f"checkpoint {step}: rules differ "
                f"({got['n_rules']} rules, reference {want['n_rules']})"
            )
        if got["violations"] != want["violations"]:
            problems.append(
                f"checkpoint {step}: violations differ "
                f"({got['n_violations']}, reference {want['n_violations']})"
            )
    return problems


def f1(predicted: Iterable, truth: Iterable) -> float:
    """F1 of predicted cells against ground-truth cells."""
    predicted = set(predicted)
    truth = set(truth)
    hits = len(predicted & truth)
    if not hits:
        return 0.0
    precision = hits / len(predicted)
    recall = hits / len(truth)
    return 2 * precision * recall / (precision + recall)
