"""Projection to predicates and forward-chaining inference.

Filtered belief signals are mapped to discrete predicates by hard or
logistic thresholding; true predicates become facts of a propositional
Horn-clause knowledge base, and a semi-naive forward chainer computes
the least fixed point together with replayable proof traces. The chainer
queues only the facts that are premises of some clause, and records one
justifying clause per derived atom; a proof trace is built from those
justifications only when it is read, since most callers read none.
"""

from __future__ import annotations

import copy
from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import BadParams, FormatError, UnmappedNode
from .spectral import GraphSignal

HARD = "hard"
LOGISTIC = "logistic"


@dataclass(frozen=True)
class PredicateSet:
    """Per-node truth assignment: booleans (hard) or probabilities (soft)."""

    values: np.ndarray
    soft: bool

    def __post_init__(self):
        if self.soft:
            v = np.asarray(self.values, dtype=np.float64)
            if v.size and (v.min() < 0.0 or v.max() > 1.0):
                raise BadParams("soft predicate values must lie in [0, 1]")
        else:
            v = np.asarray(self.values, dtype=bool)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    def true_nodes(self) -> list[int]:
        """Nodes held true; soft sets cut at the logistic midpoint 0.5."""
        return np.flatnonzero(self.values > 0.5 if self.soft else self.values).tolist()


def hard_threshold(y: GraphSignal, tau: float) -> PredicateSet:
    """p_i = [y_i > tau]; ties fall on the false side (strict inequality)."""
    return PredicateSet(y.values > tau, soft=False)


def soft_threshold(y: GraphSignal, tau: float, alpha: float) -> PredicateSet:
    """p_i = sigmoid(alpha * (y_i - tau)), overflow-safe; alpha must be positive."""
    if not alpha > 0.0:
        raise BadParams(f"the logistic threshold needs alpha > 0, got {alpha}")
    return PredicateSet(expit(alpha * (y.values - tau)), soft=True)


@dataclass(frozen=True)
class Clause:
    """Propositional Horn clause: body atoms jointly imply the head."""

    clause_id: str
    head: str
    body: frozenset[str]

    def __post_init__(self):
        if not self.head:
            raise BadParams(f"clause {self.clause_id}: empty head")
        object.__setattr__(self, "body", frozenset(self.body))


@dataclass(frozen=True)
class KnowledgeBase:
    """Atoms, Horn clauses, base facts, and mutually exclusive atom pairs.

    ``declared`` (the atom set) and ``by_premise`` (body atom -> indices
    of the clauses it appears in) are built once, shared by every
    `with_facts` copy, and read by binding and chaining. Both rely on the
    KB never being changed after construction.
    """

    atoms: tuple[str, ...]
    clauses: tuple[Clause, ...] = ()
    facts: frozenset[str] = frozenset()
    exclusive: tuple[tuple[str, str], ...] = ()
    declared: frozenset[str] = field(init=False, repr=False, compare=False)
    by_premise: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(self, "facts", frozenset(self.facts))
        object.__setattr__(self, "exclusive", tuple((a, b) for a, b in self.exclusive))
        declared = frozenset(self.atoms)
        if len(declared) != len(self.atoms):
            raise BadParams("duplicate atom declarations")
        by_premise: dict[str, list[int]] = {}
        for idx, c in enumerate(self.clauses):
            missing = ({c.head} | c.body) - declared
            if missing:
                raise BadParams(f"clause {c.clause_id} references undeclared atoms {sorted(missing)}")
            for atom in c.body:
                by_premise.setdefault(atom, []).append(idx)
        self._check_facts(self.facts, declared)
        for a, b in self.exclusive:
            if a not in declared or b not in declared:
                raise BadParams(f"exclusive pair ({a}, {b}) references undeclared atoms")
        object.__setattr__(self, "declared", declared)
        object.__setattr__(self, "by_premise", {atom: tuple(idx) for atom, idx in by_premise.items()})

    @staticmethod
    def _check_facts(facts: frozenset[str], declared: frozenset[str]) -> None:
        bad_facts = facts - declared
        if bad_facts:
            raise BadParams(f"facts reference undeclared atoms {sorted(bad_facts)}")

    def with_facts(self, extra) -> "KnowledgeBase":
        """This KB with ``extra`` added to its facts; only the new facts are checked."""
        extra = frozenset(extra)
        self._check_facts(extra, self.declared)
        return self._plus_checked_facts(extra)

    def _plus_checked_facts(self, extra: frozenset[str]) -> "KnowledgeBase":
        """`with_facts` for a caller that has checked ``extra`` against ``declared``."""
        out = copy.copy(self)
        object.__setattr__(out, "facts", self.facts | extra)
        return out


@dataclass(frozen=True)
class ProofTrace:
    """Derivation record: ordered (clause_id, premises) steps ending at ``atom``.

    Base facts carry an empty step list.
    """

    atom: str
    steps: tuple[tuple[str, tuple[str, ...]], ...] = ()


def bind_predicates(p: PredicateSet, kb: KnowledgeBase, labels: Sequence[str]) -> KnowledgeBase:
    """Insert each thresholded-true node i into the KB as the fact ``labels[i]``.

    Soft predicate sets are cut at 0.5 first. A true node whose label
    ``kb`` does not declare raises `UnmappedNode`, naming the lowest such
    node and its label.
    """
    nodes = p.true_nodes()
    new_facts = frozenset(map(labels.__getitem__, nodes))
    if not new_facts <= kb.declared:
        node = next(node for node in nodes if labels[node] not in kb.declared)
        raise UnmappedNode(f"node {node} is true but its label {labels[node]!r} is not a declared atom")
    return kb._plus_checked_facts(new_facts)


def forward_chain(kb: KnowledgeBase) -> tuple[frozenset[str], Mapping[str, ProofTrace]]:
    """Least fixed point of the clause set over the facts.

    Semi-naive: each clause keeps a count of unsatisfied premises and
    fires exactly once, when the count reaches zero, so total work is
    linear in the sum of clause body sizes. The queue starts with the
    facts that are premises of some clause, in sorted order; popping any
    other fact would decrement nothing. Returns the closure and a
    read-only mapping from each closure atom to its replayable trace
    (facts get empty traces), which builds a trace only when it is read.
    """
    remaining = [len(c.body) for c in kb.clauses]
    justification: dict[str, tuple[str, tuple[str, ...]]] = {}
    queue: deque[str] = deque(sorted(kb.facts.intersection(kb.by_premise)))

    def fire(idx: int) -> None:
        clause = kb.clauses[idx]
        if clause.head not in kb.facts and clause.head not in justification:
            justification[clause.head] = (clause.clause_id, tuple(sorted(clause.body)))
            queue.append(clause.head)

    for idx, count in enumerate(remaining):
        if count == 0:
            fire(idx)
    while queue:
        atom = queue.popleft()
        for idx in kb.by_premise.get(atom, ()):
            remaining[idx] -= 1
            if remaining[idx] == 0:
                fire(idx)

    closure = kb.facts.union(justification)
    return closure, _LazyTraces(closure, kb.facts, justification)


class _LazyTraces(Mapping):
    """Closure atom -> `ProofTrace`, each trace built when it is read.

    Iterates in sorted atom order; ``len`` and ``in`` read the closure.
    """

    def __init__(
        self,
        closure: frozenset[str],
        facts: frozenset[str],
        justification: dict[str, tuple[str, tuple[str, ...]]],
    ):
        self._closure = closure
        self._facts = facts
        self._justification = justification

    def __getitem__(self, atom: str) -> ProofTrace:
        if atom in self._facts:
            return ProofTrace(atom)
        if atom not in self._justification:
            raise KeyError(atom)
        return _build_trace(atom, self._facts, self._justification)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._closure))

    def __len__(self) -> int:
        return len(self._closure)

    def __contains__(self, atom: object) -> bool:
        return atom in self._closure


def _build_trace(atom, facts, justification) -> ProofTrace:
    steps: list[tuple[str, tuple[str, ...]]] = []
    # derived atoms already in ``steps``; facts are checked by membership,
    # never copied, since there may be far more of them than steps
    done: set[str] = set()
    stack: list[tuple[str, bool]] = [(atom, False)]
    while stack:
        current, expanded = stack.pop()
        if current in facts or current in done:
            continue
        cid, premises = justification[current]
        if expanded:
            done.add(current)
            steps.append((cid, premises))
        else:
            stack.append((current, True))
            for p in premises:
                if p not in facts and p not in done:
                    stack.append((p, False))
    return ProofTrace(atom, tuple(steps))


def replay_trace(kb: KnowledgeBase, trace: ProofTrace) -> bool:
    """Re-run a trace from the KB's base facts; True iff it derives its atom."""
    clauses_by_id = {c.clause_id: c for c in kb.clauses}
    available = set(kb.facts)
    for clause_id, premises in trace.steps:
        clause = clauses_by_id.get(clause_id)
        if clause is None:
            return False
        if frozenset(premises) != clause.body:
            return False
        if not set(premises) <= available:
            return False
        available.add(clause.head)
    return trace.atom in available


def detect_conflicts(kb: KnowledgeBase, closure: frozenset[str]) -> list[tuple[str, str]]:
    """Exclusive pairs with both members derived."""
    return [(a, b) for a, b in kb.exclusive if a in closure and b in closure]


# ---------------------------------------------------------------------------
# KB file format, one record per line:
#   atom <name>
#   fact <name>
#   clause <head> :- <a>, <b>, ...
#   exclusive <a> <b>
# Clause ids are assigned in declaration order: c0, c1, ...
# ---------------------------------------------------------------------------


def parse_kb(text: str) -> KnowledgeBase:
    atoms: list[str] = []
    clauses: list[Clause] = []
    facts: set[str] = set()
    exclusive: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=1)
        kind = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if kind == "atom":
            if not rest or len(rest.split()) != 1:
                raise FormatError(f"line {lineno}: expected 'atom <name>'")
            atoms.append(rest)
        elif kind == "fact":
            if not rest or len(rest.split()) != 1:
                raise FormatError(f"line {lineno}: expected 'fact <name>'")
            facts.add(rest)
        elif kind == "clause":
            if ":-" not in rest:
                raise FormatError(f"line {lineno}: expected 'clause <head> :- <body>'")
            head, body_text = rest.split(":-", 1)
            head = head.strip()
            body = frozenset(tok.strip() for tok in body_text.split(",") if tok.strip())
            if not head:
                raise FormatError(f"line {lineno}: clause without a head")
            clauses.append(Clause(f"c{len(clauses)}", head, body))
        elif kind == "exclusive":
            toks = rest.split()
            if len(toks) != 2:
                raise FormatError(f"line {lineno}: expected 'exclusive <a> <b>'")
            exclusive.append((toks[0], toks[1]))
        else:
            raise FormatError(f"line {lineno}: unknown record {kind!r}")
    try:
        return KnowledgeBase(tuple(atoms), tuple(clauses), frozenset(facts), tuple(exclusive))
    except BadParams as exc:
        raise FormatError(str(exc)) from exc


def serialize_kb(kb: KnowledgeBase) -> str:
    lines = [f"atom {a}" for a in kb.atoms]
    for c in kb.clauses:
        body = ", ".join(sorted(c.body))
        lines.append(f"clause {c.head} :- {body}")
    lines += [f"fact {a}" for a in sorted(kb.facts)]
    lines += [f"exclusive {a} {b}" for a, b in kb.exclusive]
    return "\n".join(lines) + "\n"


def load_kb(path: str | Path) -> KnowledgeBase:
    return parse_kb(Path(path).read_text())


def save_kb(kb: KnowledgeBase, path: str | Path) -> None:
    Path(path).write_text(serialize_kb(kb))


def format_closure(
    closure: frozenset[str],
    traces: Mapping[str, ProofTrace] | None = None,
    kb: KnowledgeBase | None = None,
) -> str:
    """Human-readable closure listing, optionally with indented trace steps."""
    heads = {c.clause_id: c.head for c in kb.clauses} if kb is not None else {}
    lines = []
    for atom in sorted(closure):
        lines.append(atom)
        if traces is not None and atom in traces:
            for clause_id, premises in traces[atom].steps:
                conclusion = heads.get(clause_id, "?")
                lines.append(f"  {clause_id}: {', '.join(premises)} => {conclusion}")
    return "\n".join(lines) + ("\n" if lines else "")
