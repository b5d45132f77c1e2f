"""Projection to predicates and forward-chaining inference.

Filtered belief signals are mapped to discrete predicates by hard or
logistic thresholding; true predicates become facts of a propositional
Horn-clause knowledge base, and forward chaining computes the least fixed
point.

On one KB, a semi-naive chainer (`forward_chain`) gives the closure as
atoms together with replayable proof traces. It queues only the facts
that are premises of some clause, and records one justifying clause per
derived atom; a proof trace is built from those justifications only when
it is read, since most callers read none.

On a block of KBs, binding and chaining run once for the whole block.
Each KB is compiled once into integer form (`CompiledKB`): an atom index,
the clause x premise incidence held by premise, and head ids. A block's
compiled KBs are offset-concatenated into one program over the block's
atoms, and every closure comes from one counter-based propagation
(Dowling & Gallier 1984): each clause counts its premises not yet known
and fires its head when the count reaches zero. The result is one bit
per block atom; a KB's traces are made from its bound KB by the
one-KB chainer, and only when they are read.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, repeat
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
        return self._true().tolist()

    def _true(self) -> np.ndarray:
        return np.flatnonzero(self.values > 0.5 if self.soft else self.values)


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
    of the clauses it appears in) are read by binding and chaining one
    KB, and ``compiled`` (the integer form, `CompiledKB`) by binding and
    chaining a block. All three are built once, with the KB, and shared
    by every `with_facts` copy. They rely on the KB never being changed
    after construction.
    """

    atoms: tuple[str, ...]
    clauses: tuple[Clause, ...] = ()
    facts: frozenset[str] = frozenset()
    exclusive: tuple[tuple[str, str], ...] = ()
    declared: frozenset[str] = field(init=False, repr=False, compare=False)
    by_premise: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    compiled: CompiledKB = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "compiled", CompiledKB(self))

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


class CompiledKB:
    """A KB's atoms and clauses in integer form, for binding, chaining and
    scoring a block of KBs.

    Atom i is ``kb.atoms[i]``, and ``index`` maps each atom to its id. The
    clause x premise incidence P is held by premise, as ``by_premise``
    holds it: entry e says that atom ``premises[e]`` is a premise of
    clause ``clauses[e]``, and entries are grouped by atom in ascending
    order. ``sizes`` counts each clause's premises and ``heads`` gives
    its head. ``exclusive`` holds the exclusive pairs as pairs of ids. Base
    facts are not compiled, so a `with_facts` copy can share the form.
    The arrays are read-only.
    """

    def __init__(self, kb: KnowledgeBase):
        self.index = index = dict(zip(kb.atoms, range(len(kb.atoms))))
        self.heads = np.array([index[c.head] for c in kb.clauses], dtype=np.int64)
        self.sizes = np.array([len(c.body) for c in kb.clauses], dtype=np.int64)
        grouped = sorted((index[atom], clauses) for atom, clauses in kb.by_premise.items())
        self.premises = np.array([atom for atom, clauses in grouped for _ in clauses], dtype=np.int64)
        self.clauses = np.array([c for _, clauses in grouped for c in clauses], dtype=np.int64)
        self.exclusive = tuple((index[a], index[b]) for a, b in kb.exclusive)
        for array in (self.heads, self.sizes, self.premises, self.clauses):
            array.setflags(write=False)
        self._labels = (None, None)

    def label_ids(self, labels: Sequence[str]) -> np.ndarray:
        """Each label's atom id, or -1 for a label the KB does not declare.

        The ids of the last ``labels`` asked for are kept while the same
        sequence object is asked for again, so a KB run on one graph maps
        that graph's labels once.
        """
        kept, ids = self._labels
        if kept is not labels:
            ids = np.fromiter(map(self.index.get, labels, repeat(-1)), np.int64, len(labels))
            ids.setflags(write=False)
            self._labels = (labels, ids)
        return ids


@dataclass(frozen=True, eq=False)
class BoundBlock:
    """A block of KBs with their graphs' true nodes bound as facts: what
    `bind_predicates` gives for a block, and `forward_chain` closes.

    Atom j of KB i is block atom ``starts[i] + j``; ``starts`` ends with
    the block's atom count. ``facts`` holds the block atoms of every base
    fact and every bound node (an atom may appear more than once).
    """

    kbs: tuple[KnowledgeBase, ...]
    starts: np.ndarray
    facts: np.ndarray

    def bound_kb(self, i: int) -> KnowledgeBase:
        """KB i with its bound facts, the KB `bind_predicates` gives for its graph alone."""
        lo, hi = self.starts[i], self.starts[i + 1]
        own = self.facts[(self.facts >= lo) & (self.facts < hi)] - lo
        kb = self.kbs[i]
        return kb._plus_checked_facts(frozenset(map(kb.atoms.__getitem__, own.tolist())))

    def traces(self, i: int) -> Mapping[str, ProofTrace]:
        """KB i's proof traces, from `forward_chain` on its bound KB alone."""
        return forward_chain(self.bound_kb(i))[1]


@dataclass(frozen=True)
class ProofTrace:
    """Derivation record: ordered (clause_id, premises) steps ending at ``atom``.

    Base facts carry an empty step list.
    """

    atom: str
    steps: tuple[tuple[str, tuple[str, ...]], ...] = ()


def bind_predicates(
    p: PredicateSet,
    kb: KnowledgeBase | Sequence[KnowledgeBase],
    labels: Sequence[str] | Sequence[Sequence[str]],
) -> KnowledgeBase | BoundBlock:
    """Insert each thresholded-true node i into the KB as the fact ``labels[i]``.

    Soft predicate sets are cut at 0.5 first. A true node whose label
    ``kb`` does not declare raises `UnmappedNode`, naming the lowest such
    node and its label.

    A list of KBs, with one label sequence per KB, binds a block: ``p``
    holds the nodes of every graph end to end, graph i's nodes as many as
    ``labels[i]``. The result is a `BoundBlock`. The first graph with an
    undeclared true label raises the error it raises alone, naming its
    own node index.
    """
    if not isinstance(kb, KnowledgeBase):
        return _bind_block(p, tuple(kb), labels)
    nodes = p.true_nodes()
    new_facts = frozenset(map(labels.__getitem__, nodes))
    if not new_facts <= kb.declared:
        node = next(node for node in nodes if labels[node] not in kb.declared)
        raise UnmappedNode(f"node {node} is true but its label {labels[node]!r} is not a declared atom")
    return kb._plus_checked_facts(new_facts)


def _bind_block(p: PredicateSet, kbs: tuple[KnowledgeBase, ...], labels) -> BoundBlock:
    ids = [kb.compiled.label_ids(own) for kb, own in zip(kbs, labels, strict=True)]
    starts = np.fromiter(accumulate(map(len, (kb.atoms for kb in kbs)), initial=0), np.int64, len(kbs) + 1)
    true = p._true()
    facts = (ids[0] if len(ids) == 1 else np.concatenate(ids))[true]
    sizes = [own.size for own in ids]
    if facts.size and facts.min() < 0:
        node = int(true[np.argmax(facts < 0)])
        graph = bisect_right(list(accumulate(sizes)), node)
        node -= sum(sizes[:graph])
        raise UnmappedNode(f"node {node} is true but its label {labels[graph][node]!r} is not a declared atom")
    if len(ids) > 1:
        facts += np.repeat(starts[:-1], sizes)[true]
    if any(kb.facts for kb in kbs):
        base = [kb.compiled.index[a] + start for kb, start in zip(kbs, starts.tolist()) for a in kb.facts]
        facts = np.concatenate([facts, np.array(base, dtype=np.int64)])
    return BoundBlock(kbs, starts, facts)


def forward_chain(
    kb: KnowledgeBase | BoundBlock,
) -> tuple[frozenset[str], Mapping[str, ProofTrace]] | tuple[np.ndarray, np.ndarray]:
    """Least fixed point of the clause set over the facts.

    Semi-naive: each clause keeps a count of unsatisfied premises and
    fires exactly once, when the count reaches zero, so total work is
    linear in the sum of clause body sizes. The queue starts with the
    facts that are premises of some clause, in sorted order; popping any
    other fact would decrement nothing. Returns the closure and a
    read-only mapping from each closure atom to its replayable trace
    (facts get empty traces), which builds a trace only when it is read.

    A `BoundBlock` closes every KB in it at once (`_block_closure`) and
    gives the block atoms of the closures, ascending, and one bit per
    block atom, True for closure atoms; its traces come from
    `BoundBlock.traces`.
    """
    if isinstance(kb, BoundBlock):
        return _block_closure(kb)
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


# a block with at most this many atoms and clause premises together is
# closed by a queue in Python (`_close_by_queue`), a larger one by numpy
# levels (`_close_by_levels`). On a 2-core x86 machine the queue took 10 us
# and the levels 12 to 60 us on one small task, and the two crossed at
# blocks of about 30 small tasks (600 atoms and premises)
QUEUE_LIMIT = 512


def _block_closure(block: BoundBlock) -> tuple[np.ndarray, np.ndarray]:
    """Every closure of the block, from its KBs' compiled forms laid end to end."""
    compiled = [kb.compiled for kb in block.kbs]
    if len(compiled) == 1:
        c = compiled[0]
        heads, sizes, premises, clauses = c.heads, c.sizes, c.premises, c.clauses
    else:
        counts = [(c.sizes.size, c.premises.size) for c in compiled]
        clause_counts, entry_counts = np.array(counts, dtype=np.int64).T
        atom_starts = block.starts[:-1]
        clause_starts = np.cumsum(clause_counts) - clause_counts
        heads = np.concatenate([c.heads for c in compiled]) + np.repeat(atom_starts, clause_counts)
        sizes = np.concatenate([c.sizes for c in compiled])
        premises = np.concatenate([c.premises for c in compiled]) + np.repeat(atom_starts, entry_counts)
        clauses = np.concatenate([c.clauses for c in compiled]) + np.repeat(clause_starts, entry_counts)
    # the facts, and the heads of clauses without premises, are known first
    first = np.concatenate([block.facts, heads[sizes == 0]])
    n = int(block.starts[-1])
    close = _close_by_queue if n + premises.size <= QUEUE_LIMIT else _close_by_levels
    known = close(n, first, heads, sizes, premises, clauses)
    known.setflags(write=False)
    return np.flatnonzero(known), known


def _close_by_levels(n, first, heads, sizes, premises, clauses) -> np.ndarray:
    """The bits of the atoms known from ``first``, one level of newly known
    atoms per step: remaining -= P @ frontier, and every clause whose count
    reaches zero makes its head known. Each atom enters the frontier once,
    so each clause fires once."""
    known = np.zeros(n, dtype=bool)
    known[first] = True
    remaining = sizes.copy()
    frontier = known.copy()
    while True:
        hits = np.bincount(clauses[frontier[premises]], minlength=remaining.size)
        remaining -= hits
        frontier = np.zeros_like(known)
        frontier[heads[(remaining == 0) & (hits > 0)]] = True
        frontier &= ~known
        if not frontier.any():
            return known
        known |= frontier


def _close_by_queue(n, first, heads, sizes, premises, clauses) -> np.ndarray:
    """`_close_by_levels` one atom at a time: each atom enters the queue
    once, when it becomes known, and counts down the clauses it is a
    premise of."""
    starts = np.searchsorted(premises, np.arange(n + 1)).tolist()
    heads, remaining, clauses = heads.tolist(), sizes.tolist(), clauses.tolist()
    known = [False] * n
    queue = []
    for atom in first.tolist():
        if not known[atom]:
            known[atom] = True
            queue.append(atom)
    for atom in queue:  # grows while it is read
        for c in clauses[starts[atom] : starts[atom + 1]]:
            remaining[c] -= 1
            if not remaining[c] and not known[heads[c]]:
                known[heads[c]] = True
                queue.append(heads[c])
    return np.array(known, dtype=bool)


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
