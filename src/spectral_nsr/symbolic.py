"""Projection to predicates and forward-chaining inference.

Filtered belief signals are mapped to discrete predicates: node i is true
when y_i > tau (`hard_threshold`), the 0.5 cut of the logistic
expit(alpha (y_i - tau)) (`soft_threshold`) for alpha > 0. True predicates
become facts of a propositional Horn-clause knowledge base, and forward
chaining computes the least fixed point.

Each KB is compiled once, with the KB, into integer form (`CompiledKB`):
an atom index, the clause x premise incidence held by premise, and head
ids. Every closure comes from this form by one counter-based propagation
(Dowling & Gallier 1984): each clause counts its premises not yet known
and fires its head when the count reaches zero. A block's compiled KBs
are laid end to end over the block's atoms (`CompiledBlock`, made once
for a block run many times); `bind_predicates` binds a block's true nodes
in it, and `forward_chain` closes the block at once, one bit per block
atom. On one KB, `forward_chain` runs the same propagation as a queue
that also records one justifying clause per derived atom, and gives the
closure as atoms with replayable proof traces, each built from those
justifications only when it is read, since most callers read none.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import BadParams, DimensionMismatch, FormatError, UnmappedNode, read_text, reading, records
from .spectral import GraphSignal


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

    ``declared`` (the atom set) checks facts, and ``compiled`` (the
    integer form, `CompiledKB`) is what binding and chaining read. Both
    are built once, with the KB, and shared by every `with_facts` copy.
    They rely on the KB never being changed after construction.
    """

    atoms: tuple[str, ...]
    clauses: tuple[Clause, ...] = ()
    facts: frozenset[str] = frozenset()
    exclusive: tuple[tuple[str, str], ...] = ()
    declared: frozenset[str] = field(init=False, repr=False, compare=False)
    compiled: CompiledKB = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(self, "facts", frozenset(self.facts))
        object.__setattr__(self, "exclusive", tuple((a, b) for a, b in self.exclusive))
        declared = frozenset(self.atoms)
        if len(declared) != len(self.atoms):
            raise BadParams("duplicate atom declarations")
        for c in self.clauses:
            missing = ({c.head} | c.body) - declared
            if missing:
                raise BadParams(f"clause {c.clause_id} references undeclared atoms {sorted(missing)}")
        self._check_facts(self.facts, declared)
        for a, b in self.exclusive:
            if a not in declared or b not in declared:
                raise BadParams(f"exclusive pair ({a}, {b}) references undeclared atoms")
        object.__setattr__(self, "declared", declared)
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
    """A KB's atoms and clauses in integer form: what binding, chaining and
    scoring read, for one KB and for a block of KBs.

    Atom i is ``kb.atoms[i]``, and ``index`` maps each atom to its id. The
    clause x premise incidence P is held by premise: entry e says that
    atom ``premises[e]`` is a premise of clause ``clauses[e]``; entries
    are ordered by atom id, then by clause index, so atom a's are
    ``ranges[a]:ranges[a + 1]``, which the chaining queue reads. ``premised``
    holds the atoms that are a premise of some clause. ``sizes`` counts
    each clause's premises and ``heads`` gives its head. ``exclusive``
    holds the exclusive pairs as an (m, 2) array of ids. Base facts are
    not compiled, so a `with_facts` copy can share the form. The arrays
    are read-only.
    """

    def __init__(self, kb: KnowledgeBase):
        self.index = index = dict(zip(kb.atoms, range(len(kb.atoms))))
        self.heads = np.array([index[c.head] for c in kb.clauses], dtype=np.int64)
        self.sizes = np.array([len(c.body) for c in kb.clauses], dtype=np.int64)
        entries = sorted((index[atom], i) for i, c in enumerate(kb.clauses) for atom in c.body)
        self.premises = np.array([atom for atom, _ in entries], dtype=np.int64)
        self.clauses = np.array([i for _, i in entries], dtype=np.int64)
        self.ranges = tuple(np.searchsorted(self.premises, np.arange(len(kb.atoms) + 1)).tolist())
        self.premised = frozenset().union(*(c.body for c in kb.clauses))
        self.exclusive = np.array([(index[a], index[b]) for a, b in kb.exclusive], dtype=np.int64).reshape(-1, 2)
        for array in (self.heads, self.sizes, self.premises, self.clauses, self.exclusive):
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


class CompiledBlock:
    """A block of KBs, each with its graph's node labels, in integer form
    laid end to end: what `bind_predicates` binds a block's true nodes in
    and `forward_chain` closes. Made once, it serves every run of the
    block.

    Atom j of KB i is block atom ``starts[i] + j``; ``starts`` ends with
    the block's atom count. ``label_ids`` holds the block atom of every
    node's label, graph after graph, and -1 where the graph's KB does not
    declare it; ``facts`` holds the block atoms of the KBs' base facts.
    The KBs' clauses as one program (`program`) and their exclusive pairs
    (`exclusive`) are laid end to end, and its premise ranges (`ranges`)
    found, when first read. The arrays are read-only.
    """

    def __init__(self, kbs: Sequence[KnowledgeBase], labels: Sequence[Sequence[str]]):
        self.kbs = tuple(kbs)
        self.labels = tuple(labels)
        ids = [kb.compiled.label_ids(own) for kb, own in zip(self.kbs, self.labels, strict=True)]
        self.starts = np.fromiter(accumulate((len(kb.atoms) for kb in self.kbs), initial=0), np.int64, len(self.kbs) + 1)
        if len(ids) == 1:
            self.label_ids = ids[0]
        else:
            local = np.concatenate(ids)
            self.label_ids = np.where(local < 0, -1, local + np.repeat(self.starts[:-1], [own.size for own in ids]))
        base = [kb.compiled.index[a] + start for kb, start in zip(self.kbs, self.starts.tolist()) for a in kb.facts]
        self.facts = np.array(base, dtype=np.int64)
        for array in (self.starts, self.label_ids, self.facts):
            array.setflags(write=False)

    @cached_property
    def program(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The clauses of every KB over the block's atoms: ``heads``,
        ``sizes``, ``premises`` and ``clauses`` as `CompiledKB` holds them,
        offset-concatenated (a block of one KB's own arrays)."""
        compiled = [kb.compiled for kb in self.kbs]
        if len(compiled) == 1:
            c = compiled[0]
            return c.heads, c.sizes, c.premises, c.clauses
        counts = [(c.sizes.size, c.premises.size) for c in compiled]
        clause_counts, entry_counts = np.array(counts, dtype=np.int64).T
        atom_starts = self.starts[:-1]
        clause_starts = np.cumsum(clause_counts) - clause_counts
        heads = np.concatenate([c.heads for c in compiled]) + np.repeat(atom_starts, clause_counts)
        sizes = np.concatenate([c.sizes for c in compiled])
        premises = np.concatenate([c.premises for c in compiled]) + np.repeat(atom_starts, entry_counts)
        clauses = np.concatenate([c.clauses for c in compiled]) + np.repeat(clause_starts, entry_counts)
        for array in (heads, sizes, premises, clauses):
            array.setflags(write=False)
        return heads, sizes, premises, clauses

    @cached_property
    def ranges(self) -> tuple[int, ...]:
        """Where each block atom's entries of `program` start, then the
        entry count, as `CompiledKB.ranges` (a block of one KB's own)."""
        if len(self.kbs) == 1:
            return self.kbs[0].compiled.ranges
        return tuple(np.searchsorted(self.program[2], np.arange(int(self.starts[-1]) + 1)).tolist())

    @cached_property
    def exclusive(self) -> tuple[np.ndarray, np.ndarray]:
        """Every KB's exclusive pairs as block atoms, (m, 2), and the index
        of the KB of each pair."""
        compiled = [kb.compiled for kb in self.kbs]
        owners = np.repeat(np.arange(len(compiled)), [c.exclusive.shape[0] for c in compiled])
        pairs = np.concatenate([c.exclusive for c in compiled]) + self.starts[owners, None]
        for array in (pairs, owners):
            array.setflags(write=False)
        return pairs, owners


@dataclass(frozen=True, eq=False)
class BoundBlock:
    """A block of KBs with their graphs' true nodes bound as facts: what
    `bind_predicates` gives for a block, and `forward_chain` closes.

    ``block`` lays out the KBs' atoms (`CompiledBlock`), and ``facts``
    holds the block atoms of every bound node and every base fact (an
    atom may appear more than once).
    """

    block: CompiledBlock
    facts: np.ndarray

    @property
    def starts(self) -> np.ndarray:
        """Where each KB's atoms start in the block, then the block's atom count."""
        return self.block.starts

    def bound_kb(self, i: int) -> KnowledgeBase:
        """KB i with its bound facts: its base facts and its graph's true labels."""
        lo, hi = self.starts[i], self.starts[i + 1]
        own = self.facts[(self.facts >= lo) & (self.facts < hi)] - lo
        kb = self.block.kbs[i]
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


def bind_predicates(p: PredicateSet, block: CompiledBlock) -> BoundBlock:
    """Bind each thresholded-true node of a block as a fact of its graph's
    KB: the KB's atom named by the node's label.

    ``p`` holds the nodes of every graph of ``block`` end to end, one value
    per node; any other length raises `DimensionMismatch`. Soft predicate
    sets are cut at 0.5 first. The first graph with a true node whose
    label its KB does not declare raises `UnmappedNode`, naming that
    graph's lowest such node, as its own node index, and its label.
    """
    if len(p) != block.label_ids.size:
        raise DimensionMismatch(f"{len(p)} predicates for a block of {block.label_ids.size} nodes")
    true = p._true()
    facts = block.label_ids[true]
    if facts.size and facts.min() < 0:
        node = int(true[np.argmax(facts < 0)])
        sizes = list(map(len, block.labels))
        graph = bisect_right(list(accumulate(sizes)), node)
        node -= sum(sizes[:graph])
        raise UnmappedNode(f"node {node} is true but its label {block.labels[graph][node]!r} is not a declared atom")
    if block.facts.size:
        facts = np.concatenate([facts, block.facts])
    return BoundBlock(block, facts)


def forward_chain(
    kb: KnowledgeBase | BoundBlock,
) -> tuple[frozenset[str], Mapping[str, ProofTrace]] | tuple[np.ndarray, np.ndarray]:
    """Least fixed point of the clause set over the facts.

    One KB is closed by the queue (`_close_by_queue`) on its compiled
    form, started from its facts that are premises of some clause, in
    sorted order (popping any other fact would count down nothing). Each
    clause fires once, when its last premise is popped, so total work is
    linear in the sum of clause body sizes. Returns the closure and a
    read-only mapping from each closure atom to its replayable trace
    (facts get empty traces), which builds a trace from the first clause
    that derived each atom, only when it is read.

    A `BoundBlock` closes every KB in it at once (`_block_closure`) and
    gives the block atoms of the closures, ascending, and one bit per
    block atom, True for closure atoms; its traces come from
    `BoundBlock.traces`.
    """
    if isinstance(kb, BoundBlock):
        return _block_closure(kb)
    c = kb.compiled
    first = np.fromiter(map(c.index.__getitem__, sorted(kb.facts & c.premised)), np.int64)
    _, why = _close_by_queue(c.ranges, first, c.heads, c.sizes, c.clauses)
    # a clause may also fire for a fact that is not a premise, since only the
    # premises start the queue; such a fact keeps its empty trace
    derived = ((kb.atoms[atom], kb.clauses[clause]) for atom, clause in why.items())
    justification = {atom: clause for atom, clause in derived if atom not in kb.facts}
    closure = kb.facts.union(justification)
    return closure, _LazyTraces(closure, kb.facts, justification)


# a block with at most this many atoms and clause premises together is
# closed by a queue in Python (`_close_by_queue`), a larger one by numpy
# levels (`_close_by_levels`). On a 2-core x86 machine the queue took 10 us
# and the levels 12 to 60 us on one small task, and the two crossed at
# blocks of about 30 small tasks (600 atoms and premises)
QUEUE_LIMIT = 512


def _block_closure(bound: BoundBlock) -> tuple[np.ndarray, np.ndarray]:
    """Every closure of the block, from its KBs' program laid end to end."""
    heads, sizes, premises, clauses = bound.block.program
    n = int(bound.block.starts[-1])
    if n + premises.size <= QUEUE_LIMIT:
        bits, _ = _close_by_queue(bound.block.ranges, bound.facts, heads, sizes, clauses)
        known = np.array(bits, dtype=bool)
    else:
        known = _close_by_levels(n, bound.facts, heads, sizes, premises, clauses)
    known.setflags(write=False)
    return np.flatnonzero(known), known


def _close_by_levels(n, facts, heads, sizes, premises, clauses) -> np.ndarray:
    """The bits of the atoms known from ``facts`` and the heads of clauses
    without premises, one level of newly known atoms per step: remaining
    -= P @ frontier, and every clause whose count reaches zero makes its
    head known. Each atom enters the frontier once, so each clause fires
    once."""
    known = np.zeros(n, dtype=bool)
    known[facts] = True
    known[heads[sizes == 0]] = True
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


def _close_by_queue(ranges, facts, heads, sizes, clauses) -> tuple[list[bool], dict[int, int]]:
    """`_close_by_levels` one atom at a time, on premise ``ranges`` as
    `CompiledKB.ranges` holds them. The queue starts with ``facts`` in
    their order, then fires the clauses without premises in clause order;
    each atom enters it once, when it becomes known, and counts down the
    clauses it is a premise of, in clause order. Returns the bits, as a
    list, and for each atom a clause made known, that clause."""
    heads, remaining, clauses = heads.tolist(), sizes.tolist(), clauses.tolist()
    known = [False] * (len(ranges) - 1)
    queue = []
    for atom in facts.tolist():
        if not known[atom]:
            known[atom] = True
            queue.append(atom)
    why = {}
    for c, size in enumerate(remaining):
        if not size and not known[heads[c]]:
            known[heads[c]] = True
            why[heads[c]] = c
            queue.append(heads[c])
    for atom in queue:  # grows while it is read
        for c in clauses[ranges[atom] : ranges[atom + 1]]:
            remaining[c] -= 1
            if not remaining[c] and not known[heads[c]]:
                known[heads[c]] = True
                why[heads[c]] = c
                queue.append(heads[c])
    return known, why


class _LazyTraces(Mapping):
    """Closure atom -> `ProofTrace`, each trace built when it is read.

    Iterates in sorted atom order; ``len`` and ``in`` read the closure.
    """

    def __init__(self, closure: frozenset[str], facts: frozenset[str], justification: dict[str, Clause]):
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
        clause = justification[current]
        premises = tuple(sorted(clause.body))
        if expanded:
            done.add(current)
            steps.append((clause.clause_id, premises))
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
    for lineno, line in records(text):
        with reading(f"line {lineno}"):
            parts = line.split(maxsplit=1)
            kind = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if kind == "atom":
                if not rest or len(rest.split()) != 1:
                    raise FormatError("expected 'atom <name>'")
                atoms.append(rest)
            elif kind == "fact":
                if not rest or len(rest.split()) != 1:
                    raise FormatError("expected 'fact <name>'")
                facts.add(rest)
            elif kind == "clause":
                if ":-" not in rest:
                    raise FormatError("expected 'clause <head> :- <body>'")
                head, body_text = rest.split(":-", 1)
                head = head.strip()
                body = frozenset(tok.strip() for tok in body_text.split(",") if tok.strip())
                if not head:
                    raise FormatError("clause without a head")
                clauses.append(Clause(f"c{len(clauses)}", head, body))
            elif kind == "exclusive":
                toks = rest.split()
                if len(toks) != 2:
                    raise FormatError("expected 'exclusive <a> <b>'")
                exclusive.append((toks[0], toks[1]))
            else:
                raise FormatError(f"unknown record {kind!r}")
    with reading():
        return KnowledgeBase(tuple(atoms), tuple(clauses), frozenset(facts), tuple(exclusive))


def serialize_kb(kb: KnowledgeBase) -> str:
    lines = [f"atom {a}" for a in kb.atoms]
    for c in kb.clauses:
        body = ", ".join(sorted(c.body))
        lines.append(f"clause {c.head} :- {body}")
    lines += [f"fact {a}" for a in sorted(kb.facts)]
    lines += [f"exclusive {a} {b}" for a, b in kb.exclusive]
    return "\n".join(lines) + "\n"


def load_kb(path: str | Path) -> KnowledgeBase:
    with reading(path):
        return parse_kb(read_text(path))


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
