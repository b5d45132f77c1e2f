import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_nsr import symbolic
from spectral_nsr.errors import BadParams, DimensionMismatch, FormatError, UnmappedNode
from spectral_nsr.harness import evaluate, gen_dataset
from spectral_nsr.pipeline import REFERENCE_LAMBDA_MAX
from spectral_nsr.rules import load_rules
from spectral_nsr.spectral import vertex_signal
from spectral_nsr.symbolic import (
    Clause,
    CompiledBlock,
    KnowledgeBase,
    PredicateSet,
    ProofTrace,
    bind_predicates,
    detect_conflicts,
    format_closure,
    forward_chain,
    hard_threshold,
    load_kb,
    parse_kb,
    replay_trace,
    save_kb,
    serialize_kb,
    soft_threshold,
)
from spectral_nsr.trainer import Checkpoint

DATA = Path(__file__).parent / "data"


def brute_force_minimal_model(kb: KnowledgeBase) -> frozenset:
    """Intersection of all truth assignments satisfying facts and clauses.

    For Horn clauses the intersection of models is itself a model, and it
    is the least fixed point forward chaining must compute.
    """
    atoms = list(kb.atoms)
    minimal = None
    for bits in itertools.product([False, True], repeat=len(atoms)):
        model = {a for a, b in zip(atoms, bits) if b}
        if not kb.facts <= model:
            continue
        if any(c.body <= model and c.head not in model for c in kb.clauses):
            continue
        minimal = model if minimal is None else (minimal & model)
    return frozenset(minimal)


def random_kb(rng, max_atoms=10, max_clauses=15):
    n_atoms = int(rng.integers(2, max_atoms + 1))
    atoms = [f"a{i}" for i in range(n_atoms)]
    clauses = []
    for k in range(int(rng.integers(0, max_clauses + 1))):
        head = atoms[int(rng.integers(0, n_atoms))]
        body_size = int(rng.integers(0, 4))
        body = frozenset(atoms[int(rng.integers(0, n_atoms))] for _ in range(body_size))
        clauses.append(Clause(f"c{k}", head, body - {head}))
    n_facts = int(rng.integers(0, max(n_atoms // 2, 1) + 1))
    facts = frozenset(atoms[int(rng.integers(0, n_atoms))] for _ in range(n_facts))
    return KnowledgeBase(tuple(atoms), tuple(clauses), facts)


class TestHardThreshold:
    def test_basic_indicator(self):
        p = hard_threshold(vertex_signal([0.9, 0.1]), 0.5)
        assert p.values.tolist() == [True, False]

    def test_tie_is_false(self):
        p = hard_threshold(vertex_signal([0.5]), 0.5)
        assert not p.values[0]

    def test_matches_scalar_loop(self, rng):
        y = rng.standard_normal(40)
        tau = float(rng.standard_normal())
        p = hard_threshold(vertex_signal(y), tau)
        for i in range(40):
            assert bool(p.values[i]) == (y[i] > tau)


class TestSoftThreshold:
    def test_midpoint(self):
        p = soft_threshold(vertex_signal([0.3]), 0.3, 2.0)
        assert p.values[0] == pytest.approx(0.5)

    def test_saturation(self):
        p = soft_threshold(vertex_signal([20.0]), 0.0, 1.0)
        assert p.values[0] >= 1.0 - 1e-6

    def test_sigma_of_one(self):
        p = soft_threshold(vertex_signal([0.5]), 0.0, 2.0)
        assert p.values[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)

    def test_overflow_safe(self):
        p = soft_threshold(vertex_signal([-100.0, 100.0]), 0.0, 1e6)
        assert p.values[0] == 0.0
        assert p.values[1] == 1.0

    def test_monotone_in_y(self, rng):
        y = np.sort(rng.standard_normal(30))
        p = soft_threshold(vertex_signal(y), 0.2, 3.0)
        assert np.all(np.diff(p.values) >= 0)

    def test_derivative_matches_finite_differences(self, rng):
        alpha, tau = 2.5, 0.1
        y = rng.uniform(-1, 1, size=20)
        h = 1e-6
        up = soft_threshold(vertex_signal(y + h), tau, alpha).values
        down = soft_threshold(vertex_signal(y - h), tau, alpha).values
        fd = (up - down) / (2 * h)
        p = soft_threshold(vertex_signal(y), tau, alpha).values
        analytic = alpha * p * (1 - p)
        assert np.abs(fd - analytic).max() <= 1e-6 * np.abs(analytic).max()

    def test_hard_equals_saturated_soft(self, rng):
        y = rng.uniform(-1, 1, size=200)
        tau = 0.1
        keep = np.abs(y - tau) >= 1e-3
        hard = hard_threshold(vertex_signal(y), tau).values
        soft = soft_threshold(vertex_signal(y), tau, 1e4).values
        assert np.array_equal(hard[keep], (soft > 0.5)[keep])

    def test_alpha_required_positive(self):
        with pytest.raises(BadParams, match="alpha"):
            soft_threshold(vertex_signal([0.0]), 0.5, 0.0)


def bind_alone(p, kb, labels):
    """The KB ``kb`` with ``p``'s true nodes bound, from a block of one graph."""
    return bind_predicates(p, CompiledBlock([kb], [labels])).bound_kb(0)


class TestBindPredicates:
    def kb3(self):
        return KnowledgeBase(("A", "B", "C"), (), frozenset({"C"}))

    def test_empty_predicates_leave_kb_unchanged(self):
        kb = self.kb3()
        out = bind_alone(PredicateSet(np.zeros(3, dtype=bool), soft=False), kb, ("A", "B", "C"))
        assert out.facts == kb.facts

    def test_single_true_node(self):
        kb = self.kb3()
        p = PredicateSet(np.array([True, False, False]), soft=False)
        out = bind_alone(p, kb, ("A", "B", "C"))
        assert out.facts == frozenset({"A", "C"})

    def test_soft_cut_at_half(self):
        kb = self.kb3()
        p = PredicateSet(np.array([0.51, 0.5, 0.49]), soft=True)
        out = bind_alone(p, kb, ("A", "B", "C"))
        assert out.facts == frozenset({"A", "C"})

    def test_matches_set_union_oracle(self, rng):
        atoms = tuple(f"a{i}" for i in range(10))
        kb = KnowledgeBase(atoms, (), frozenset({"a0"}))
        values = rng.random(10) > 0.5
        out = bind_alone(PredicateSet(values, soft=False), kb, atoms)
        expected = frozenset({"a0"}) | {f"a{i}" for i in range(10) if values[i]}
        assert out.facts == expected

    def test_unmapped_node(self):
        kb = self.kb3()
        p = PredicateSet(np.array([True]), soft=False)
        with pytest.raises(UnmappedNode):
            bind_alone(p, kb, ("Z",))

    @pytest.mark.parametrize(
        "labels, message",
        [
            (("A", "X", "A", "Z"), "node 1 is true but its label 'X'"),  # node 3 undeclared too
            (("A", "Z", "X", "A"), "node 1 is true but its label 'Z'"),  # node 2 undeclared too
            (("A", "B", "Y", "Z"), "node 2 is true but its label 'Y'"),  # node 3 undeclared too
        ],
        ids=["node-1-before-3", "node-1-before-2", "node-2-before-3"],
    )
    def test_lowest_undeclared_label_is_named(self, labels, message):
        p = PredicateSet(np.array([False, True, True, True]), soft=False)
        with pytest.raises(UnmappedNode, match=message):
            bind_alone(p, self.kb3(), labels)


    @pytest.mark.parametrize("n", [1, 3])
    def test_predicates_cover_the_block_exactly(self, n):
        # a shorter p would bind only the nodes it covers, a longer one
        # would index past the block's labels
        block = CompiledBlock([self.kb3()], [("A", "B")])
        with pytest.raises(DimensionMismatch, match=f"{n} predicates for a block of 2 nodes"):
            bind_predicates(PredicateSet(np.ones(n, dtype=bool), soft=False), block)


class TestForwardChain:
    def test_single_step(self):
        kb = KnowledgeBase(("A", "B"), (Clause("c0", "B", frozenset({"A"})),), frozenset({"A"}))
        closure, traces = forward_chain(kb)
        assert closure == frozenset({"A", "B"})
        assert traces["B"].steps == (("c0", ("A",)),)

    def test_no_clauses(self):
        kb = KnowledgeBase(("A", "B"), (), frozenset({"B"}))
        closure, traces = forward_chain(kb)
        assert closure == frozenset({"B"})
        assert traces["B"].steps == ()

    def test_empty_body_clause_fires(self):
        kb = KnowledgeBase(("A",), (Clause("c0", "A", frozenset()),), frozenset())
        closure, _ = forward_chain(kb)
        assert closure == frozenset({"A"})

    def test_matches_brute_force_minimal_model(self, rng):
        for _ in range(60):
            kb = random_kb(rng)
            closure, traces = forward_chain(kb)
            assert closure == brute_force_minimal_model(kb)
            for atom in closure:
                assert replay_trace(kb, traces[atom])

    def test_monotone_in_facts(self, rng):
        for _ in range(20):
            kb = random_kb(rng)
            closure, _ = forward_chain(kb)
            extra = kb.atoms[int(rng.integers(0, len(kb.atoms)))]
            bigger, _ = forward_chain(kb.with_facts({extra}))
            assert closure <= bigger

    def test_idempotent(self, rng):
        for _ in range(20):
            kb = random_kb(rng)
            closure, _ = forward_chain(kb)
            again, _ = forward_chain(KnowledgeBase(kb.atoms, kb.clauses, closure))
            assert again == closure

    def test_trace_soundness_diamond(self):
        clauses = (
            Clause("c0", "B", frozenset({"A"})),
            Clause("c1", "C", frozenset({"A"})),
            Clause("c2", "D", frozenset({"B", "C"})),
        )
        kb = KnowledgeBase(("A", "B", "C", "D"), clauses, frozenset({"A"}))
        closure, traces = forward_chain(kb)
        assert closure == frozenset({"A", "B", "C", "D"})
        assert replay_trace(kb, traces["D"])
        # D's trace must include both premises' derivations before c2
        step_ids = [cid for cid, _ in traces["D"].steps]
        assert step_ids.index("c2") == len(step_ids) - 1
        assert {"c0", "c1"} <= set(step_ids)

    def test_replay_rejects_tampered_trace(self):
        kb = KnowledgeBase(("A", "B"), (Clause("c0", "B", frozenset({"A"})),), frozenset())
        # premises not in facts: replay must fail
        bogus = ProofTrace("B", (("c0", ("A",)),))
        assert not replay_trace(kb, bogus)


class TestTracesMapping:
    def chain(self):
        clauses = (
            Clause("c0", "B", frozenset({"A"})),
            Clause("c1", "D", frozenset({"B", "C"})),
            Clause("c2", "E", frozenset({"F"})),
        )
        return forward_chain(KnowledgeBase(("A", "B", "C", "D", "E", "F"), clauses, frozenset({"C", "A"})))

    def test_reads_like_a_plain_dict(self):
        closure, traces = self.chain()
        assert len(traces) == len(closure) == 4
        assert list(traces) == ["A", "B", "C", "D"]
        assert "B" in traces and "E" not in traces and "F" not in traces
        for missing in ("E", "F", "nowhere"):
            with pytest.raises(KeyError):
                traces[missing]
        assert traces.get("E") is None
        expected = {
            "A": ProofTrace("A"),
            "B": ProofTrace("B", (("c0", ("A",)),)),
            "C": ProofTrace("C"),
            "D": ProofTrace("D", (("c0", ("A",)), ("c1", ("B", "C")))),
        }
        assert traces == expected and expected == traces
        assert dict(traces) == expected
        assert traces != {**expected, "E": ProofTrace("E")}

    def test_read_only(self):
        _, traces = self.chain()
        with pytest.raises(TypeError):
            traces["B"] = ProofTrace("B")


@pytest.fixture
def built(monkeypatch):
    """Atoms whose trace `symbolic._build_trace` built, in call order."""
    atoms = []
    original = symbolic._build_trace

    def counting(atom, facts, justification):
        atoms.append(atom)
        return original(atom, facts, justification)

    monkeypatch.setattr(symbolic, "_build_trace", counting)
    return atoms


class TestTracesBuiltOnRead:
    def test_only_the_trace_read_is_built(self, built):
        n = 400
        atoms = tuple(f"a{i}" for i in range(n))
        clauses = tuple(Clause(f"c{i}", atoms[i + 1], frozenset({atoms[i]})) for i in range(n // 2, n - 1))
        facts = frozenset(atoms[: n // 2 + 1])
        closure, traces = forward_chain(KnowledgeBase(atoms, clauses, facts))
        assert closure == frozenset(atoms) and built == []
        assert traces["a0"] == ProofTrace("a0") and built == []
        assert len(traces["a210"].steps) == 10
        assert built == ["a210"]

    def test_an_evaluate_block_builds_none(self, built):
        rules = load_rules(DATA / "reference_rules.txt", REFERENCE_LAMBDA_MAX)
        pipe = Checkpoint.load(DATA / "reference_checkpoint.json").pipeline(rules=rules)
        tasks = gen_dataset("transitive", 6, seed=3)
        assert evaluate(pipe, tasks, measure_latency=False).accuracy > 0.5
        assert built == []
        task, out = tasks[1], pipe.run_tasks(tasks)[1]
        derived = set(out.answers) - {task.node_atoms[i] for i in out.predicates.true_nodes()}
        assert derived and built == []
        for atom in out.answers:
            out.traces[atom]
        assert sorted(built) == sorted(derived)


class TestDetectConflicts:
    def test_pair_both_derived(self):
        kb = KnowledgeBase(("A", "NA"), (), frozenset({"A", "NA"}), (("A", "NA"),))
        closure, _ = forward_chain(kb)
        assert detect_conflicts(kb, closure) == [("A", "NA")]

    def test_no_exclusives(self):
        kb = KnowledgeBase(("A",), (), frozenset({"A"}))
        assert detect_conflicts(kb, frozenset({"A"})) == []

    def test_matches_pairwise_scan(self, rng):
        for _ in range(30):
            kb = random_kb(rng)
            n = len(kb.atoms)
            pairs = []
            for _ in range(int(rng.integers(0, 5))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    pairs.append((kb.atoms[int(a)], kb.atoms[int(b)]))
            kb = KnowledgeBase(kb.atoms, kb.clauses, kb.facts, tuple(pairs))
            closure, _ = forward_chain(kb)
            got = detect_conflicts(kb, closure)
            want = [(a, b) for a, b in pairs if a in closure and b in closure]
            assert got == want


class TestKbFiles:
    SAMPLE = "atom A\natom B\natom C\nclause B :- A\nclause C :- A, B\nfact A\nexclusive B C\n"

    def test_parse(self):
        kb = parse_kb(self.SAMPLE)
        assert kb.atoms == ("A", "B", "C")
        assert kb.facts == frozenset({"A"})
        assert kb.clauses[1].body == frozenset({"A", "B"})
        assert kb.exclusive == (("B", "C"),)

    def test_round_trip(self):
        kb = parse_kb(self.SAMPLE)
        assert parse_kb(serialize_kb(kb)) == kb

    def test_file_round_trip(self, tmp_path):
        kb = parse_kb(self.SAMPLE)
        save_kb(kb, tmp_path / "kb.txt")
        assert load_kb(tmp_path / "kb.txt") == kb

    @pytest.mark.parametrize(
        "text",
        [
            "clause B :- A\n",  # undeclared atoms
            "atom A\nclause :- A\n",  # missing head
            "atom A\nfact A B\n",  # malformed fact
            "atom A\nwhatever A\n",  # unknown record
            "atom A\natom A\n",  # duplicate declaration
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(FormatError):
            parse_kb(text)

    def test_format_closure_with_traces(self):
        kb = parse_kb("atom A\natom B\nclause B :- A\nfact A\n")
        closure, traces = forward_chain(kb)
        text = format_closure(closure, traces, kb=kb)
        assert "A\n" in text
        assert "c0: A => B" in text


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_forward_chain_always_contains_facts_and_terminates(seed):
    rng = np.random.default_rng(seed)
    kb = random_kb(rng, max_atoms=8, max_clauses=12)
    closure, traces = forward_chain(kb)
    assert kb.facts <= closure
    assert set(traces) == set(closure)
    for atom in closure:
        assert replay_trace(kb, traces[atom])


def reference_forward_chain(kb: KnowledgeBase) -> dict[str, ProofTrace]:
    """Traces by a plain re-implementation of forward_chain's firing order.

    Atoms are popped in queue order (sorted facts, then heads as they are
    derived); a clause fires when the last of its premises is popped,
    clauses in declaration order. Each trace is a post-order walk over the
    justifying clauses, premises visited last to first, skipping facts and
    atoms already placed.
    """
    closure = set(kb.facts)
    justification = {}
    queue = sorted(kb.facts)

    def fire(clause):
        if clause.head not in closure:
            closure.add(clause.head)
            justification[clause.head] = (clause.clause_id, tuple(sorted(clause.body)))
            queue.append(clause.head)

    for clause in kb.clauses:
        if not clause.body:
            fire(clause)
    popped = set()
    for atom in queue:  # grows while iterating
        popped.add(atom)
        for clause in kb.clauses:
            if atom in clause.body and clause.body <= popped:
                fire(clause)

    def trace(atom):
        steps, placed = [], set()

        def visit(a):
            if a in kb.facts or a in placed:
                return
            clause_id, premises = justification[a]
            for p in reversed(premises):
                visit(p)
            placed.add(a)
            steps.append((clause_id, premises))

        visit(atom)
        return ProofTrace(atom, tuple(steps))

    return {atom: trace(atom) for atom in closure}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_traces_on_kbs_with_many_facts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    atoms = [f"a{i}" for i in range(n)]
    clauses = []
    for k in range(int(rng.integers(n // 2, 3 * n))):
        head = atoms[int(rng.integers(0, n))]
        body = frozenset(atoms[int(i)] for i in rng.integers(0, n, size=int(rng.integers(0, 4))))
        clauses.append(Clause(f"c{k}", head, body - {head}))
    facts = frozenset(a for a in atoms if rng.random() < rng.uniform(0.2, 0.8))
    kb = KnowledgeBase(tuple(atoms), tuple(clauses), facts)
    heads = {c.clause_id: c.head for c in clauses}

    closure, traces = forward_chain(kb)
    assert traces == reference_forward_chain(kb)
    for atom in closure:
        trace = traces[atom]
        assert replay_trace(kb, trace)
        step_heads = [heads[clause_id] for clause_id, _ in trace.steps]
        assert not set(step_heads) & facts
        assert len(set(trace.steps)) == len(trace.steps)
        assert len(set(step_heads)) == len(step_heads)


def test_with_facts_shares_indexes_and_checks_new_facts():
    kb = KnowledgeBase(("A", "B"), (Clause("c0", "B", frozenset({"A"})),))
    bound = kb.with_facts({"A"})
    assert bound.facts == frozenset({"A"}) and kb.facts == frozenset()
    assert bound.declared is kb.declared and bound.compiled is kb.compiled
    assert bound == KnowledgeBase(kb.atoms, kb.clauses, frozenset({"A"}))
    with pytest.raises(BadParams, match="undeclared"):
        kb.with_facts({"Z"})


def many_facts_kb(rng):
    """A KB of 20 to 60 atoms with clauses in cycles and up to 80% of its atoms as base facts."""
    n = int(rng.integers(20, 60))
    atoms = [f"m{i}" for i in range(n)]
    clauses = []
    for k in range(int(rng.integers(n // 2, 3 * n))):
        head = atoms[int(rng.integers(0, n))]
        body = frozenset(atoms[int(i)] for i in rng.integers(0, n, size=int(rng.integers(0, 4))))
        clauses.append(Clause(f"c{k}", head, body - {head}))
    facts = frozenset(a for a in atoms if rng.random() < rng.uniform(0.0, 0.8))
    return KnowledgeBase(tuple(atoms), tuple(clauses), facts)


class TestBlockClosure:
    """Binding and chaining a block of KBs gives each KB what it gives alone."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), queue=st.booleans())
    def test_each_kb_closes_as_it_does_alone(self, seed, queue):
        rng = np.random.default_rng(seed)
        kbs = []
        for _ in range(int(rng.integers(1, 6))):
            if kbs and rng.random() < 0.25:
                kbs.append(kbs[int(rng.integers(len(kbs)))])  # the same KB twice
            else:
                kbs.append(random_kb(rng, max_atoms=8) if rng.random() < 0.5 else many_facts_kb(rng))
        # each graph's nodes name atoms of its KB, some more than once
        labels = [tuple(kb.atoms[int(i)] for i in rng.integers(0, len(kb.atoms), size=int(rng.integers(0, 12)))) for kb in kbs]
        soft = bool(rng.random() < 0.5)
        values = rng.random(sum(map(len, labels)))
        p = PredicateSet(values if soft else values < rng.random(), soft=soft)
        # both ways of propagating: a queue in Python and numpy levels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symbolic, "QUEUE_LIMIT", 10**9 if queue else -1)
            block = bind_predicates(p, CompiledBlock(kbs, labels))
            atoms, known = forward_chain(block)
        assert np.array_equal(atoms, np.flatnonzero(known))
        assert known.size == block.starts[-1] == sum(len(kb.atoms) for kb in kbs)
        start = 0
        for i, (kb, own) in enumerate(zip(kbs, labels)):
            alone = bind_alone(PredicateSet(p.values[start : start + len(own)], soft=soft), kb, own)
            start += len(own)
            closure, traces = forward_chain(alone)
            bits = known[block.starts[i] : block.starts[i + 1]]
            assert frozenset(np.asarray(kb.atoms)[bits].tolist()) == closure
            assert block.bound_kb(i) == alone
            assert block.traces(i) == traces
            if len(kb.atoms) <= 8:
                assert closure == brute_force_minimal_model(alone)

    def test_a_compiled_block_binds_as_its_lists_every_time(self):
        rng = np.random.default_rng(11)
        kbs = [random_kb(rng, max_atoms=8), many_facts_kb(rng), random_kb(rng, max_atoms=8)]
        kbs[0] = KnowledgeBase(kbs[0].atoms, kbs[0].clauses, exclusive=((kbs[0].atoms[0], kbs[0].atoms[1]),))
        labels = [tuple(kb.atoms[int(i)] for i in rng.integers(0, len(kb.atoms), size=6)) for kb in kbs]
        block = CompiledBlock(kbs, labels)
        for _ in range(3):
            p = PredicateSet(rng.random(18) < 0.4, soft=False)
            kept, fresh = bind_predicates(p, block), bind_predicates(p, CompiledBlock(kbs, labels))
            assert np.array_equal(kept.facts, fresh.facts) and np.array_equal(kept.starts, fresh.starts)
            assert np.array_equal(forward_chain(kept)[1], forward_chain(fresh)[1])
        pairs, owners = block.exclusive
        assert pairs.tolist() == [[0, 1]] and owners.tolist() == [0]

    def test_undeclared_label_names_the_first_failing_graphs_own_node(self):
        kb = KnowledgeBase(("A", "B"))
        p = PredicateSet(np.array([True, True, False, True, True, True]), soft=False)
        labels = [("A", "B"), ("A", "Z", "Y"), ("X",)]
        with pytest.raises(UnmappedNode, match="node 1 is true but its label 'Z'"):
            bind_predicates(p, CompiledBlock([kb, kb, kb], labels))
        with pytest.raises(UnmappedNode, match="node 1 is true but its label 'Z'"):
            bind_predicates(PredicateSet(p.values[2:5], soft=False), CompiledBlock([kb], [labels[1]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_premise_ranges_are_made_once_per_kb_and_per_block(self, seed):
        rng = np.random.default_rng(seed)
        kbs = [random_kb(rng, max_atoms=8), many_facts_kb(rng)]
        for kb in kbs:
            c = kb.compiled
            # atom a's entries, and only those, lie in its range
            assert np.array_equal(np.repeat(np.arange(len(kb.atoms)), np.diff(c.ranges)), c.premises)
            assert CompiledBlock([kb], [kb.atoms]).ranges is c.ranges
        block = CompiledBlock(kbs, [kb.atoms for kb in kbs])
        atoms = np.arange(int(block.starts[-1]))
        assert np.array_equal(np.repeat(atoms, np.diff(block.ranges)), block.program[2])
        assert block.ranges is block.ranges
