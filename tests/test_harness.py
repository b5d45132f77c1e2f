"""The generated task families, pinned field by field.

A change that moves any generated task (an rng draw, a node, a clause, a
weight, a signal value or a label) moves the digests below. A new family
must leave them as they are.
"""

import hashlib

import pytest
from click.testing import CliRunner

from spectral_nsr.cli import main
from spectral_nsr.errors import BadParams
from spectral_nsr.harness import gen_dataset

# family -> (gen_dataset arguments, sha256 of the tasks' canonical text)
DIGESTS = {
    "transitive": (
        dict(n=200, seed=3, max_depth=8, width=3),
        "ca80f5e5c40d52b5eb259b24d1635a8acc033c80cfc051f1772bf510ca2515a1",
    ),
    "kinship": (
        dict(n=100, seed=4, max_depth=6),
        "2eff2aa2caa47fc7f6bad75f3066a0f301f7b44e3e7e0f7bb00f6c8bb19fec1a",
    ),
}


def canonical(task) -> str:
    """Every field of ``task`` as text: floats as exact hex, clause bodies
    sorted, so the text does not depend on the hash seed."""
    g, kb = task.graph, task.kb
    a = g.adjacency
    lines = [f"task {task.task_id} {task.family} {task.depth} {task.seed}"]
    lines += [f"node {m.id} {m.kind} {m.label}" for m in g.nodes]
    lines.append("indptr " + " ".join(map(str, a.indptr.tolist())))
    lines.append("indices " + " ".join(map(str, a.indices.tolist())))
    lines.append("data " + " ".join(map(float.hex, a.data.tolist())))
    lines.append("x0 " + " ".join(map(float.hex, task.x0.tolist())))
    lines.append("atoms " + " ".join(kb.atoms))
    lines += [f"clause {c.clause_id} {c.head} :- {' '.join(sorted(c.body))}" for c in kb.clauses]
    lines.append("facts " + " ".join(sorted(kb.facts)))
    lines += [f"exclusive {x} {y}" for x, y in kb.exclusive]
    lines.append("labels " + " ".join(f"{i}:{lab}" for i, lab in sorted(task.labels.items())))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", sorted(DIGESTS))
def test_generated_tasks_are_unchanged(family):
    kwargs, expected = DIGESTS[family]
    digest = hashlib.sha256()
    for task in gen_dataset(family, **kwargs):
        digest.update(canonical(task).encode())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("family", sorted(DIGESTS))
def test_kb_atoms_are_the_graph_labels(family):
    # one record of node -> atom: the KB declares the graph's own labels
    kwargs, _ = DIGESTS[family]
    for task in gen_dataset(family, **kwargs):
        assert task.kb.atoms is task.graph.labels


@pytest.mark.parametrize("n", [1, 50])
def test_too_deep_transitive_dataset_is_refused_before_any_task(n):
    # at n=50 seed 0 some task draws depth 9; at n=1 none does
    with pytest.raises(BadParams, match=r"max_depth must be in 1\.\.8 for transitive tasks, got 9"):
        gen_dataset("transitive", n, seed=0, max_depth=9)


def test_kinship_dataset_takes_a_max_depth_above_eight():
    assert max(t.depth for t in gen_dataset("kinship", 50, seed=0, max_depth=9)) == 9


@pytest.mark.parametrize("n", ["1", "50"])
def test_gen_with_too_deep_transitive_chains_exits_one(tmp_path, n):
    result = CliRunner().invoke(main, ["gen", "--depth", "9", "--n", n, "--out", str(tmp_path / "d")])
    assert result.exit_code == 1
    assert "max_depth must be in 1..8" in result.output
    assert not (tmp_path / "d").exists()
