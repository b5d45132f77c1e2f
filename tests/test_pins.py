"""Byte-level pins on what graph construction and the graph files produce.

The digests below were frozen before graph construction moved onto
arrays. A change that moves any written byte (the edge order of
``save_graph_text``, a weight's repr, a CSR entry's position or bits)
moves a digest.
"""

import hashlib

import pytest
from click.testing import CliRunner

from spectral_nsr.cli import main
from spectral_nsr.harness import random_sparse_laplacian

# family -> (gen arguments, sha256 over every written file's name and bytes)
GEN_DIGESTS = {
    "transitive": (
        ["--depth", "6", "--width", "3", "--n", "40", "--seed", "11", "--splits", "30,5,5"],
        "0350bbeabf062eddf7785d4913aab58accba44016ce1c418c8347ac6a5a39f1c",
    ),
    "kinship": (
        ["--depth", "7", "--n", "40", "--seed", "12"],
        "d7d478b91e2e238a7faeb41543753c35334adc5db460af17ca1fb6355488d4c0",
    ),
}

# sha256 of the dtype and bytes of each CSR array (indptr, indices, data)
# of random_sparse_laplacian(20_000, seed=0)
RANDOM_GRAPH_DIGEST = "e35cf96e383a8aef7277574d38af122c1ee1974bd80b607e402e1cdd76a3ab58"


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("family", sorted(GEN_DIGESTS))
def test_gen_writes_the_same_bytes(tmp_path, family):
    args, expected = GEN_DIGESTS[family]
    out = tmp_path / "data"
    result = CliRunner().invoke(main, ["gen", "--family", family, *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert tree_digest(out) == expected


def test_random_graph_csr_is_unchanged():
    g, _ = random_sparse_laplacian(20_000, seed=0)
    a = g.adjacency
    digest = hashlib.sha256()
    for array in (a.indptr, a.indices, a.data):
        digest.update(array.dtype.str.encode() + array.tobytes())
    assert digest.hexdigest() == RANDOM_GRAPH_DIGEST
