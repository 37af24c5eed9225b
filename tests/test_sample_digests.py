"""Stored-output pins for the batch PARALLELSAMPLE / PARALLELSPARSIFY pipeline.

``STORED_OUTPUTS`` holds sha256 prefixes (see ``digest``) of what
:func:`parallel_sample` and :func:`parallel_sparsify` returned on fixed
inputs and seeds: the bundle and sampled index arrays, the sparsifier's
edge arrays, the PRAM work and depth, and the per-label PRAM breakdown.
The values cannot drift with the code, so any change to the draw order,
the bundle repair or the cost accounting of either path fails here.  The
distributed pipeline has the same kind of table (``PER_NODE_OUTPUTS`` in
``test_congest_parity.py``).

Regenerate a row only for a change that means to alter outputs:
``PYTHONPATH=src python tests/test_sample_digests.py`` prints the table.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import SparsifierConfig
from repro.core.sample import parallel_sample
from repro.core.sparsify import parallel_sparsify
from repro.graphs import generators as gen
from repro.parallel.pram import PRAMTracker


def digest(*arrays) -> str:
    """sha256 prefix over the raw bytes of ``arrays``, in order."""
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()[:16]


def labels_digest(tracker: PRAMTracker) -> str:
    rows = sorted((label, cost.work, cost.depth) for label, cost in tracker.breakdown().items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def er300():
    return gen.erdos_renyi_graph(300, 0.5, seed=1, ensure_connected=True)


def banded():
    return gen.banded_graph(200, 6)


# name -> (graph factory, config, seed)
SAMPLE_CASES = {
    "er300-1": (er300, SparsifierConfig(), 5),
    "tree-1": (banded, SparsifierConfig(use_tree_bundle=True, bundle_t=2), 3),
    "certify-1": (banded, SparsifierConfig(certify_stretch=True, bundle_t=2), 3),
    "theory-1": (er300, SparsifierConfig.theory(), 5),
    "path-1": (lambda: gen.path_graph(60), SparsifierConfig(), 0),
}

# name -> (graph factory, config, rho, seed)
SPARSIFY_CASES = {
    "rho16-1": (er300, SparsifierConfig(), 16, 11),
}


def sample_row(name):
    build, config, seed = SAMPLE_CASES[name]
    tracker = PRAMTracker()
    result = parallel_sample(build(), config=config, seed=seed, tracker=tracker)
    graph = result.sparsifier
    return {
        "bundle": digest(result.bundle_edge_indices),
        "sampled": digest(result.sampled_edge_indices),
        "sparsifier": digest(graph.edge_u, graph.edge_v, graph.edge_weights),
        "degenerate": result.degenerate,
        "cost": (result.cost.work, result.cost.depth),
        "labels": labels_digest(tracker),
    }


def sparsify_row(name):
    build, config, rho, seed = SPARSIFY_CASES[name]
    result = parallel_sparsify(build(), rho=rho, config=config, seed=seed)
    graph = result.sparsifier
    rounds = [
        (r.t, r.input_edges, r.output_edges, r.bundle_edges, r.sampled_edges,
         r.degenerate, r.work, r.depth)
        for r in result.rounds
    ]
    return {
        "sparsifier": digest(graph.edge_u, graph.edge_v, graph.edge_weights),
        "rounds": hashlib.sha256(repr(rounds).encode()).hexdigest()[:16],
        "stopped_early": result.stopped_early,
        "cost": (result.cost.work, result.cost.depth),
    }


STORED_OUTPUTS = {
    "certify-1": {
        "bundle": "293a056357debc3a", "sampled": "e96cb6253fea3124",
        "sparsifier": "30814af581d18fb5", "degenerate": False,
        "cost": (33181.0, 277.0), "labels": "cbb59994579e3152",
    },
    "er300-1": {
        "bundle": "5132f17c46648080", "sampled": "4585057ccc369c76",
        "sparsifier": "98cab7904fc6e24e", "degenerate": False,
        "cost": (1726747.0, 1125.0), "labels": "02035892da5c1760",
    },
    "path-1": {
        "bundle": "7bb223f0d178fb75", "sampled": "e3b0c44298fc1c14",
        "sparsifier": "365a297135a1c8b0", "degenerate": True,
        "cost": (755.0, 46.0), "labels": "6ab96d7aebaac064",
    },
    "theory-1": {
        "bundle": "bf32b4028140f2c9", "sampled": "e3b0c44298fc1c14",
        "sparsifier": "6029c90ef36a9838", "degenerate": True,
        "cost": (4119261.0, 4778.0), "labels": "b2b5c5691fe25d00",
    },
    "tree-1": {
        "bundle": "d5666daa84109e74", "sampled": "8575eaea2e7ae17c",
        "sparsifier": "c0f0c4094da21684", "degenerate": False,
        "cost": (3541.0, 23.0), "labels": "a95a2e36824582bf",
    },
    "rho16-1": {
        "sparsifier": "e5827cc4202cfda4", "rounds": "de3c2e853c5d2637",
        "stopped_early": False, "cost": (3359186.0, 4151.0),
    },
}


@pytest.mark.parametrize("name", sorted(SAMPLE_CASES))
def test_parallel_sample_matches_stored_outputs(name):
    assert sample_row(name) == STORED_OUTPUTS[name]


@pytest.mark.parametrize("name", sorted(SPARSIFY_CASES))
def test_parallel_sparsify_matches_stored_outputs(name):
    assert sparsify_row(name) == STORED_OUTPUTS[name]


if __name__ == "__main__":
    for case in sorted(SAMPLE_CASES):
        print(f"    {case!r}: {sample_row(case)!r},")
    for case in sorted(SPARSIFY_CASES):
        print(f"    {case!r}: {sparsify_row(case)!r},")
