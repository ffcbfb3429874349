"""Whole outputs pinned byte for byte by their sha256 digests.

The digests were recorded at commit 521af21, before packed monomials put
x1 in the most significant field, and those of g345-13-14, whose graph
has 387 non-coherent vertices, at c481d3b, before coherence inherited
certificates across flip edges; a change of representation or of search
order must leave every one of them as it is.
"""

import hashlib
import json

import pytest

from agraded import AGradedContext, explore, to_json, with_coherence
from agraded.binomials import initial_ideal
from agraded.fixtures import named_matrix
from agraded.graver import graver_basis


GOLDEN = {
    "g137": {
        "graph": "4d6238e4f9e04602ff7abd33612ce7ec3e7e798f3e543274a245b383444b9101",
        "graver": "678d30022652487dd8f246f6257187b717e022db5722b2815d37b268dcba168c",
        (0, 0, 0): "85b109935a8232b026431fbf9c9cec6510a07ed54f0235b53932bcd1220b2849",
        (3, 2, 1): "251dc37716bd9eaa8f1d17945cfe9479120a0d77f5a00d5e8736ed51534c5140",
    },
    "veronese6": {
        "graph": "c3c83747c9d5cd5afca0c81cb11373ca7d19e357e2d0cc4af29d0c79292d2129",
        "graver": "56eb5bc662dec935e1f6ea7ee451f7a47342708df08150864921943a1fe95fe7",
        (0, 0, 0, 0, 0, 0): "e1ebf898ccd8d025936433b2b83fe0f4c20c4b906ffd7319469ba959364db2ba",
        (6, 5, 4, 3, 2, 1): "5808c02d0fa9bfb7f571469a28f959ada2ba8181577d9d0a39231f9aa57d8da9",
    },
    "g36-8-10-15": {
        "graph": "257dffd3408eea091dd93c54ede42dbca2a683514012b2f7314f5bdfd204cb09",
        "graver": "bbd44b13c9732dc5dd9270e236646fb79782092264c7d31c217cb4df57bdd840",
        (0, 0, 0, 0, 0): "c66eff76c800778b1b3fe3cbdcbeeb9c1e83e1d17dc3bb7b3a702965bd8b1b90",
        (5, 4, 3, 2, 1): "4bee0d8e0cf094f9b91c8403ec0856d7d0d23d7a477ebd37bb5eb66f5913cf9f",
    },
    "g345-13-14": {
        "graph": "dc0a9f7a5e91507a4c4335a2950da93c98f7220108a5c4c662426f0144d117ee",
        "graver": "a307d4f4081bd740083f8cca2583249795bc0ad21f0ff47d7179c8e4048f986b",
        (0, 0, 0, 0, 0): "43ca3b031bcc475c062ff70b4c4096ab3dee52c16c3e1d44dc5b4dcaa4419b5b",
        (5, 4, 3, 2, 1): "c8b0fe8a135166a8d3c57de4a98c3e1d96c9ec283402d2e10c7bfda4ede2cd14",
    },
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name):
    """The coherence-flagged graph, the Graver basis and two initial ideals."""
    matrix = named_matrix(name)
    ctx = AGradedContext(matrix)
    want = GOLDEN[name]
    assert digest(to_json(with_coherence(explore(ctx), ctx))) == want["graph"]
    assert digest(json.dumps(graver_basis(matrix).elements)) == want["graver"]
    for weight in [key for key in want if isinstance(key, tuple)]:
        assert digest(json.dumps(initial_ideal(matrix, weight).gens)) == want[weight]
