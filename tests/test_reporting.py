import hashlib
import json
from fractions import Fraction

import pytest

from latticebv.reporting import digest_inputs
from latticebv.suites import DEFAULT_CONFIG


@pytest.mark.parametrize(
    "payload",
    [
        DEFAULT_CONFIG,
        {"name": "Møller–Wick ψ ∂ 時間", "seeds": ["ä", "ß"]},
        {"outer": {"inner": [1, [2, {"z": None, "a": True}]], "b": []}, "a": {}},
        {"kappa": Fraction(1, 2), "terms": [Fraction(-3, 4), Fraction(5)]},
    ],
)
def test_digest_inputs_matches_hashlib(payload):
    # the built-in SHA-256 is the fast route; hashlib, which loads OpenSSL,
    # is the independent one, on the same canonical JSON text
    text = json.dumps(payload, sort_keys=True, default=str)
    assert digest_inputs(payload) == hashlib.sha256(text.encode()).hexdigest()[:16]
