"""Golden bytes: the sha256 of canonical CLI outputs that must not drift.

A change that alters any of these digests changes what the program reports;
re-record them only together with the reason the report had to change. The
`verify gfun` digest was last re-recorded when the Poisson and G points of
power-law weights (every omega grid of the battery: hat(gevrey(1)) and
hat(gevrey(2))) moved from the adaptive quadrature to their closed form, a
dilogarithm sum with a Hurwitz-zeta tail that matches independent references
to about 1e-14. The quadrature sat some 2e-8 below it, within its own error
bound, so four worst slacks moved by 1.3e-9 to 1.5e-8: the two lower-bound
checks 0.6200296952497858 -> 0.620029696545403 and 0.8436767165937953 ->
0.8436767208824645, g_decay_grid -7.864243211694887 -> -7.864243226387676
and g_window_bound -4.661328563019379 -> -4.661328570645087. The two
plain-callable checks and every omega floor kept their bits. The
`verify moments` digest was last re-recorded when the battery stopped
echoing a `quad_tol` it never read: its `params` went from
{"quad_tol":1e-8} to {}, and every check's bytes stayed the same.
"""

import hashlib
import json

import pytest

from momentgate.cli import main

# the gfun report holds a few worst-case slacks, which do not move with the
# last bit of a log: the libm log bits are pinned by OMEGA_PINS and QUAD_PINS
# in test_specfun.py
VERIFY_SHA256 = {
    "inversion": "9794f4b92b6fdecc0903247aaee12379c8a1ddfc80408c2f4fc9b3f3834030bf",
    "moments": "c75977a02364e546920285bb69559a4e19e88cc5a3763849fd67a87cc7c3a8f9",
    "example38": "5d2105e3e147732395464343a61dbdba3f2dff4abc3ae91f175604aa3d0843f5",
    "gfun": "c3a2d96720e8f8aea4dbdb8ef2d2d72e7c9c6419c9774bf679296068bae52bdf",
}

# `analyze --horizon 4096 --format json`
ANALYZE_SHA256 = {
    "gevrey_0.5": (
        {"kind": "gevrey", "s": 0.5},
        "da38d90ffb09f16c718bed3ac0f61d2ad716602d687f757fb31a71a9565c12a1",
    ),
    "q_gevrey_2": (
        {"kind": "q_gevrey", "q": 2},
        "1659c6ecc6c5a3c8b7b2c7d2f3a7ecdff64592c6380d153df403faf136bd5a81",
    ),
    "example38": (
        {"kind": "example38"},
        "eaec9e2ea4a8d21a9d99e49aee4781229a66e10612d1fb8e0808476cb0363772",
    ),
    "power_example38_0.5": (
        {"kind": "derived", "op": "power", "s": 0.5, "base": {"kind": "example38"}},
        "53561513e694a62a287435546bc756e1bc710d14f278261f7330c275ad101bd3",
    ),
    "dc_minorant_gevrey_1.3": (
        {"kind": "derived", "op": "dc_minorant", "base": {"kind": "gevrey", "s": 1.3}},
        "50e1c607c223ed5c48bfc3df8035cc242119c037cfaf415c19a6b439de5ca6b5",
    ),
    "explicit_constant": (
        {"kind": "explicit", "log_m": [0.0], "tail": {"rule": "arithmetic", "step": 0.0}},
        "4e9a86dcc47a1fa62a64a25405ccfd77ff8026f91906d93e72722555353ee678",
    ),
}


def _sha256_of_run(tmp_path, monkeypatch, *argv) -> str:
    monkeypatch.delenv("MOMENTGATE_CACHE_DIR", raising=False)
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) in (0, 2)
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("suite", sorted(VERIFY_SHA256))
def test_verify_json_bytes(suite, tmp_path, monkeypatch):
    assert _sha256_of_run(tmp_path, monkeypatch, "verify", suite) == VERIFY_SHA256[suite]


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_json_bytes(name, tmp_path, monkeypatch):
    spec, want = ANALYZE_SHA256[name]
    got = _sha256_of_run(tmp_path, monkeypatch, "analyze", json.dumps(spec), "--horizon", "4096")
    assert got == want
