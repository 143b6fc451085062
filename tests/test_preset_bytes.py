"""The 25 preset CSVs, byte for byte.

``sweep-sigma-rd --preset fig1`` and ``sweep-theta --preset fig2`` to
``fig7`` at ``--seed 3`` with default samples, run in-process, must give the
SHA-256 digests below. A change that is meant to move bytes updates the
digests and says why.

The digests depend on numpy's Philox stream and on its ``log1p``, so the
test runs only under the numpy version they were recorded with. They depend
on the CPU too: numpy dispatches ``log1p`` to SIMD kernels by CPU feature,
and the draws (``exp_draws``) and the integrands both call it. They were
recorded with X86_V4, AVX512_ICL and AVX512_SPR found. With those masked off
(``NPY_DISABLE_CPU_FEATURES``), ``np.log1p`` returns libm's bits, which
differ in the last bit on a few percent of inputs, so a CPU without
AVX-512 would fail this test on a correct build. ``recorded_build`` runs
this test and the other digest tests only under the recorded numpy version
and with the recorded features found in numpy's CPU-feature table.
"""

import hashlib

import numpy as np
import pytest

from relayrates.cli import main

RECORDED_NUMPY = "2.4.6"
# the SIMD targets numpy dispatched log1p to when the digests were recorded
RECORDED_CPU_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # another numpy layout, whose version fails the gate anyway
    CPU_FEATURES = {}
FOUND_CPU_FEATURES = [name for name in RECORDED_CPU_FEATURES if CPU_FEATURES.get(name)]
# every test that compares a recorded digest runs only where it was recorded
recorded_build = pytest.mark.skipif(
    (np.__version__, FOUND_CPU_FEATURES) != (RECORDED_NUMPY, list(RECORDED_CPU_FEATURES)),
    reason=f"digests were recorded with numpy {RECORDED_NUMPY} and {RECORDED_CPU_FEATURES} "
           f"found; this is numpy {np.__version__} with {FOUND_CPU_FEATURES} found")

PRESET_SHA256 = {
    # re-recorded when optimal_delta_r took its subtraction-free root: 70 of 138
    # rows moved, by at most 3.3e-16 relative
    "fig1.csv": "24efd056c03c426de3285b0d9eaa32751e11aa844d500fca421995f9c66eda3a",
    # the other 24 re-recorded when exp_draws took numpy's vectorized log1p:
    # 111 of 2424 rows moved; 52 rate_nats values by at most 3.4e-16 relative,
    # 62 std_error values by at most 2.9e-16 relative
    "fig2_c1.csv": "00f9262652d672cde8394e6a9c6264a612ab4b924d145cabcc4a2523e536e084",
    "fig2_c2.csv": "73c8f303ed673ef671085916909d6a04307d506dcc79c45d1ab805371c72d7e7",
    "fig2_c3.csv": "890a32b153dd98277e64372cb82da0c7e608249377b09e651042779f1a4d8694",
    "fig2_c4.csv": "52d9f7cdb3eb0718ab63c7eb95cb537eb16ced46e7d175399bff7cdb631d56a4",
    "fig3_c1.csv": "a73c854f1fea00c0f13f7a4ee5f710da7c02fd4939761100b495c95b0705b3ba",
    "fig3_c2.csv": "7b63e739e8b165ab7d8fe2b3c8ceaab74760ea4213491b3e770a7fc0ed069bcf",
    "fig3_c3.csv": "eefa21b2cd743c42661a89e075cdaf27f6bd2d708470ef28e2d3281fc8ae69df",
    "fig3_c4.csv": "e6e46a37a93362301bbc133f12c48bbf7d8c428359b898476db01cb20a2370bb",
    "fig4_c1.csv": "ae3ff3062f4ed1ec09afcef10c55235957ca158d6340471bcb9cc9fbe4da03e4",
    "fig4_c2.csv": "061522f299572680f41d220b027806f959f140d429928d45195a844550b7c8fa",
    "fig4_c3.csv": "4dcce12676dcbc56d9917f779f51abfc622fb79d66115bc345cfe77c89004236",
    "fig4_c4.csv": "9cfc28e690dc524abfd9cccf8d20e8795337660320309c807786dd31492f7fa5",
    "fig5_c1.csv": "355f044ec37c830516f7b5cb7ece5118c2a93ab018144436201a4567a0eefb55",
    "fig5_c2.csv": "316bd42e0fa691676d40d08155f5747fdf286e8b7737b53b1fef523a63169ddf",
    "fig5_c3.csv": "737535700c2b774d00ec8107c11032fa86519859b86e3bf773d10477439ae03c",
    "fig5_c4.csv": "b7a2a5ebe76d96436966895685ae4359876018686a7678250036623f4ac21205",
    "fig6_c1.csv": "0fa8eefbca81d4604159c5883d616917b4d92f4e5d1e96bfe3bee7ad65c61425",
    "fig6_c2.csv": "4c5d0e872d12bc26e515a9ef811f62a63b95df952b1de22b10dc2625ed0466c0",
    "fig6_c3.csv": "c50ba2cb89385e3126a81147bf6c5ddd5041f8c9996f9a71e10bb67ceaf3ea34",
    "fig6_c4.csv": "0ca49673b068588d4949bbc15aa6d58da9d9dfea92ef44fdccf1c1931b163993",
    "fig7_c1.csv": "338174ca8c10c169a0f793ec9ab334da264bb9765d0e1d9dd85814ea691bd0bd",
    "fig7_c2.csv": "6330dcd1766b74878edad4d33556fa07e6baf5bd52aadbddbabf836378517ec8",
    "fig7_c3.csv": "a23c1b9270d4bf0d8dafa6afa108043885885da5bad3ca312c0d3e26be03761e",
    "fig7_c4.csv": "93ec7c77b7cff25418181070674b6de3202c311599d70236dcd1edc69dd4a676",
}

COMMANDS = [["sweep-sigma-rd", "--preset", "fig1", "--out", "fig1.csv"]] + [
    ["sweep-theta", "--preset", f"fig{n}", "--seed", "3", "--out", f"fig{n}.csv"]
    for n in range(2, 8)
]


@recorded_build
def test_preset_csvs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        assert main(argv) == 0, argv
    capsys.readouterr()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*.csv")}
    assert written == PRESET_SHA256
