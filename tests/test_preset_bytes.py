"""The 25 preset CSVs, byte for byte.

``sweep-sigma-rd --preset fig1`` and ``sweep-theta --preset fig2`` to
``fig7`` at ``--seed 3`` with default samples, run in-process, must give the
SHA-256 digests below. They were recorded before sweeps drew their streams
once per call, so they also pin that the reuse changes no byte. A change
that is meant to move bytes updates the digests and says why.

The digests depend on numpy's Philox stream and its ``log1p``, so the test
runs only under the numpy version they were recorded with.
"""

import hashlib

import numpy as np
import pytest

from relayrates.cli import main

RECORDED_NUMPY = "2.4.6"

PRESET_SHA256 = {
    # re-recorded when optimal_delta_r took its subtraction-free root: 70 of 138
    # rows moved, by at most 3.3e-16 relative
    "fig1.csv": "24efd056c03c426de3285b0d9eaa32751e11aa844d500fca421995f9c66eda3a",
    "fig2_c1.csv": "df9cfb1522e405955ad467a71d3bbc7bbc668fe70d407981bf2485eb9d0f26f4",
    "fig2_c2.csv": "ca33a3ad951e8a4d53cbdb89fcd30cf20cf08662cf77394e99bf6c2eb87a6775",
    "fig2_c3.csv": "4661508e617ede8e96390f42d713cfea0e911e76f635bddaef1e39d4259e84e0",
    "fig2_c4.csv": "dd552b02bf019eaf881653d762cee406be1b3c8255eea96e1fb903214aa50d93",
    "fig3_c1.csv": "842faf7dacce4d0b05fe01b8c7c94ee37ff25948d2fa125b7c38c971b9d6d4e9",
    "fig3_c2.csv": "e0d48f0853fa361c771d143b5b4f5db3378e3db16c9926d0eec479972b1b1b6f",
    "fig3_c3.csv": "0eddfe0dfa05147a3eda060c85acbdcbf7b57379e0bb631852e55f7602ab56df",
    "fig3_c4.csv": "06a17ee93727195e8257bed3fc6c73015de102dd61592e5bce6c23c4e53a3896",
    "fig4_c1.csv": "e56003bddbd239490acd88bec6cbb814aac46c3dec73ea2604765722682182c6",
    "fig4_c2.csv": "43e747e6b8ddcaacdb80f926c69c8c923762f4199526aa1df9bf1e7ac62d123b",
    "fig4_c3.csv": "c84e66920a1b117498a7c539e22dfa473f58f4c2c5f7980c1357507a4c3ad9dc",
    "fig4_c4.csv": "b685f5577c1d1f7d413fd1a56d633aa8db0b118451d19ac5af467c03d3f225aa",
    "fig5_c1.csv": "9cd7f52673e01264e22aa83b67c85e9047faa2866024b96d295728185bf9027d",
    "fig5_c2.csv": "29ca40a3645368e60dcb555d34b3a2058e5e081446fe059e4ac8a29f4b4aa883",
    "fig5_c3.csv": "453e55a5368ad703a46317927204e64b201c83f8629a83ca3c01b622cff8f35a",
    "fig5_c4.csv": "4780e1cd836c9126e69ecd56b10cec3983a78a19f6e76f15d684014795f69eeb",
    "fig6_c1.csv": "4dc06a946022ca4d7c1aa99c5691346855e11804c1fb8a590888c2c04bd31e30",
    "fig6_c2.csv": "0032b778062c749f1730da5b9434f435b264fc3977ea8f5752aaf6837b5eb01b",
    "fig6_c3.csv": "8c632682b48ddf16a2ec008150a5a5102ac4b1bbd7064f81667b88b362447f35",
    "fig6_c4.csv": "45a474c7264068fefcc1794bf009740bdb17e3f07a58deefe7abd3bd1250177c",
    "fig7_c1.csv": "a9f44753ac3b53a42b432ac7f42ad796f595417142f43de8643d2abe0f37498f",
    "fig7_c2.csv": "b325eb70bf6476f333c632c8d4a620433b1b306d9a53c7cac7e7f8c012e35d38",
    "fig7_c3.csv": "f9db2f4926bd0416651fe73e54615dd954d915d0271e890c22bb1fdef3104c9d",
    "fig7_c4.csv": "387ee3f113682af9cfa1492eb817f70e471b55c32de1e0538d204a0bb3649bb3",
}

COMMANDS = [["sweep-sigma-rd", "--preset", "fig1", "--out", "fig1.csv"]] + [
    ["sweep-theta", "--preset", f"fig{n}", "--seed", "3", "--out", f"fig{n}.csv"]
    for n in range(2, 8)
]


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"digests were recorded with numpy {RECORDED_NUMPY}, "
                           f"this is numpy {np.__version__}")
def test_preset_csvs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RELAYRATES_OUTDIR", raising=False)
    for argv in COMMANDS:
        assert main(argv) == 0, argv
    capsys.readouterr()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*.csv")}
    assert written == PRESET_SHA256
