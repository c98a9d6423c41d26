"""Byte pins of the ``efl`` command's outputs, the same sha256 values the
workflow checks against the installed command.

One run of :func:`efl.cli.main` per output, in a temporary directory: the
bundled trace, four generated files, the matrix method's listings and DOT
file, both greedy listings and five ``efl stats`` reports.  The values must
never be updated to follow a code change: a mismatch means an output moved.
"""

from __future__ import annotations

import hashlib

from efl.cli import main

TRACE_EXAMPLE = "aa0f584162cd82b45d0d379278311e90488692a408040628e857044d4b6bea4f"

# generated file name -> (gen arguments, sha256 of the file)
FILES = {
    "dense50.efl": (
        ("--kind", "dense", "--n", "50"),
        "806fb9673e380b0ff8f5410aa82f7f361b4ddffe52417af969be9b8e3e3bcad0",
    ),
    "disjoint30.efl": (
        ("--kind", "disjoint", "--n", "30"),
        "34d87d4724e0c52cf34fd5e13601ea789ff7ef9f463ea23e807986b14fea8bd0",
    ),
    "random20.efl": (
        ("--kind", "random", "--n", "20", "--seed", "7", "--merges", "190"),
        "11e60f55a426b3228bf19b8e908f009e9de13d19fad7423186ee80be6136eaac",
    ),
    # the top seed, whose counter wraps past 2^64 at the first draw
    "random20top.efl": (
        ("--kind", "random", "--n", "20", "--seed", str(2**64 - 1), "--merges", "190"),
        "ca03cbac1fa2e173d672c8337217e7f8f9a4f50ec2be690e60e1a1a5417fc868",
    ),
}

DENSE50_LISTING = "75dcab2260e307b5393baef228d752c7bc762afdb9815ca7f448d06f4ec8efcf"
DENSE50_DOT = "6c61c378ec9b02e7b0c62c820a7f0dd9347e9e76b5f20aad2b94d761fde4b725"
DENSE20_TRACED = "fdd6f549aed44f44394dac0e3912e25b6d93cbd219b3ca72143edaa5f6996ab8"
EXAMPLE6_GREEDY = "8d80cbfbf13df1b8fdefa30a3b5fdcf9c2c9e35f00cf23bbdd8375fa0f2145fa"
RANDOM20_GREEDY = "c974c3f5fe6a89bf1338f2698c795f4bf6e8005648f08cf39d968de739ff6b38"

# input -> sha256 of its ``efl stats`` report
STATS = {
    "example6.efl": "a3d4b57c48c22f7e177f36c9b650ac946395345a36f25f9615f3121fda235693",
    "gap_n8.efl": "4da1b42b1315372cff07a1cbe494be4dd8f1b1240d4f064f26555d18ecb48e40",
    "sy2_statement_n6.efl": "d8e75c96017ec4d268be5607078d54557adc6981227a57b95b0b2cfdd5aca18a",
    "dense9.efl": "86ff691fc3f1c5e45284985ede1ca1a03f55b1c68bb138e6cb06c1746900f631",
    "random20.efl": "55c07e65a8141093380c309cdc07a5db5155c8f12f91e9d7a044c1d1ab4322cd",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_outputs_match_their_pins(
    capsys, tmp_path, example_file, gap_n8_file, sy2_statement_n6_file
):
    def stdout(*argv: str) -> str:
        assert main(list(argv)) == 0
        return _sha(capsys.readouterr().out.encode("utf-8"))

    assert stdout("trace-example") == TRACE_EXAMPLE
    for name, (args, pin) in FILES.items():
        stdout("gen", *args, "-o", str(tmp_path / name))
        assert _sha((tmp_path / name).read_bytes()) == pin, name
    for n in (20, 9):
        stdout("gen", "--kind", "dense", "--n", str(n), "-o", str(tmp_path / f"dense{n}.efl"))

    dense50, dot = str(tmp_path / "dense50.efl"), tmp_path / "dense50.dot"
    structured = ("--out", "structured")
    assert stdout("color", dense50, "--method", "matrix", *structured, "--dot", str(dot)) == (
        DENSE50_LISTING
    )
    assert _sha(dot.read_bytes()) == DENSE50_DOT
    dense20 = str(tmp_path / "dense20.efl")
    assert stdout("color", dense20, "--method", "matrix", "--trace", *structured) == DENSE20_TRACED
    assert stdout("color", str(example_file), "--method", "greedy", *structured) == EXAMPLE6_GREEDY
    random20 = str(tmp_path / "random20.efl")
    assert stdout("color", random20, "--method", "greedy", *structured) == RANDOM20_GREEDY

    inputs = {
        "example6.efl": example_file,
        "gap_n8.efl": gap_n8_file,
        "sy2_statement_n6.efl": sy2_statement_n6_file,
        "dense9.efl": tmp_path / "dense9.efl",
        "random20.efl": tmp_path / "random20.efl",
    }
    for name, pin in STATS.items():
        assert stdout("stats", str(inputs[name])) == pin, name
