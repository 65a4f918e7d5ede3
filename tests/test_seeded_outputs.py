"""Seeded CLI runs write exactly the bytes recorded here.

A seeded run must give byte-identical output each time it is repeated
(ROADMAP aim 2), and a change that only makes the simulator faster must
leave those bytes alone.  Each case runs `cli.main` in-process from a
temporary directory and compares the sha256 of what it writes with the
digest recorded below, written with the same arguments: the `haar`
digests by the code at 25d9c97, the `none` and `flip_half` ones by the code
that first drew each fixed-scheme session with one multinomial over its
mean odds.

A change that alters the order of random draws changes these bytes on
purpose.  It updates the digests and records that in CHANGES.md, as ROADMAP
aim 2 allows.  Any other change that moves a digest has changed the output.
"""

import hashlib

import pytest

from rfqkd import cli

_SCALED = ["--seed", "1", "--duration-scale", "0.05"]

# (output file, CLI arguments, sha256 of the file)
_WRITTEN = [
    ("sweep_4m_7.csv", ["sweep", "--preset", "4m", "--seed", "7", "--format", "csv"],
     "68af8ee58ee809102eee7ef5c62d42613e90e17b78313cdb7026e0690712e75e"),
    ("sweep_4m_7.json", ["sweep", "--preset", "4m", "--seed", "7", "--format", "json"],
     "c64e21f59be6ec634e195ad0f2d497e25994ae45febeb6dc20cca38d9b90b83b"),
    ("sweep_1km_7.csv", ["sweep", "--preset", "1km", "--seed", "7", "--format", "csv"],
     "50797742b75de3b2003927ee3f4fcaeac3c02a68dfead54c67d13545b0424156"),
    ("sweep_1km_7.json", ["sweep", "--preset", "1km", "--seed", "7", "--format", "json"],
     "b5c0edb0cc5fc156e615396a6a51dc680480d42fa3a48a18510dcd513e58f394"),
    ("none_1.csv", ["sweep", "--scheme", "none", *_SCALED, "--format", "csv"],
     "cfb19aefd0d48fc236b9ae4bf1a9b26a3c66a8143c884d83d2037d1dab8440be"),
    ("none_1.json", ["sweep", "--scheme", "none", *_SCALED, "--format", "json"],
     "7dce6dc0a1f355e85919c89ba50bfa8b106d797710a4330374483eb21c2d86e9"),
    ("flip_half_1.csv", ["sweep", "--scheme", "flip_half", *_SCALED, "--format", "csv"],
     "508f714c1fe5a09f84aa878f396809f4bcfbe616489c97326e8a1ab9bc1641b1"),
    ("flip_half_1.json", ["sweep", "--scheme", "flip_half", *_SCALED, "--format", "json"],
     "2b9eea22d3f5c50719b7ead09dfef8d1b1b3bde5d7890ef97429a2bf21104d77"),
    ("haar_1.csv", ["sweep", "--scheme", "haar", *_SCALED, "--format", "csv"],
     "e10d85f492a664a76d3998877510549b5af5c8f74caf3f82d945c407d3a30a45"),
    ("haar_1.json", ["sweep", "--scheme", "haar", *_SCALED, "--format", "json"],
     "7d769b5f0f0c48cec9f28206d628f436a42234066169147b4f023e5fddee70db"),
]
# `single` per scheme at the default config: sha256 of its tally file, then of
# what `keyrate` prints for that file
_SINGLE = {
    "none": ("a305b5653a083360ced19bf68edce2c845ba9ac6edba5ae1105b2cb7bf75bd61",
             "76cf020847145448267a73d35db7e6c8b62c3fed71ac3b84ae338f139e024e50"),
    "flip_half": ("ee016b34ac9f4f2b556d47f4e88e2d9b59cacee9d065ebceb79d86c6d0b18804",
                  "05d1e2b652a1e32b92572fba78f0a8436161eac08d4dfec0e88e80f879507dd0"),
    "haar": ("c0c02b0216ab330775a89cb90ad695ce9f2560c4cd4e91b2ccd5807073925249",
             "bf78fa6a0f3533f9d4b948993bd791e4bcb3ab5c599e492c20a007bc5ddad770"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, argv, digest", [pytest.param(*c, id=c[0]) for c in _WRITTEN])
def test_sweep_bytes(tmp_path, monkeypatch, capsys, name, argv, digest):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--out", name]) == 0
    assert _sha256((tmp_path / name).read_bytes()) == digest


@pytest.mark.parametrize("scheme", sorted(_SINGLE))
def test_single_and_keyrate_bytes(tmp_path, monkeypatch, capsys, scheme):
    monkeypatch.chdir(tmp_path)
    tally_digest, report_digest = _SINGLE[scheme]
    assert cli.main(["single", "--scheme", scheme, "--out", "tally.json"]) == 0
    assert _sha256((tmp_path / "tally.json").read_bytes()) == tally_digest
    capsys.readouterr()
    assert cli.main(["keyrate", "tally.json"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == report_digest
