"""Seeded CLI runs write exactly the bytes recorded here.

A seeded run must give byte-identical output each time it is repeated
(ROADMAP aim 2), and a change that only makes the simulator faster must
leave those bytes alone.  Each case runs `cli.main` in-process from a
temporary directory and compares the sha256 of what it writes with the
digest recorded below; the digests were written by the code at 25d9c97
with the same arguments.

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
     "c3bdf8c002167366bef484b9d04cddb1cd326c00b6d6dc0e7be8010cbd6f5b32"),
    ("sweep_4m_7.json", ["sweep", "--preset", "4m", "--seed", "7", "--format", "json"],
     "4ad192ff7d56a20a72a049e14f255c7ea6e38d9e4b9280a4604e8497fb832951"),
    ("sweep_1km_7.csv", ["sweep", "--preset", "1km", "--seed", "7", "--format", "csv"],
     "c3b8e218e3c455f0d698cdbc1cd36819178a9d555195486d1bc6a821ead3193c"),
    ("sweep_1km_7.json", ["sweep", "--preset", "1km", "--seed", "7", "--format", "json"],
     "234e0452fb25f9be1b7b16b2acc2a8bc7bb0553972b0dbe2ff2ea5051558c378"),
    ("none_1.csv", ["sweep", "--scheme", "none", *_SCALED, "--format", "csv"],
     "be4502ae025ba993d7dd5116b082fa3d14798fa6c99a8e08edfc53974719070c"),
    ("none_1.json", ["sweep", "--scheme", "none", *_SCALED, "--format", "json"],
     "49b04560e873381022d25d0e051b043f316c53485f8492a8a6048b436a9deeb8"),
    ("flip_half_1.csv", ["sweep", "--scheme", "flip_half", *_SCALED, "--format", "csv"],
     "be7c51993effd981d39f2bb7d4b484946850e1fc3d468f3d40eda146a3e5ef7d"),
    ("flip_half_1.json", ["sweep", "--scheme", "flip_half", *_SCALED, "--format", "json"],
     "56d8f62abde68670998b41e54d3dc196da00ca5ea554896141447f00ce4d49f2"),
    ("haar_1.csv", ["sweep", "--scheme", "haar", *_SCALED, "--format", "csv"],
     "e10d85f492a664a76d3998877510549b5af5c8f74caf3f82d945c407d3a30a45"),
    ("haar_1.json", ["sweep", "--scheme", "haar", *_SCALED, "--format", "json"],
     "7d769b5f0f0c48cec9f28206d628f436a42234066169147b4f023e5fddee70db"),
]
# `single` per scheme at the default config: sha256 of its tally file, then of
# what `keyrate` prints for that file
_SINGLE = {
    "none": ("d579567475adfff98f32120259cb9cebfc962fd14f6cfbd9262304840f9adfc8",
             "fd9e7029b24da1988afddb533a6fd7517d89b26beee7b7bbacc5dc0355a62c87"),
    "flip_half": ("69b4bb8467712cc52fcea12599656af40a0e13ec369361e83907c0d55136e9f9",
                  "41d57f7a81bed5901f334c26c2e80f8170f83905c8bf8be1e366c09af6210d01"),
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
