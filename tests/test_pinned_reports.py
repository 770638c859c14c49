"""Pinned Method-2 and chain output.

Replays ``--seed 0 method2 LABEL --dump-complex FILE`` on S3, D1_3 and E1
and the ``propagate`` reports of four contraction chains through click's
CliRunner, and compares the sha256 of every report and complex file with
the digests below.  Run this file as a script to print a fresh table:

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

import hashlib

import pytest
from click.testing import CliRunner

from toricsec.cli import main

METHOD2 = ("S3", "D1_3", "E1")
CHAINS = (("E1", "B1"), ("S3", "S1"), ("S3", "P2"), ("D1_3", "B1_3"))

DIGESTS = {
    "complex D1_3":
        (0, "ad5d3a5eccab8b958b4b08f26a5e476e0f38154af4683f5d97093e416c1ec4a1"),
    "complex E1":
        (0, "9b3d454b8da420e44bbeeb818aa0ab83c31a6d307efdac97318e3bb4fa4bf167"),
    "complex S3":
        (0, "e2fa166f96a98e868fb4d60836a824ee302951444c71730ef1096672803a72f8"),
    "method2 D1_3":
        (0, "5f8f94ead5de961ed84f3c8e3fce9888e22628669a09fd42087de6228f3d5715"),
    "method2 E1":
        (0, "ff1179f6169f936812a9052b5f6b1950d4af23747cc4329eb36c9a257015b45f"),
    "method2 S3":
        (0, "59af3a1e190b0258dc2b41f42bd8b90ab2d0a1841841381387895f4e267faf3a"),
    "propagate D1_3 B1_3":
        (0, "bf77b49504f15cf63ac50ff051f3ba5be541383c6af27e2edc2c914fc93d008b"),
    "propagate E1 B1":
        (0, "dbcbcfedf4021b5de35f4678f4ff4458588a1a3771cd53f99b9d544446f8d9d1"),
    "propagate S3 P2":
        (0, "f7d546611345e1626a4025d85d5fc4fb9c6d0d8d9462bd16aeeb68a7dbdae56e"),
    "propagate S3 S1":
        (0, "86aa6cbaaa5d105beac1877ecc4d2310fd3cd8f192fd43073dde99ead83f20d2"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(temp_dir=None) -> dict[str, tuple[int, str]]:
    """(exit code, sha256) per report and per dumped complex."""
    runner = CliRunner()
    out = {}
    with runner.isolated_filesystem(temp_dir=temp_dir):
        for label in METHOD2:
            path = f"{label}.complex"
            res = runner.invoke(main, ["--seed", "0", "method2", label, "--dump-complex", path])
            out[f"method2 {label}"] = (res.exit_code, _sha(res.output))
            with open(path) as fh:
                out[f"complex {label}"] = (0, _sha(fh.read()))
        for source, target in CHAINS:
            res = runner.invoke(main, ["propagate", source, target])
            out[f"propagate {source} {target}"] = (res.exit_code, _sha(res.output))
    return out


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    return replay(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_pinned_digest(replayed, name):
    assert replayed[name] == DIGESTS[name]


def test_every_output_is_pinned(replayed):
    assert set(replayed) == set(DIGESTS)


if __name__ == "__main__":
    print("DIGESTS = {")
    for name, (code, digest) in sorted(replay().items()):
        print(f'    "{name}":\n        ({code}, "{digest}"),')
    print("}")
