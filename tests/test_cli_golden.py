"""Payload hashes of the CLI forms that name a family of counted units.

Each case runs one invocation in-process and checks its exit code and
the sha256 of its payload: every output line that does not start with
'#', so provenance headers and the MATCH summary line are left out.
The hashes were recorded before the unit families (full grid, t-axis
projections, axis pairs and their coarse cells) shared one definition;
a refactor of how units are counted must leave every one unchanged.
"""

import hashlib
import shlex

import pytest

from hypercov.cli import main

SIM = "simulate --d 4 --n 16 --p 2 --k 8 --reps 50 --seed 11"

# name -> (command, exit code, payload sha256)
GOLDEN = {
    "simulate-lhs-full": (f"{SIM} --kind lhs --target full", 0, "848c416e614a6583755388aefcf0a51ec0b70c35a45a7d1667d01aafd0468c43"),
    "simulate-lhs-proj2": (f"{SIM} --kind lhs --target proj:2", 0, "732ef4e029085a2bf4909e7e1f31746fbc8ac41fef33114ba55083897136a5a1"),
    "simulate-lhs-proj2-at": (f"{SIM} --kind lhs --target proj:2@1,3", 0, "31d8d9d843a9cdc2b31db624f28afe30853c485f2d587d20e306223b61129c79"),
    "simulate-lhs-dims": (f"{SIM} --kind lhs --target proj:2 --dims 2,4", 0, "62e38bfea4572e0c954be30bd62ca6de4f3eefb041bf16a9bc4d896c0235d2aa"),
    "simulate-lhs-edge": (f"{SIM} --kind lhs --target edge:1,3,1,2", 0, "0ea73e55bac4068e336a91098820be6ff40d0fde5934a4d55d1f821882d3b7f8"),
    "simulate-os-full": (f"{SIM} --kind os --target full", 0, "655c7cbc99d39c429ff735eeefe53fdb278bd79adb1dd5d285ab08a31f9b9624"),
    "simulate-os-proj2": (f"{SIM} --kind os --target proj:2", 0, "1c6a3822251eaefa8b3eefb69954c11ad7b9b7ede1e3a699856edfb24cae705b"),
    "simulate-os-proj2-at": (f"{SIM} --kind os --target proj:2@1,3", 0, "237e2aa154fd589ed7993516b744de3a349322ee5f454f2385429666df919967"),
    "simulate-os-dims": (f"{SIM} --kind os --target proj:2 --dims 2,4", 0, "359e2ee77b7f98af1fa7d7f7aa8e0da4964edfd5c4c3e48331722fe701facef1"),
    "simulate-os-edge": (f"{SIM} --kind os --target edge:1,3,1,2", 0, "cbde286332f07fcabfc11313423b2aaac0b9b3a9292d0e9e5abac3ea144ec1fb"),
    "oracle-intersect-pair": ("oracle --mode intersect --kind lhs --d 3 --n 2 --m 1,2 --edge 1,3", 0, "e8021a33833346eb4026bac6f777f7f8d714a0d451dd72e85dc67c4ac3d32311"),
    "oracle-intersect-cell": ("oracle --mode intersect --kind lhs --d 2 --n 4 --p 2 --m 1,2 --edge 1,2,2,1", 0, "53d123bfe53ef77c9830016f74e6e8ffe2e1bbab252d4e6480023fc25393b89a"),
    "oracle-cover-pair": ("oracle --mode cover --kind lhs --d 3 --n 2 --k 1,2 --edge 2,3", 0, "491a54dd65e455aba38d0a093d8ae6a4e7233be384b3def6bbb61602eea1e8b8"),
    "oracle-cover-cell": ("oracle --mode cover --kind lhs --d 2 --n 4 --p 2 --k 1,2 --edge 1,2,1,1", 0, "184326933d8fedd95e8e21206974965c405a4f065b6ce482759d797e6c23e736"),
    "oracle-occurrence-pair": ("oracle --mode occurrence --kind lhs --d 3 --n 2 --edge 1,2", 0, "1fb5b215570b4fefa925857a468a63f0e8afb65935b89ef6136edf1f8f3ea867"),
    "oracle-occurrence-cell": ("oracle --mode occurrence --kind lhs --d 2 --n 4 --p 2 --edge 1,2,1,1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exact-edge": ("exact --kind edge --d 3 --n 4 --m 1,2 --format rational", 0, "8363e989bb922ac5c539ca5416dca97a3a919c76a5369a61b1e7a40a16d1666a"),
    "exact-edge-subblock": ("exact --kind edge-subblock --d 3 --n 8 --p 2 --k 1,5", 0, "6dd743eadbdd5835e8fda267b722e702f7fb847deb8ae427e22662d5ffb48e93"),
    "verify": ("verify", 0, "f0b5d06e1d351a198f30dec2cf1072279ec2262f5d1ca564268612fff6be6eb9"),
}


def payload_digest(out: str) -> str:
    payload = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("#"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_payload_hash(name, capsys):
    command, code, digest = GOLDEN[name]
    assert main(shlex.split(command)) == code
    assert payload_digest(capsys.readouterr().out) == digest
