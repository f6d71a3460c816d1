"""Payload hashes of the CLI forms that name a family of counted units.

Each case runs one invocation in-process and checks its exit code and
the sha256 of its payload: every output line that does not start with
'#', so provenance headers and the MATCH summary line are left out.
The hashes were recorded before the unit families (full grid, t-axis
projections, axis pairs and their coarse cells) shared one definition;
a refactor of how units are counted must leave every one unchanged.
The `law`, `exact --m` and `oracle --mode occurrence` rows were recorded
before the ensemble counts and the closed-form laws each got one
definition, and pin the exit codes of the `law --t` range checks.
The `sweep` rows were recorded while the closed form took fixed
60-digit mpmath logarithms. Every k* in them has at most 21 digits, well
within that precision, so logarithms sized from k* must print the same
bytes.
The `gen`, row-key `simulate` and enumerated orthogonal `oracle` rows
were recorded while the samplers returned 1-based (k, n, d) points and
the orthogonal ensemble was assembled one trial at a time; keeping
trials as 0-based columns must leave every one unchanged.
The `-split` rows run rising products of 17 to 512 terms at the k cap
and were recorded while each product was built one term at a time;
building them as balanced product trees, and later with math.perm, must
leave every one unchanged.
The `gen` and `oracle` rows were recorded while trials passed through
`design.Trial`, and they must not change now that the oracle and `gen`
keep trials as column arrays.
The `sweep-simulated-rows` and `sweep-simulated-multi-word` rows send
prefix curves down the Latin-bucket row path (n^t past 2^63), one key
word with its trial packed into the low bits and two words lexsorted.
They were recorded while row keys were copied from a trial-major buffer
into bucket order before they were sorted; sorting blocks of buckets
straight from trial-major keys must leave both unchanged.
`law-conjecture-n1923` was re-recorded when every hit rate became the
correctly rounded 1/n^(t-1): libm pow had rounded 1/1923 one ulp low,
so its lambda column and its k=1 value went from ...332 to ...333.
The `oracle-intersect-*` and `oracle-cover-*` rows without `--edge`
(lhs and os full grids, m and k up to 3) were recorded while the two
expectations walked the multisets in two copies of the loop; walking
them once for both must leave every one unchanged.
The `sweep-simulated-os`, `sweep-full-coverage-os`, `sweep-simulated-os-d3`
and `sweep-simulated-lhs-batches` rows were recorded while every
replicate of a sweep cell drew its own trials. They run orthogonal
sweeps and LHS sweeps of 100 replicates, which fill more than one
`SimPlan.batch`; drawing a cell's replicates in batches must leave every
one unchanged.
"""

import hashlib
import shlex

import pytest

from hypercov import exact, rng
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
    "law-iid-lhs": ("law --model iid --kind lhs --d 3 --n 5 --k 0,1,10,100", 0, "dea326cab3ebfe85b044bc6324f7ec9d43e339ee2a273728d3134c5062b223ba"),
    "law-asymptotic-lhs": ("law --model asymptotic --kind lhs --d 3 --n 5 --k 0,1,10,100", 0, "51626d367a38e2d350e7b1dd155efe51ab8d7d62a7d8b37b3991b6ddffcd5a88"),
    "law-iid-os": ("law --model iid --kind os --d 2 --n 9 --p 3 --k 0,1,10", 0, "87994456b0feee6219f0054156e2e29afe93b4983ea44f17943e75c749127b91"),
    "law-asymptotic-os": ("law --model asymptotic --kind os --d 2 --n 9 --p 3 --k 0,1,10", 0, "e6aef78e39b998f11ab14f96f8ecc47b6066431baebba44e0df56e0ed3371140"),
    "law-iid-edge": ("law --model iid --kind edge --d 3 --n 4 --k 0,1,10", 0, "f412faefa445128cbc54889ca4902dc5c11451344dac719a3c634d748d22e478"),
    "law-asymptotic-edge": ("law --model asymptotic --kind edge --d 3 --n 4 --k 0,1,10", 0, "51411d31d36480176d1e34a34e0764fccc03ed0e3d45315390d02728838ba0fa"),
    "law-iid-edge-subblock": ("law --model iid --kind edge-subblock --d 3 --n 8 --p 2 --k 0,1,10", 0, "4bbbe9cb55fb46e906d9a262de84c6ceb36d0d1a41cdfa04249f49a350c07aea"),
    "law-asymptotic-edge-subblock": ("law --model asymptotic --kind edge-subblock --d 3 --n 8 --p 2 --k 0,1,10", 0, "1c4a6b61be46ec7c9636e9a9fe41ea8c1ef8db2a8140c37f0670f2b56057c6ce"),
    "law-t1": ("law --model iid --t 1 --n 10 --k 0,1,5", 0, "c5ffaafc4b1c13883f9a60989898b95fb0a1d6c8edb41df77df1fc95800a2941"),
    "law-t3-d3": ("law --model iid --t 3 --d 3 --n 10 --k 1,100,1000", 0, "ca0be15dbf5539748d1ff59c82828e6c4922983d610f81c24504b9863e4ed3ea"),
    "law-asymptotic-t2": ("law --model asymptotic --t 2 --n 27 --k 0,27", 0, "fca0b436a9489efb08bde4fc0e108f5c6e35376c99e67b722985d6784fa1d7ec"),
    "law-conjecture-n27": ("law --model conjecture --t 2 --n 27 --k 1,27,100", 0, "246abbc45a233323216612beebdd3f3dc805d22ecf30925387b98f5e89c3eb54"),
    "law-conjecture-n1923": ("law --model conjecture --t 2 --n 1923 --k 1,1923,10000", 0, "18ecfbb534463500cac27eb240bdf295dea25dc93e44e039d7e53fdde9346ac0"),
    "law-t1-n1": ("law --model iid --t 1 --n 1 --k 1", 0, "6be49721cb13fa72d0d5589f9b6ef80d99327b21a5861cf1ea2bc7ffd61a75e6"),
    "law-t2-n1": ("law --model iid --t 2 --n 1 --k 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "law-t0": ("law --model iid --t 0 --n 5 --k 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "law-t4-d3": ("law --model iid --t 4 --d 3 --n 5 --k 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "law-bracket-lhs": ("law --model bracket --kind lhs --d 2 --n 10 --k 0,1,5,20", 0, "b68dec412e48252b545b54225228e4be1619c091ffc2f3b10a1f56f70bf44cae"),
    "law-bracket-os": ("law --model bracket --kind os --d 2 --n 4 --p 2 --k 1,3", 0, "a11f01cf7596119c96935656671d7b4ddfa7fe220560545f9a01b58d9c5cf2cd"),
    "law-bracket-edge": ("law --model bracket --kind edge --d 3 --n 4 --k 1,10", 0, "8248c6ecc3fdce43dd40e1571a652feb3eac1218a666c2ed984a537763c8efe5"),
    "law-bracket-edge-subblock": ("law --model bracket --kind edge-subblock --d 3 --n 8 --p 2 --k 1,5", 0, "aef2689c7509e328a7691259b1aa46ca9d24cdfd10bc2c4f5c023df075236072"),
    "exact-lhs-m": ("exact --kind lhs --d 3 --n 4 --m 1,2,3", 0, "edb4197bfc999e4070954424c1d181d523d8f9a7e0b76120f580dbe2b117009c"),
    "exact-os-m": ("exact --kind os --d 2 --n 9 --p 3 --m 1,2,3 --format rational", 0, "ed964c8d4b7b6f27fc2fe15fed9121780c1bdbe64d249eb0b0534dd1aba5e0e2"),
    "oracle-occurrence-lhs": ("oracle --mode occurrence --kind lhs --d 2 --n 3", 0, "ecea589f5acbcd5378b56b2239041c1caf3636719b2cc1b6e5cc9b7070d79d2d"),
    "oracle-occurrence-os": ("oracle --mode occurrence --kind os --d 2 --n 4 --p 2", 0, "96fd916238fe671c471bc0bfd6026e888e7b8c62d1371e5b78f963893e63a431"),
    "oracle-occurrence-edge": ("oracle --mode occurrence --kind lhs --d 3 --n 2 --edge 1,3", 0, "c7e4b1b5e51e9728cf61212435c8d73553d7bd13634584f1d0ea3048b951f372"),
    "sweep-closed-form-1e6": ("sweep --mode closed-form --kind lhs --d 3 --t 2 --levels 0.5,0.9 --n-grid 1000,10000,100000,1000000", 0, "ed858373c9b8d8e49d510cf4b0e058c23c8555fb153f38c56b82ceff94ca0e38"),
    "sweep-closed-form-t3": ("sweep --mode closed-form --kind lhs --d 3 --t 3 --levels 0.5,0.9 --n-grid 10,100,1000,10000", 0, "028b84eeca9f32f0273220f54c610ec8588adc941acaf82803a08e41da2d884c"),
    "sweep-closed-form-past-float": ("sweep --mode closed-form --kind lhs --d 5 --t 5 --levels 0.9 --n-grid 76750,80000,90000", 0, "fe6266b45e22be974457a474cd87c02546485d44e88155b088ab9a42bdb589d6"),
    "sweep-closed-form-os": ("sweep --mode closed-form --kind os --d 2 --t 2 --levels 0.5,0.9 --n-grid 4,9,16,25,36", 0, "84a2a1167d2a0eb249965d44993cf84f2b3b855c29cd65fa8f941b1bc5aa7bda"),
    "sweep-closed-form-t1": ("sweep --mode closed-form --kind lhs --d 3 --t 1 --levels 0.5 --n-grid 10,100,1000", 0, "08c54e4392a12788dc863c054e1be0d1cc928314407db3416c00b184ca13679d"),
    "sweep-simulated-t2": ("sweep --mode simulated --kind lhs --d 3 --t 2 --levels 0.5,0.9 --n-grid 8,27,64 --reps 3 --seed 5", 0, "971023deb6bc9c7e98c5e83a8c3d1cf2404ef7727701cc3eee5ec620ca954666"),
    "sweep-full-coverage": ("sweep --mode simulated --kind lhs --d 2 --t 2 --levels 1.0 --n-grid 8,16,32 --reps 3 --seed 5", 0, "bcf240152fbda2b299daedb637cd05862e458a9ad32a45c1ab6d7e465d03a4f2"),
    "sweep-simulated-os": ("sweep --mode simulated --kind os --d 2 --t 2 --levels 0.5,0.9 --n-grid 4,9,16,25 --reps 40 --seed 7", 0, "3bb9cd50879e92b210b0331a72c16092369bcc632defe855042a22343a929fc4"),
    "sweep-full-coverage-os": ("sweep --mode simulated --kind os --d 2 --t 2 --levels 1.0 --n-grid 4,9,16 --reps 40 --seed 7", 0, "2ec64e1622589039650aa41f8a9d82ef9f57ba9a92ef5d53bdfd252b3b954fa8"),
    "sweep-simulated-os-d3": ("sweep --mode simulated --kind os --d 3 --t 2 --levels 0.5,0.9 --n-grid 8,27,64 --reps 40 --seed 7", 0, "4163e72633bc294cef00bc3ef40923e309a8c1522c8d432cbd781e4644190c6a"),
    "sweep-simulated-lhs-batches": ("sweep --mode simulated --kind lhs --d 3 --t 2 --levels 0.5,0.9 --n-grid 8,27,64 --reps 100 --seed 5", 0, "8a5f7324fc337e9e19d7ec70819663891f8003a589b64c1035c2d219e2b3210c"),
    "sweep-simulated-rows": ("sweep --mode simulated --kind lhs --d 4 --t 4 --levels 1e-13 --n-grid 60000,62000,65536 --reps 2 --seed 5", 0, "3495e7dc51a78c4d64e1f813b79120c29a4a099e6840d413fb1c6613019c395d"),
    "sweep-simulated-multi-word": ("sweep --mode simulated --kind lhs --d 6 --t 6 --levels 1e-17 --n-grid 6300,6400,6500 --reps 2 --seed 5", 0, "59b7c877ce2dfdd06134423d75e3e897752796a5ee07cee273451b210f85ca4d"),
    "gen-lhs-csv": ("gen --kind lhs --d 3 --n 5 --k 3 --seed 21", 0, "046f83d0677b2ef14bf4ca117f1716db72d222b1e415e677d3b06bd088f9953f"),
    "gen-lhs-json": ("gen --kind lhs --d 3 --n 5 --k 3 --seed 21 --format json", 0, "5824a4cbc01e392212b79db88e765364fe1bc2d1bd0490f1c96dbef421b3b5a1"),
    "gen-os-csv": ("gen --kind os --d 3 --n 8 --p 2 --k 3 --seed 21", 0, "a8f61be127dac1c3a2ce237fdaaa5fea8c8817e927486f9987f45ef1736ed086"),
    "gen-os-json": ("gen --kind os --d 3 --n 8 --p 2 --k 3 --seed 21 --format json", 0, "3f79736118b040a8200ae54aba476d32dd4cc9a39a7d39ad8a65b31a45efa6bf"),
    "simulate-lhs-rows": ("simulate --kind lhs --d 4 --n 65536 --k 2 --reps 2 --target full --seed 3", 0, "74021c1068da1734dd3765cdacf13fd4750616d88d3a9600523d85418a4170b6"),
    "simulate-os-rows": ("simulate --kind os --d 4 --n 65536 --p 16 --k 2 --reps 2 --target full --seed 3", 0, "8075cd123a2d13b16429384b662607f9dfa5d6dc80568f2e5ebb55220cb06b7e"),
    "simulate-lhs-multi-word": ("simulate --kind lhs --d 5 --n 65536 --k 2 --reps 2 --target full --seed 3", 0, "0dbe8823e46359e19cdf87bf148c46503b3647e1b761e4fe5c7dcba183834caa"),
    "oracle-intersect-lhs-grid": ("oracle --mode intersect --kind lhs --d 2 --n 3 --m 1,2,3", 0, "d894014623e3409d5307f1164ff09b4f740ead6a0309bfefd08dd4dbbe4586ef"),
    "oracle-intersect-os-grid": ("oracle --mode intersect --kind os --d 2 --n 4 --p 2 --m 1,2", 0, "ac4297719dea10ee58e79a46148cfb91e6be1426415139f7cf5c3e21fb89cb0c"),
    "oracle-cover-os-grid": ("oracle --mode cover --kind os --d 2 --n 4 --p 2 --k 1,2", 0, "e1e0258e41893c2501dc7f5874b69446294df66ee1690f31c44047d07a314ba3"),
    "oracle-cover-lhs-grid": ("oracle --mode cover --kind lhs --d 3 --n 2 --k 1,2,3", 0, "deadb7ee42af56fd5732189781ff2d94206f9a5cd538c58a6faae76fbf6c180e"),
    "oracle-cover-os-enumerated": ("oracle --mode cover --kind os --d 2 --n 9 --p 3 --k 1", 0, "4227ef6fc0693b5b4728eb89783a06c17d9d143e8982b1cbdb48dd6bedb490db"),
    "law-bracket-lhs-split": ("law --model bracket --kind lhs --d 2 --n 100 --k 17,64,256,512", 0, "d6a9bd8d4242a6b19ace3642ce8d4e3fc23b815256ac9fc9bf72b35389bf03b0"),
    "law-bracket-os-split": ("law --model bracket --kind os --d 2 --n 100 --p 10 --k 17,64,256,512", 0, "76c62777ab83ef85bcc0f240d148c7360f9043811923ce3f1197f8faba6a6919"),
    "law-bracket-edge-split": ("law --model bracket --kind edge --d 3 --n 50 --k 17,64,256,512", 0, "a407c32e11eb7f610d9723951447dc2c20d19e81257513f1b218403c14679fe7"),
    "law-bracket-edge-subblock-split": ("law --model bracket --kind edge-subblock --d 2 --n 16 --p 4 --k 17,64,256,512", 0, "37d1ba43cab3708532b55271c329924ee1f1d2615e89ae37e54902c1b280b2d1"),
    "exact-lhs-k-split": ("exact --kind lhs --d 2 --n 100 --k 17,512 --format rational", 0, "3fde9f54039f3a55af640a2780a936fa98058d1dbfb5866c1bae8c634a3cd4f5"),
    "exact-lhs-m-split": ("exact --kind lhs --d 2 --n 100 --m 17,512 --format rational", 0, "5e3d6135c884db4b5cba30d82ccaecc0a3fadff0dbe9c47522453250eae38773"),
}


def payload_digest(out: str) -> str:
    payload = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("#"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_payload_hash(name, capsys):
    command, code, digest = GOLDEN[name]
    assert main(shlex.split(command)) == code
    assert payload_digest(capsys.readouterr().out) == digest


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize(
    "name",
    ["simulate-lhs-rows", "simulate-os-rows", "simulate-lhs-multi-word", "sweep-simulated-rows", "sweep-simulated-multi-word"],
)
def test_row_keys_on_threads(name, cpus, capsys, monkeypatch, pools):
    # These rows are below the 2^21 keys at which they go to threads; every
    # key its own threshold sends draws, row keys and their count there.
    monkeypatch.setattr(rng, "PARALLEL_KEYS", 1)
    monkeypatch.setattr(rng, "usable_cpus", lambda: cpus)
    test_payload_hash(name, capsys)
    assert cpus in pools


def no_product(lo, m):
    raise AssertionError("a rising product was built")


@pytest.mark.parametrize("name", [name for name in GOLDEN if name.startswith("law-bracket")])
def test_bracket_builds_no_product(name, capsys, monkeypatch):
    # The bracket's multiset float comes from interval rounding alone.
    monkeypatch.setattr(exact, "_rising_product", no_product)
    test_payload_hash(name, capsys)


def test_exact_still_builds_the_products(monkeypatch):
    monkeypatch.setattr(exact, "_rising_product", no_product)
    with pytest.raises(AssertionError, match="rising product"):
        main(shlex.split(GOLDEN["exact-lhs-k-split"][0]))
