"""The full `--machine` reports of `dl --check all` and `dualsym` against a
recorded transcript: every identity name, its order and its verdict, plus
one summary-format report of each verb; and the emitted CTB bytes of the
generic rank-1 tables and of Dixon tables of enumerated groups against
recorded hashes.

golden/rank1_reports.txt holds one block per command: a `$ rigikit ARGS`
line followed by the command's exact stdout (each command exits 0).
"""

import hashlib
from pathlib import Path

import pytest

from rigikit.chartable import emit_ctb
from rigikit.cli import main
from rigikit.dl_rank1 import build_family

GOLDEN = Path(__file__).resolve().parent / "golden" / "rank1_reports.txt"


def _transcript():
    blocks = []
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("$ rigikit "):
            blocks.append((line[len("$ rigikit "):].split(), []))
        else:
            blocks[-1][1].append(line)
    return [(argv, "".join(out)) for argv, out in blocks]


CASES = _transcript()


@pytest.mark.parametrize("argv,expected", CASES,
                         ids=["_".join(argv) for argv, _ in CASES])
def test_rank1_machine_report(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


# sha256 of emit_ctb(build_family(family, q).table)
CTB_SHA256 = {
    ("GL2", 3): "2640fddcf8d287ea21f2314bcad9ad7ef3b1e4bcfc6816787d5f69df1b5b89f9",
    ("GL2", 4): "e571cd01d4a88d078f3610d55952187a29639eadcbcd51b24d261c0a8ee14186",
    ("GL2", 5): "e9345c18abf438ebc6da3fc2b1cf939a053a64c41e3b3066dbaec00073f4647b",
    ("GL2", 7): "63d8d64da2dd5fca36eee58afabed779de8d2c8e89763a9994ecfe72facb66a4",
    ("GL2", 8): "8dd2b59fab368db9c355da0d12524e80ba207d74532d8dc017365393c3dc53ff",
    ("GL2", 9): "8f6594dfd3a5336eb54a71573a3e28b193df19e87bbeb5b4df0b488aa0f44fc6",
    ("GL2", 11): "c1351e210f631be5f257f3fa8a67fe7113fb6cc02c37fcc08503be8be960f644",
    ("GL2", 13): "90d0a7f2516a8bb93f28ee4295ad19f86c61acbe14e34528c4bf4e2bbed606e3",
    ("GL2", 16): "931eddcc87d383925896571515874b501ab40173b6566c612abb20c7440ad44c",
    ("GL2", 17): "1e681229e8b2e483274984e595f34732756c03dffd6546e488f05c00064a147c",
    ("SL2", 3): "ea446c82933036c69ed7106c93034ac0b136a363b4c3b5bf87c32ecfcf38d1cf",
    ("SL2", 5): "84ad3d50f926fa8814dfd031088d50df9d5a4f2f841953fa8f83e24e8132beab",
    ("SL2", 7): "dd7f2880430da974f6097291584930106fa5bb322e1cd2365924d2641bfed948",
    ("SL2", 11): "5494303bab7f0bc546b2814d35aebce997e4a65e458fc6c674dbe5621e916b10",
    ("SL2", 13): "38acffb2a7858c0a6f7ebae24f9f94cf0eb72a09487b0afe951aa3c8a10e5dc8",
    ("SL2", 17): "79920072b1a67e9afd68e881341b8a6a1f08b1136bd8960d34461e404189098f",
    ("SL2", 19): "48df6a5c732161c9dd0d8583acf17eacc1ea92a468c0e18f6d4acc14512b871a",
    ("SL2", 23): "fbf47aaf7efadc10368906294637c351f1b06119a2f880d68fc746f773056a22",
    ("SL2", 29): "b6a415372ba43ad54e76a4e3c123393777111d6f569866ad457af7bb8f52c7de",
    ("SL2", 31): "94f0cf13a38a274fddce9d0b63fcd0ef69c926d8db18f9626550d3aaff8483dd",
    ("PGL2", 3): "441f0424ebbcbb81bfb529b16b6057e47484a15aa54366a94bdb4cbc5ef7b20b",
    ("PGL2", 5): "8d38ccdfb2c8780a49f5ad97403734daf1f516ab52994d2267da41c0fb419e4c",
    ("PGL2", 7): "3ad65f1f1b6ea9dde30f4e553b67d8ba260d44137f5157205042dd177b90ace0",
    ("PGL2", 11): "57399b7f020ec9bcf5170a2e35066b97f0e62094a153ff3d216be7b6d5281df7",
    ("PGL2", 13): "81f708d70abcf418d7a29cdbe10184498ccd7ba3cafbb4a693f0664e078fc027",
    ("PGL2", 17): "8f7334ec1547df7369d62c222c29c3ee1e38ef973d0f90c7a716239db0632dff",
    ("PGL2", 19): "81ed08fc6cfbbc5e09c93322a7aac0fc485e3bb14d828bf33f1cf8d47f8047a7",
    ("PGL2", 23): "09fcf9a8ec8386c59a7709f32afdde9a7319ace56de7b39915eb099e3b9b353c",
    ("PGL2", 29): "d3cb1ffbbbf06522c376389cc8a0a00b02dfbc8d5ef6ee00a3de65cc9552d5ed",
    ("PGL2", 31): "abd1d132a884021d523df745a48a25695ef8a35c05e29484a9531130ca353601",
}


def test_rank1_ctb_bytes():
    for (family, q), digest in CTB_SHA256.items():
        text = emit_ctb(build_family(family, q).table)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, q)


# sha256 of the stdout of `dixon SPEC`
DIXON_CTB_SHA256 = {
    "SL(2,5)": "dcb870432af7b5b2db871fb2766bbfa1ed259ba6fb0b9d3e53f5d3c549dacd76",
    "PSL(2,7)": "29cc6a7f0fa4d94cf840f4f6eed7a9808972a051f9ad5a6ff1ffe2c164b6d29c",
    "GL(2,3)": "327e9b8c30f63805085d4db3a0784c89265ad1fbbd1284b8338fa68f93076a16",
    "PGL(2,5)": "a6e1c7c652da453e543b21954397986135fd29734d22d7f7023f5335af875cf4",
    "SO(4,3)": "84cbfadb2d06dade866c613199bcbda5ec70f5174b49df86833108a89aaa3b9f",
    "SL(3,3)": "8a2be98c3f7dec4e0e84dfb7905e76deebf066c29c50184cdd48b42a9dc02be2",
    "GL(1,13)": "6e6551357d12cc6150d3c88dfa37c56a1a2e083569706b79ac2a9f3bcb7d8ab0",
    "GL(2,7)": "81d493aefa0c5af0bc509322a36d8e7e825bd71e0745259bc4e4a2b0c64849c8",
    "PSL(2,11)": "74e516f24a00be1cbd35ee74c2d85737d163adf0948281d667ee032ce3d896b3",
}

# GL(2,5)'s standard generators conjugated by one seeded matrix
CONJUGATED_GL2_5 = """\
matrix 2 5
1 2
0 1
matrix 2 5
3 0
3 2
matrix 2 5
2 4
0 1
"""

# sha256 of the stdout of `dixon @FILE` on CONJUGATED_GL2_5, by --projective
DIXON_FILE_SHA256 = {
    False: "0d829106d678f0140aaa35f74d4c57a5fa3e6a6de9e0cbf5a6e6dc202fae9294",
    True: "106ecaab594fa5ff46eb0917a824b621d990e93591bca835b3dc768b0cb6e6ae",
}


@pytest.mark.parametrize("spec", sorted(DIXON_CTB_SHA256))
def test_dixon_ctb_bytes(capsys, spec):
    assert main(["dixon", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIXON_CTB_SHA256[spec]


@pytest.mark.parametrize("projective", [False, True])
def test_dixon_file_ctb_bytes(capsys, tmp_path, projective):
    path = tmp_path / "gens.txt"
    path.write_text(CONJUGATED_GL2_5)
    assert main(["dixon", "@%s" % path] + ["--projective"] * projective) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIXON_FILE_SHA256[projective]
