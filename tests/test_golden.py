"""Golden sha256 digests of the closed-form CLI outputs.

`curve`, `base-curve`, `optimal-net` and the theorem, lagrange and
irregular reports use Python float math (`math.hypot`, `math.cos` and
`math.sin` included) and, over their arrays, numpy's elementwise
+ - * /, maximum and comparisons, which round as IEEE 754 prescribes,
like Python floats; the diagonal's hypot stays `math.hypot` (`np.hypot`
only bounds it).  So their bytes do not depend on the numpy build, but
they do depend on the CPython release: these digests pin the
`math.hypot` of CPython 3.10 and 3.11.  From 3.12 on it rounds some
points near a rounding midpoint the other way: 4 of the 1000 diagonal
points of the base-curve-k5-past-2-512 grid (hole aspect 4/3) move by
one ulp.  The irregular reports also rest on the draws of numpy's
seeded PCG64 generator.
Any change that moves one byte of them fails here.  The tie band of the
curve's branch labels, where the vertical and diagonal scales lie within
TIE_RTOL, is kept out of these grids: its exact labels have their own
test in test_inscribe.py.

To print the digest table for the current source:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from tripwire.cli import main
from tripwire.errors import _chunks


def _curve(n, p_max, step, fmt, precision, p_min="1"):
    return ["curve", "--n", n, "--p-min", p_min, "--p-max", p_max, "--step", step,
            "--format", fmt, "--precision", str(precision)]


def _base(k, fmt, precision, *extra):
    return ["base-curve", "--k", str(k), "--p-max", "12", "--step", "0.02",
            "--format", fmt, "--precision", str(precision), *extra]


CASES = {
    **{
        f"curve-n{n}-p{precision}.{fmt}": _curve(n, p_max, step, fmt, precision)
        for n, p_max, step in (("1", "6", "0.01"), ("2.5", "12", "0.03"), ("10", "45", "0.125"))
        for precision in (6, 17)
        for fmt in ("csv", "json", "svg")
    },
    **{f"curve-n1e4-wide.{fmt}": _curve("1e4", "3e4", "1000", fmt, 17) for fmt in ("csv", "json", "svg")},
    **{
        f"curve-n{n}-p{precision}.json": _curve(n, p_max, step, "json", precision)
        for n, p_max, step in (("1", "6", "0.01"), ("2.5", "12", "0.03"), ("10", "45", "0.125"))
        for precision in (1, 9)
    },
    **{f"base-curve-k{k}.csv": _base(k, "csv", 17) for k in range(1, 13)},
    "base-curve-k4.json": _base(4, "json", 12),
    # a null crossover_aspect (k = 1), both odd-k annotations (k = 5), even k
    **{f"base-curve-k{k}.json": _base(k, "json", 17) for k in (1, 5, 12)},
    "base-curve-k4-overlay.svg": _base(4, "svg", 9, "--overlay", "3,1"),
    "base-curve-k5-overlay.svg": _base(5, "svg", 9, "--overlay", "4,1"),
    **{
        f"optimal-net-k{k}-p{p}.{fmt}": ["optimal-net", "--k", str(k), "--p", p, "--format", fmt, "--precision", "17"]
        for k, p in ((1, "1.5"), (4, "1.5"), (4, "3.7"), (5, "2.75"), (9, "8"), (12, "6.25"))
        for fmt in ("json", "svg")
    },
    **{f"verify-theorem-even-k{k}.json": ["verify", "theorem-even", "--k", str(k)] for k in (2, 4, 12)},
    **{f"verify-theorem-odd-k{k}.json": ["verify", "theorem-odd", "--k", str(k)] for k in (3, 5, 11)},
    **{f"verify-lagrange-k{k}-p{p}.json": ["verify", "lagrange", "--k", str(k), "--p", p]
       for k, p in ((2, "4"), (4, "4"), (6, "7.5"))},
    # the suite's default aspects at small k; one aspect at k = 150 and 300
    **{f"verify-irregular-k{k}-t{trials}.json": ["verify", "irregular", "--k", str(k), "--trials", str(trials)]
       for k in (1, 4, 6) for trials in (40, 1000)},
    **{f"verify-irregular-k{k}-p4.2.json": ["verify", "irregular", "--k", str(k), "--trials", "4", "--p", "4.2"]
       for k in (150, 300)},
    # 300 trials of 300 cuts: two chunks of trials (errors._chunks), as in the full verification run
    "verify-irregular-k300-t300.json": ["verify", "irregular", "--k", "300", "--trials", "300"],
    # tables across p = 2**512, where the diagonal's legs change formula
    **{f"curve-n2-past-2-512.{fmt}": _curve("2", "1e160", "1e157", fmt, 17, p_min="1e150") for fmt in ("csv", "json")},
    **{
        f"base-curve-k5-past-2-512.{fmt}": ["base-curve", "--k", "5", "--p-min", "1e150", "--p-max", "1e160",
                                            "--step", "1e157", "--format", fmt, "--precision", "17"]
        for fmt in ("csv", "json")
    },
}

# Recorded before the closed forms were split into checked entries and
# unchecked cores; the JSON tables at precisions 1 and 9 and the base-curve
# JSON at k = 1, 5 and 12 before the tables' JSON was written in one pass;
# the tables past 2**512 before the p-grids were tabulated in numpy; the
# irregular reports while each trial still built and scored its own Net,
# and verify-irregular-k300-t300.json while each trial's gaps still came
# from Python floats.
DIGESTS = {
    "base-curve-k1.csv": "c7542181162c8bb457014de5e83b38fcdcf1a3a11da68e21758eeddf918d62e7",
    "base-curve-k1.json": "1c393a49f868760a93f029c0fd57f75822c6d4b88030909f9746354a2537915a",
    "base-curve-k10.csv": "2c4c2ad70f38b2065f681cfaed6f2432927d148ecb24c51643f1f67263088bed",
    "base-curve-k11.csv": "a9e3aad3c6cf964a3bce628a07fa3583884dc61a1b9d782660a4209fb1b63d21",
    "base-curve-k12.csv": "555333ce94270b8f457e76991d32cf196fe3ba05b0f7bfcdea7ef5bfd4371247",
    "base-curve-k12.json": "f1112d654e1a61c274422d304ba041ea6fee1ae287a889302c4cf5c4ba1c2be9",
    "base-curve-k2.csv": "7ed346ca8d2c4e5a97f09a6779c1598178899c4cd102228f20091214e8ac06c4",
    "base-curve-k3.csv": "5c3fe1be3da4f9ba997a3ac3f70c52a992e1e862f5ed02a23e24affd27f4d593",
    "base-curve-k4-overlay.svg": "740043c45a4264c4f5fc434d52f6e0f37c62ba7572a7c441218418e9156fbe96",
    "base-curve-k4.csv": "60cc63b7cd4ae626fc70d8bc4057f60ff258e732535edf0b031468fcf1569d57",
    "base-curve-k4.json": "0b6ab244a360330eda0f8bebc42b938d9330bea58e0cd958651d07df54e6ba2a",
    "base-curve-k5-overlay.svg": "35f8baf4e942a9fdbd9b43cef8be4885d3d893fcd66007c1f50d7325739ddcfd",
    "base-curve-k5.csv": "b7e1e9e7ac189ddb7823238dc967038f6ca2c9b96c653eb1c7e9e786698c8d72",
    "base-curve-k5.json": "3e9b2198db70b9b57c5f0d8767877b5ba6da5051845a4ef26a5577cadc612791",
    "base-curve-k5-past-2-512.csv": "a9814c363438c98312270271c737ee7a5e7b3dc428d75e67b5902c3b28b04ac8",
    "base-curve-k5-past-2-512.json": "793a7fb9fffbb04d7a1bd9ce2905d59c83bde40a4c1f1bb188b7cce1303f10cf",
    "base-curve-k6.csv": "24b814973d32a80759393f25fcac269fd3bd7d8040cc274eee71447709d8447d",
    "base-curve-k7.csv": "44db7db12141cde20db0ba196bdd32495084cf39ff2a56290c4c22872a6fe01b",
    "base-curve-k8.csv": "4fa928a66b7e23801a526de2a7823a26bb68455c0d2cf029628669f0fac47821",
    "base-curve-k9.csv": "247e219d6f1755046b028f1de5a2e8d1f12195234cdb8e60d40f90e10b5d9588",
    "curve-n1-p1.json": "558a62939dc3b90609ac6909ed75e0d5a7172d78c37836d4151f647063564103",
    "curve-n1-p17.csv": "cc37d7000622e0602c71b4f2e5118db76e09c6144e898b254e72bd60536d9323",
    "curve-n1-p17.json": "7f254a4274020f53a998b061f30479a5ec6ef917071c1cd0ccd70c86fb9503cb",
    "curve-n1-p17.svg": "8848da4c42af8495e2442338e18ef1d93eca8d8e0ad10e0885b74597412eddc3",
    "curve-n1-p6.csv": "c4f94f88924092a6e4be41f2649903c2b3722b95fa79188a2d9a4cbb95c44c17",
    "curve-n1-p6.json": "95dd8273ae896f53f68a1e285ba017e7b1c08e78098fc31536b66c43b67f0f61",
    "curve-n1-p6.svg": "8848da4c42af8495e2442338e18ef1d93eca8d8e0ad10e0885b74597412eddc3",
    "curve-n1-p9.json": "9d9f85fc0f140392d5c878a1de7b85e302ea1a012e187542e096e5dd7f6cb94d",
    "curve-n10-p1.json": "c17ebb8a7ed78e480f120a14dc1f563b42660c0f3a4317b9bbdc3a69be0e30c5",
    "curve-n10-p17.csv": "6c2ea1046ffe4292f0fac46660f620df3120fc3712b7cc43dcd5bc9b36f8339f",
    "curve-n10-p17.json": "893ce06a05171bdab6c876f37a6b93727513d8f124ac833874c0f7b91cafadbb",
    "curve-n10-p17.svg": "3c743c52b10a326fd82f9b1947f6242e97fbf347fb181965a24d949ee33986f2",
    "curve-n10-p6.csv": "a32e2ab73b026ce48a53a95d075673046514160f1ee809b4383272fae0a2bc3a",
    "curve-n10-p6.json": "91a3dd3da7cd60c5f0fefec8998ded9e37e1b4a823c45a15e8e385218f45ad9c",
    "curve-n10-p6.svg": "3c743c52b10a326fd82f9b1947f6242e97fbf347fb181965a24d949ee33986f2",
    "curve-n10-p9.json": "6082203a0fff5c13d36c3256895887b2afb4c7db97798700afdb173805812b15",
    "curve-n2-past-2-512.csv": "67af6fb653f4b420b62b175ce0046a23cbceb715e66da6839113d8ca563ce2ca",
    "curve-n2-past-2-512.json": "aec28dfd94d0531e2bbe4643905f21ec1c927fe5cd0c6a73d798b74f9adba28e",
    "curve-n1e4-wide.csv": "8e125a3fa0206ef8103f8df097e7be9de1544a3c601ca03cc07cc224ba57a374",
    "curve-n1e4-wide.json": "42ade5884c567f4b66a8fe09f9a93dc3f0d534242b8a9622172e05d126cef24f",
    "curve-n1e4-wide.svg": "e7fa2a8da7e13544d160959b0eb42a2f2fbded4495207a54bcd5246efc303077",
    "curve-n2.5-p1.json": "967b48cefc360201f292c2172ca29b460dffbac0571ee62988fe63c550e5dc0c",
    "curve-n2.5-p17.csv": "f35b60a67ec4d9fe7e05aac227eada4784ba3948aba9060fad174b00cfaf3062",
    "curve-n2.5-p17.json": "23c29b9018e87b202b0ae9b167a6cf5d7575133ad5c89e0271c1364fdc797e3b",
    "curve-n2.5-p17.svg": "ef17a9f9bad70f28151ba5fe4d0de0c7c3e62bc1e391b157e152e3292e8602f9",
    "curve-n2.5-p6.csv": "50f8b8fc96603a48f67ffc9e766018a0815077d12e031268fc41fbe2c04727cc",
    "curve-n2.5-p6.json": "43b98360c5b2ba8e1e999efba8ded9b66df38d0e46b94b434ef5cb3e2466e7b4",
    "curve-n2.5-p6.svg": "ef17a9f9bad70f28151ba5fe4d0de0c7c3e62bc1e391b157e152e3292e8602f9",
    "curve-n2.5-p9.json": "8858c43ce1d2a565fd6613a18b6de47d2da919ec80ac8a473b58d1ecff294bc3",
    "optimal-net-k1-p1.5.json": "8a896d4e5ced20a2038cd54455b951e649fb4876e9a48d45607333e19820c3ca",
    "optimal-net-k1-p1.5.svg": "be94cd22a431c261a2a086eeb8513966bf696429bcdc9d41fe519d433fa8e5c5",
    "optimal-net-k12-p6.25.json": "3f9f31662326367e773f91ec546ffaa47e499561409191a5cc7a1abb7572f871",
    "optimal-net-k12-p6.25.svg": "c2cb12c308f48402f209d173a4f96f3529294c0cc9eec708252d6e68c2723d9f",
    "optimal-net-k4-p1.5.json": "94238ef310a79c5c2093137f7d6280d679e1d52dc7c54cc3ced7aed040e714ef",
    "optimal-net-k4-p1.5.svg": "921dd7327e6c97c6a52f034007d367e3c7f9ae4dbe1175284507fa23d4dca969",
    "optimal-net-k4-p3.7.json": "ea4021321aacb2cca8856ff8872b4464dd38fcc1aff42b9802e27a9a2474c5de",
    "optimal-net-k4-p3.7.svg": "1e8efe247fb08e1d8aa3bbf334267d1f3c87333a347143d72a19e2790ccf3c24",
    "optimal-net-k5-p2.75.json": "fc386a0ba08ef8a64f5428157b948a9ce187283e2a49619f0b7b2255bee5666a",
    "optimal-net-k5-p2.75.svg": "c73ccd47cf08f4f7f04d4ffec1b68e16387fd70d595251677a20ad56d3f8055c",
    "optimal-net-k9-p8.json": "6c3fe8f54547bb8804b608e65993d5f5a6cb7cdd08db3c3bb5110f497a2740b2",
    "optimal-net-k9-p8.svg": "2bfe6a514e71bffdb95f3465ce1398d6d8f1238bcfe0bff559ef408a80a1ef3b",
    "verify-irregular-k1-t1000.json": "8ed2cb307ca5a4b445a9ac4b878a9e3cb3e13748f299c9ac491ff3b0ba097eba",
    "verify-irregular-k1-t40.json": "f06a6ee9d356b1349d8da122705f33392d702a337139845dc1f7087d1bd0c491",
    "verify-irregular-k150-p4.2.json": "a114235cae710d9fd52cc86196d268eeff8577e569cc2971ab37e35355e0207e",
    "verify-irregular-k300-p4.2.json": "14cbaf3b7d0b535fc648407527060bc18b9404f7a74b8df652c76b51cec5fea4",
    "verify-irregular-k300-t300.json": "ca7b348ac38676ffab65e872fe2343efa0a0ed7b02313f5260b6ee5bba8b8fcc",
    "verify-irregular-k4-t1000.json": "3a64e5436f3ecb1f95f5a99ea78d44c1dbcf46b9be4707d6c7e52f101feeb563",
    "verify-irregular-k4-t40.json": "6d17e7c5b9155f2627041b568beef5cded60ea49961689228eeb76a12ee22b7c",
    "verify-irregular-k6-t1000.json": "88a71c108cae85fdd9259f29f8db617084ec30e89e758f5c1439704656b823b5",
    "verify-irregular-k6-t40.json": "246bf5199184bd6879e6f51bf01c2927c18a0a1aef14607377bcb593b3b4270b",
    "verify-lagrange-k2-p4.json": "cfc1c0f053ce9bb127df07788e695c72e925be3e21233bdd8d22f8a9939a2128",
    "verify-lagrange-k4-p4.json": "3ffa6a75448d5a1f4383330120fad7ff9ed2b8dc220d41e7bdd8b34d9b64407a",
    "verify-lagrange-k6-p7.5.json": "71a28079f55518ba9a33828d1e035857ee45542b39310a2ac80adad72406c816",
    "verify-theorem-even-k12.json": "bff31a24fff9ce9893aeaea7af007a142a6323c666f54db9ef1685acc53c1f3f",
    "verify-theorem-even-k2.json": "1e854c8abcf94af0165eaabcb7821b63253f079750bb26aab02733344298eff7",
    "verify-theorem-even-k4.json": "cb3927583a468deb2d15dde100b7f6f391f2357859c18a66da244b7386acc48a",
    "verify-theorem-odd-k11.json": "72461651f7061d72cbc574b055ebc0dd8ad7667a93371eb7db2fd0a05b0e3e42",
    "verify-theorem-odd-k3.json": "43e8699ce3aaf44195eb3a72fb1071fd5c63bf550325804352eb59fffba8410a",
    "verify-theorem-odd-k5.json": "91e072a05fe1f53903b16c0e48f5d12684d197adb7754f5a09d3b3fc59d6fc38",
}


def digest(name: str, directory: Path) -> str:
    out = directory / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)


def test_an_irregular_report_spans_two_gap_chunks():
    # the chunks of 300 trials of 300 float jitters each
    assert len(_chunks(300, 8 * 300)) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_its_golden_digest(name, tmp_path):
    assert digest(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory, open(Path(directory) / "stdout", "w") as sink:
        stdout, sys.stdout = sys.stdout, sink  # the verify suites print PASS lines
        try:
            table = {name: digest(name, Path(directory)) for name in sorted(CASES)}
        finally:
            sys.stdout = stdout
    print("DIGESTS = {")
    for name, value in table.items():
        print(f'    "{name}": "{value}",')
    print("}")
