"""Golden digests: CLI output pinned across commits, not just across runs.

Each case is one `lscat` invocation; its digest is the sha256 of stdout
followed by the exit code, and by stderr when there is any.  A refactor that claims identical output must
leave every digest unchanged.  After a deliberate output change, print
the new table with `PYTHONPATH=src python tests/test_golden.py` and
paste it over `DIGESTS`.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lscat.cli import main
from test_cli import two_page_data, unmatched_lattice
from test_specseq import padded_spin9_data
from test_weights import su_data

STAGES = "0,3,7,8,9,13,20,36"
SU_SIZES = (3, 4, 5, 6, 7, 8, 10)


def cases() -> dict[str, list[str]]:
    """Case id -> argv; an `{su<n>}` argument is that SU(n) fixture's path,
    `{unmatched}` the path of `test_cli.unmatched_lattice()`, `{two-page}`
    that of the two-page synthetic fixture, `{unknown-permanent}` that
    of the same fixture with the permanent cycle x1_4 renamed x1_5 and
    `{padded}` that of spin9 with permanent exterior factors from u8 and
    u12 (`test_specseq.padded_spin9`)."""
    out = {}
    for cap in (36, 44, 52):
        for fmt in ("json", "text"):
            out[f"spin9-cap{cap}-{fmt}"] = [
                "report", "spin9", "--degree-cap", str(cap),
                "--truncate", STAGES, "--format", fmt,
            ]
    for name in ("toy-trunc-poly", "unit"):
        for fmt in ("json", "text"):
            out[f"{name}-{fmt}"] = ["report", name, "--format", fmt]
    for n in SU_SIZES:
        out[f"su{n}-json"] = ["report", f"{{su{n}}}", "--format", "json"]
    out["unmatched-lattice-json"] = ["report", "{unmatched}", "--format", "json"]
    for r in (2, 3, 4):
        for t in (None, 4, 8):
            argv = ["dump-page", "spin9", "--page", str(r)]
            if t is not None:
                argv += ["--truncate", str(t)]
            out[f"dump-page-r{r}-t{t}"] = argv
    for space, cap, pages, truncs in (
        ("toy-trunc-poly", None, (2, 3, 4), (None, 0, 4)),
        ("spin9", 52, (3, 4), (None, 0, 13)),
    ):
        for r in pages:
            for t in truncs:
                argv = ["dump-page", space, "--page", str(r)]
                if cap is not None:
                    argv += ["--degree-cap", str(cap)]
                if t is not None:
                    argv += ["--truncate", str(t)]
                out[f"dump-page-{space}-cap{cap}-r{r}-t{t}"] = argv
    # The stages between the last reported E2 column and the last E2
    # column, scratch degrees included: 14..16 at cap 44, 17 and 18 at
    # cap 52.
    for cap, stages in ((44, "14,15,16"), (52, "17,18")):
        out[f"spin9-cap{cap}-last-columns-json"] = [
            "report", "spin9", "--degree-cap", str(cap),
            "--truncate", stages, "--format", "json",
        ]
    for t in (17, 18):
        out[f"dump-page-spin9-cap52-r4-t{t}"] = [
            "dump-page", "spin9", "--degree-cap", "52", "--page", "4",
            "--truncate", str(t),
        ]
    out["dump-page-negative-truncate"] = [
        "dump-page", "spin9", "--page", "3", "--truncate", "-1",
    ]
    # Inference fails on the two-page synthetic: E2 prints, since no
    # differential acts before page 2, and page 3 exits 3.  A permanent
    # cycle that is not an E2 generator exits 3 at every page.
    for r in (2, 3):
        out[f"dump-page-two-page-r{r}"] = [
            "dump-page", "{two-page}", "--page", str(r),
        ]
    for r in (2, 3, 4):
        out[f"dump-page-unknown-permanent-r{r}"] = [
            "dump-page", "{unknown-permanent}", "--page", str(r),
        ]
    out["validate-spin9"] = ["validate", "spin9"]
    # A fold that splits with untouched factors next to spin9's own.
    out["padded-u8-u12-cap36-json"] = [
        "report", "{padded}", "--degree-cap", "36",
        "--truncate", STAGES, "--format", "json",
    ]
    out["dump-page-padded-u8-u12-r4"] = ["dump-page", "{padded}", "--page", "4"]
    return out


def digest(argv: list[str], fixtures: Path) -> str:
    paths = {f"{{su{n}}}": str(fixtures / f"su{n}.json") for n in SU_SIZES}
    for name in ("unmatched", "two-page", "unknown-permanent", "padded"):
        paths[f"{{{name}}}"] = str(fixtures / f"{name}.json")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([paths.get(a, a) for a in argv])
    text = f"{out.getvalue()}\nexit={code}"
    if err.getvalue():
        text += f"\nstderr={err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def write_fixtures(directory: Path):
    for n in SU_SIZES:
        (directory / f"su{n}.json").write_text(json.dumps(su_data(n)))
    (directory / "unmatched.json").write_text(json.dumps(unmatched_lattice()))
    (directory / "two-page.json").write_text(json.dumps(two_page_data()))
    (directory / "unknown-permanent.json").write_text(
        json.dumps(two_page_data(permanent_cycles=["x1_2", "x1_5"]))
    )
    (directory / "padded.json").write_text(json.dumps(padded_spin9_data(8, 12)))


DIGESTS = {
    "dump-page-negative-truncate":
        "47f26b0e7ce62cd11b54db8e4d68e972e455f7944705771849c8899838344884",
    "dump-page-padded-u8-u12-r4":
        "885dd1e6b363abd6627dfaad74f6b5e05eba77ea0d2a5ff15d1f9c0931fc025b",
    "dump-page-r2-t4":
        "53298d96aeed8daeb1bc60aaf586f1e814ae60591fa72dc2f2e3249973cb80ba",
    "dump-page-r2-t8":
        "d29d762d4c51713e9c999338075dab4ae24490c284b9bda23b52db8ee902a2e6",
    "dump-page-r2-tNone":
        "e3a797eaee8958c9691dad025f7f4721d4479e8d150b224d2c6a4e8b74766564",
    "dump-page-r3-t4":
        "189c3df04eaf8fa901625cfd20d7be831e7f3193c5a008edf402dbf4590bfb68",
    "dump-page-r3-t8":
        "2a1c1a3cf295e4fcc483772c1c407dd55a509fecc456a68fbb4f01cedd45e3d4",
    "dump-page-r3-tNone":
        "0b2c50585cb21cebebcb06c1525800f36f3a0ede70f7c05957d3b9b476f8c8f9",
    "dump-page-r4-t4":
        "bea320b725d643cc65e81489d763f708b48922640a2a87f947071b78d09ed7b6",
    "dump-page-r4-t8":
        "d592d123e1297799e06cce1d9ef88e1c880ea000d0762c9a058882df05c6b701",
    "dump-page-r4-tNone":
        "7b0d18401d27ea0ebaa8e6e69369eec9033de1ccbe7b2ebdf398e46915c8de26",
    "dump-page-spin9-cap52-r3-t0":
        "1d643f5c3ccdf58c6f5f7d06529564c793f54a54c7f1afd9865a9db641857b77",
    "dump-page-spin9-cap52-r3-t13":
        "c2868ce3ba3e1ddf9cae5b3d118042625b3e7a612a4c0a87e71c6dd7a0e1715a",
    "dump-page-spin9-cap52-r3-tNone":
        "1a684f58adce9d4997464d65837e41f03bfeea4833d6b24536c29091bff2ee45",
    "dump-page-spin9-cap52-r4-t0":
        "3e02eca55574eb41269079a10f77a26a6b3d06148298e4e27ee4cfaebe8a5441",
    "dump-page-spin9-cap52-r4-t13":
        "63cdfad798f8741fef8cdb5ccd78e9d422310cc4a3a9975d2239222ec4643421",
    "dump-page-spin9-cap52-r4-t17":
        "dff84950e57e267d708e1c3da24b66e93067467d9fdc1126ad99daa73ed3250a",
    "dump-page-spin9-cap52-r4-t18":
        "896f5f4d1c81af1fbb26c55f784a60d52edf47b08872644875a48aff09f78e40",
    "dump-page-spin9-cap52-r4-tNone":
        "dc8d9a45576db73ca545092dfbd11c0f059b91f06b92d1dbeac7c658cd053702",
    "dump-page-toy-trunc-poly-capNone-r2-t0":
        "2ad8ddde54796c5b9484f151e059a1b8211e249965bf198ff85a80a712dce015",
    "dump-page-toy-trunc-poly-capNone-r2-t4":
        "5ace1bfbe826d56899c238c6648481150ce805a47169de14b93e3072d6500c27",
    "dump-page-toy-trunc-poly-capNone-r2-tNone":
        "accbdfbf8777324eddb85ee93b8b9cd84d01c794877951d814487cd7d61994f9",
    "dump-page-toy-trunc-poly-capNone-r3-t0":
        "aad2029149cf95cae6ddde4d2dda164d40148e7f47086e858930dc5c32142099",
    "dump-page-toy-trunc-poly-capNone-r3-t4":
        "3c9cfdaa6f2eace1af850fb2dfdb11a2ba22c863cbf73256175be781014501ae",
    "dump-page-toy-trunc-poly-capNone-r3-tNone":
        "72ecc44756b6fa61697f1854b17c4950551253755fdb7655eb4249c22b02455c",
    "dump-page-toy-trunc-poly-capNone-r4-t0":
        "376432c3e9c1aa72775503ec232c024ca06027e7101ef9e973645ff6f5b5ce58",
    "dump-page-toy-trunc-poly-capNone-r4-t4":
        "5ba70092c81ffc874d3fd5b0c03c8beda54a9f8a45faae083ec00b785c917c84",
    "dump-page-toy-trunc-poly-capNone-r4-tNone":
        "284c43906f2a40ea3f74610aeb1053c2dc6aa06a16d4ea3a8d492ef8ad2fff5e",
    "dump-page-two-page-r2":
        "6290a6386d47c4211bd7f15e6d8a09a31095d06ac886ff0dac7b0b5a87063d5b",
    "dump-page-two-page-r3":
        "d95b30ae82aac17781e9762a58d1a652c204de353cd00133f81c0caf33029b56",
    "dump-page-unknown-permanent-r2":
        "963aefef11c115bd57bc754f406fb994abc24b9776acca45ddba105bf1886c9c",
    "dump-page-unknown-permanent-r3":
        "963aefef11c115bd57bc754f406fb994abc24b9776acca45ddba105bf1886c9c",
    "dump-page-unknown-permanent-r4":
        "963aefef11c115bd57bc754f406fb994abc24b9776acca45ddba105bf1886c9c",
    "padded-u8-u12-cap36-json":
        "a34fc48474d6548d36455b7f7d1fd2685e784bafae8753d0a6162dd9fcd6eb73",
    "spin9-cap36-json":
        "19a82a3d5e54d50df55cc7e2d1cd7c6207eff53dc6568ffe2c5ed3e89712dcb2",
    "spin9-cap36-text":
        "2cd23350ac4bb6e2b90dba95459da5c9403549375641c8c373ac5ce505bf4867",
    "spin9-cap44-json":
        "f2b2b42955a5d69a7a248cd4a866fa376cbd7e2a4f80c0d40062a88f7c06f01f",
    "spin9-cap44-last-columns-json":
        "796cda2603200dfff79a7149fad3600b32851f2e4e98081183c4f0c100f3c91a",
    "spin9-cap44-text":
        "9c6d1c798192cfc3712d3263e518645923981b487dde87aa1b651bf446b59dd1",
    "spin9-cap52-json":
        "8e8e15b50215b77d56813aa443022732cd50e3894db4278107c679cebf25993f",
    "spin9-cap52-last-columns-json":
        "00b2ddb6439d833d4920e52a56898f704a33e91675c04564d1509d05320647d4",
    "spin9-cap52-text":
        "1966ee73365730bfeb6bbb6cd5cb8b79cbcaebb262425a329d0933d775c2dad1",
    "su10-json":
        "b6844d63cc225f2d2c3ffb83a18b9eb6f3864d70988e0c22b668e90b6e31986d",
    "su3-json":
        "1b73e079a2327eaeabb145a619c6f4899ca44674d6e29cb074b870653686fa94",
    "su4-json":
        "c16544a0924d08b357ff82f1f88b1a68bff5d71f59f2ce551a5379cc70183daa",
    "su5-json":
        "ca803e20e2146ee607fd58a860412c316548fbdf2915e06cd43a923b47b0d6f2",
    "su6-json":
        "9673fca4760823d52d64d7764f033ab925602e0efc72c07fa89b08805836b81b",
    "su7-json":
        "6d023309f968e7c6e608439ad3d2616de9c567ac0293cd66b819bdd065ecbe1c",
    "su8-json":
        "33d60dfe6596fb7f46e51a4bd71ea2309d4a542b440181cd6316f396f68df048",
    "toy-trunc-poly-json":
        "e75b7a5650caf900f9e6b1f84b68f2fdcd870575f06532ecc25734e80707c9e8",
    "toy-trunc-poly-text":
        "7df1341059bbdec753f0270f64ff7bc818e8e283aa5ecaaf1827a0eb97452536",
    "unit-json":
        "f4d09f6dac9083a4a0ebb759b8331ac4bdc9e8c1ef60d623d2cb331032b0c908",
    "unit-text":
        "230b976ee887dd8bf1829d8966da8b5527e41adfdfe05b501f8d3af8d16b2aa1",
    "unmatched-lattice-json":
        "a5495cc892c98ecc61027b9bbea8639ba5a1f14451ee8173f4f334d6ebab783e",
    "validate-spin9":
        "e5a55c3cca76ca72710f3b84cb7df0c51dd66837463a39e53e65f5a8977c7456",
}


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_fixtures(directory)
    return directory


def test_case_set_is_pinned():
    assert set(DIGESTS) == set(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_output_matches_golden_digest(case, fixtures):
    assert digest(cases()[case], fixtures) == DIGESTS[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        print("DIGESTS = {")
        for case, argv in sorted(cases().items()):
            print(f'    "{case}":\n        "{digest(argv, Path(tmp))}",')
        print("}")
