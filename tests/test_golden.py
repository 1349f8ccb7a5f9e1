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
        "7d0defa0fa6bc00522542161dbacde72008d038ad0accc3ffbd29fb6f6138d06",
    "spin9-cap36-json":
        "da9dde21946012ad099b079938ef670fd46479afc29eed2c85e16d14ea73b948",
    "spin9-cap36-text":
        "603d09e5c446a5b0a46552fff4b9df29ea8cbe043537a23ad0badffe8a41d8c1",
    "spin9-cap44-json":
        "5a8ece16a084ebbaccd746e2bbe91366b07720a964e06711f3417115177fe53c",
    "spin9-cap44-last-columns-json":
        "f27289fca497a3df0b89f95401011d52c7302ada2e9efee406cabf1e49dbcaef",
    "spin9-cap44-text":
        "a25575fa59f4ba7854715d003539a80d20faec81283c6d2416b81003464e8d6d",
    "spin9-cap52-json":
        "dc5e4a8da9681befe49f179127c9491e5569e68421b889e14fdfb7e6aa114b87",
    "spin9-cap52-last-columns-json":
        "9dcd33b736d2afb3825cf5bf4f802e7f6b24ff2e0ff5ed684ff4a8cfebff1b64",
    "spin9-cap52-text":
        "854bc43d886732094e0a7fadbe9acc6b037c4ec2380248abaa03adc285a4461e",
    "su10-json":
        "5fb6b2b7171d9c6e3b9dd50e772cf5d8705484787957599e6884425abb0fd438",
    "su3-json":
        "91c758c4e8080181944f2ec93ee44fca7c27e88d7c1ae05851a09c406b4ec740",
    "su4-json":
        "84312906e89324408cc780744c917ec4847a7e1f6cfcb044f0cd545c0739b6fe",
    "su5-json":
        "622f0de85ff5d289784bb7d2910686acddbcb0a1e1705f3e7ad82dbf90fc53be",
    "su6-json":
        "b6f3dfbb5ac99610250a76f48e84bd3a0aa684cf58124ae216dda33afb12f093",
    "su7-json":
        "5594dfab3125089807402a2e260001692842d6d0ca3523b8be4b81c9211a1feb",
    "su8-json":
        "b9d51a1a923d1a59d16a29b68c1c321ed579b456845216805d6ba222dd29568d",
    "toy-trunc-poly-json":
        "2272c19d5bd3da761b704a6055a91242ed4295821ab7ad35ba5dcc1f5e194b1d",
    "toy-trunc-poly-text":
        "c28c847c3f11fde3f13161ca10fbce182cd0c194656237541856d57915451cd9",
    "unit-json":
        "82b412bbe9c4572bdda1d0d03d1bd8d9283fed2c3b926e482a2d2a6f5ffb4dc6",
    "unit-text":
        "33b80c4615d33af08713952b35b9914cd22ae1d913f7798803dc3979ccee14dc",
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
