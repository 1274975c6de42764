"""Golden CLI outputs: SHA-256 digests of the stdout of fixed invocations.

The digests pin the exact bytes that the orbit, resolution and contraction
commands print (JSON, certificates and text verdicts), and those of the
fusion-side commands: fusion tables, single fusion products, the
pre-quantization catalog and the root data, in every output format each
command accepts (text, JSON and CSV).  A change that alters
any of them on purpose must say so and why, and record the new digests.
Every output, CSV included, ends in exactly one newline, every command exits
0 (a resolution whose verdicts do not all hold exits 4), and every pinned
certificate verifies.
"""

import hashlib

import pytest

from alcove.cli import main
from alcove.resolution import verify_certificate

GOLDEN = {
    "orbit A2 -J 0,1,2 -N 3 --format json":
        "5ec5798e41f0c62f7dcfba94467fefec9a0d45948165e773eb22031e25b24067",
    "orbit C2 -J 0,1 -N 4 --format json":
        "da11d64f844e7a279c01229ec023464f7e10c142086ebc882e78a2acc165db2d",
    "resolution A2 -J 0,1,2 -N 3":
        "613f93430a05ec43fbd30dede7e7f3927e1869d99e9eb23311e3cc4376d6acee",
    "resolution A2 -J 0,1,2 -N 3 --format json":
        "0e42a1a90efc2a2e2a88ba3ea54aa86b3a289e068e095c7b885b28e70f511067",
    "resolution C2 -J 0,1 -N 4 --format json":
        "430f7510599302149e84a0293d59d2243b6f8ba29b254d7744599dae7469e358",
    "resolution G2 -J 0,1,2 -N 3 --format json":
        "01137bd4f1edfe99e6ba8c33a9cab134f107308211d10c38a80097b2b14a8101",
    # recorded at 0e02818
    "resolution A3 -J 0,1,2,3 -N 5 --format json":
        "457842fed31b7ea9950385edd394de3825eea52282a4167b25f422ebf8ac50c2",
    # the A4 complex (1,451 cells, 4,560 nonzeros), recorded at dfae197,
    # before a truncation stored d_p as the complex's own face chains
    "resolution A4 -J 0,1,2,3,4 -N 4 --format json":
        "a2311daa8de826ff64655de8472b5502517cec4c5df4a728120a1321949b599c",
    # the E6 complex (4,687 cells), the largest pinned, recorded at deb0a49,
    # before the ranks came from the checked Morse matching
    "resolution E6 -J 0,1,2,3,4,5,6 -N 3 --format json":
        "9e9c6c7f7fa27712ecf27558e2f122f09d16f7511d76cfcd4555f018a64cb5db",
    # the five certificates were re-recorded when points became integer
    # numerators over D: the same chains, term for term, x_new = D * x_old
    "contract A2 -J 0,1,2 -N 3 --seed 5":
        "908cf2e0c0269908bb3405745f77de0661621e88f72c4f5d728fd63cedbe730b",
    "contract A3 -J 0,1,2,3 -N 2 -p 2 --seed 1":
        "333766f0a62fa42e690caaf5b2ed427461840b6fe30a4c6fc0c192c4509e6f49",
    # certificates on non-symmetric Cartan matrices, where the weight and
    # point reflection tables (transposes of each other) differ; C2 on a
    # non-full face; recorded at 4a7f613
    "contract G2 -J 0,1,2 -N 3 --seed 2":
        "a7b5a1c9c3bbef21356defdafa9ef70813355d2d1b425eafadddc61224872415",
    "contract C2 -J 0,1 -N 4 --seed 4":
        "4cba82695c692b885f47f9ba6868ffc0f6276bfb2521d276e9185b5ecd6d2c93",
    "contract B3 -J 0,1,2,3 -N 2 -p 2 --seed 3":
        "1893e55c3dbba6fe2fa3977e5635563a8bd817a5095b98fe0ba26557028a72fa",
    # two certificates of --samples 8, recorded at 299c4dc, before
    # certificate_json laid its text out from cells rendered once
    "contract A4 -J 0,1,2,3,4 -N 3 -p 2 --seed 1 --samples 8":
        "f4a4ac6d506c93dfa04367ef1d692999b9734d6fb1bca8e22026f34779aaf566",
    "contract G2 -J 0,1,2 -N 8 --seed 1 --samples 8":
        "5d5e7cc1b9caba448e065a8f78746e534ba292b75cf8741248856963c57ab189",
    "fusion-table A2 -k 3 --format json":
        "99148141d5a7f7ff22e23d09d383e7c5dead4e03b01b85bce93a19319f80e277",
    "fusion-table G2 -k 2 --format csv":
        "d306ed9146975bba777eada8d2d57b3a128e278a89c491ff58014654d3e015c3",
    "fusion-table B3 -k 1":
        "954a04de7c9cb13188a37d0ce79dfc31d1a02e8e41126d0b35326f05ae33a69b",
    # the A2 level-12 table, the largest pinned, recorded at effee6a
    "fusion-table A2 -k 12 --format json":
        "b0bd3fac152929af4e074a69f7ad3fe3bfcc0d777008371c2fd06c5a88508482",
    # the CSV and text renderings of two large tables (40,727 and 2,045
    # lines), recorded at 1a57d9e, before their rows were spliced from cells
    # rendered once per basis weight
    "fusion-table A2 -k 12 --format csv":
        "925f6d0398f49f001109b34a34ab989729dedaf7ef151233285cf28c77204291",
    "fusion-table A3 -k 4":
        "4b11db797cab38ab2a82314a60bd5fd550517e7c04c0b41375cd3a55dece8cda",
    "fusion B2 -k 2 1,0 0,1 --format json":
        "d7dcfdad9d3d0f66dbfe9ae77d4d3f8970de69ee1d8f78f9d4d4aefa182ae0c0",
    "prequant C2 -k 2 --format json":
        "c0ad425575cb278eb6fb1181b3304975ff6879e1a8c706efa78d6ad6c244faaf",
    # two larger pre-quantization catalogs, recorded at 5cb37e3
    "prequant B3 -k 8 --format json":
        "ba446a59047a768c0be03b240c1d6367f128dd2b4e371a55c97c54b7602e831f",
    "prequant G2 -k 12 --format json":
        "917789d471e2ee9df77ae6c0e3be30aced8c61575c67cd135c11289f3f7ccf8f",
    "lie-info G2 --format json":
        "393251cd2d7798ede379f89f2b9ce7e2b9e60ead879634db957fa6cf6e079f33",
    "lie-info G2":
        "521e4d198ae005758ccfe25a3073c78aa7514f7f57ebbef26e50c16d58877aaa",
    # the E8 root data: lists of 'p/q' strings nested deeper than in any
    # other pinned output, recorded at 3e95964
    "lie-info E8 --format json":
        "ed14719d2dbae0d35a87f5c6622d5b7530380f6dd05d42fe0641dc9b1e459917",
    # the A16 root data with its 153-face nu table, the largest face-data
    # output, recorded at 5c52794
    "lie-info A16 --format json":
        "39ed586cbf30172ebe656f9924aa8f7059cf24355bf894b6d74b8d2575d4bea9",
    # the A20 root data at the certificate rank bound, which pins the root
    # enumeration that reads pairings off weight coordinates, recorded at
    # 337d339
    "lie-info A20 --format json":
        "cbb75bebb4addef8f914b1824f3b10e63b3394037d868ad266db3ee883f8fa36",
    # root data whose symmetrizer has denominator 2 (G2 has 3, E8 1),
    # recorded at 5c52794
    "lie-info F4 --format json":
        "0f1d5d68021915f9d37ad06b798edea93507f8c2ab4dbcf2f5ba41e48188f51f",
    "lie-info C5 --format json":
        "5810e0aa3b0063c15032973763e5440ac4ab69936517e722775793b74ad3bd54",
    "fusion B2 -k 2 1,0 0,1":
        "73d4d5549c8fa7a400638ec7337f308df301aaabb1968cb8253a7ce0a6741883",
    "orbit A2 -J 0,1,2 -N 3":
        "1ed3b890a0b81554ce548398788c115d3a1d9628ac3704a0faec61f5b66ded65",
    # a rank-4 orbit listing of 341 points, recorded at ed5d507, before the
    # orbit search and the signed weight orbit shared one walk
    "orbit F4 -J 0,1,2,3,4 -N 6 --format json":
        "1da57abcc503eaf2bd21fe0703bd9b1266afa94767a8a9b9ce65ed724f0a9755",
    "prequant C2 -k 2":
        "70596348a61c57dcd7268590966596239a2583eb54a01662b848ced8f5f27c9b",
    "prequant C2 -k 2 --format csv":
        "a3de06afcc0cc1218f7a7c916bed42993cd1d91bd4052c6a10b46c1a45caa0cd",
    "fusion-table A2 -k 0 --format csv":
        "e8e2e3d6267071c46c9a89982bb6754747585e98789eb16752f94ccfdba4333e",
    # centres Z2 x Z2 and Z4, which fold the fusion table into orbits of pairs
    "fusion-table D4 -k 2 --format json":
        "0a6863e0a71a9d53ceeebb7ffdf0b4b739f6349775e66cd094abbe3ec8d4f5d8",
    "fusion-table D5 -k 2 --format json":
        "1b7e9d3e9e6a6ae5890eefe329e71d0c1c0982c9830d3ff257d8699f357fd3ec",
    # two more tables folded by those centres, recorded at 307f44e, before
    # the fold
    "fusion-table D4 -k 3 --format json":
        "e200766c7ad1ccb9df650c147c21e6887c7ce52ef8d8c5b4078de9dc9c1489ff",
    "fusion-table A3 -k 4 --format json":
        "2dbdb53553a8da898ab3ef7c9b2833932d3dd353937d8677f1c5c9d75c46200e",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
    if command.startswith("contract "):
        assert verify_certificate(out)["ok"]
