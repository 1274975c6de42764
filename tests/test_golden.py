"""Golden CLI outputs: SHA-256 digests of the stdout of fixed invocations.

The digests pin the exact bytes that the orbit, resolution and contraction
commands print (JSON, certificates and text verdicts), and those of the
fusion-side commands: fusion tables, single fusion products, the
pre-quantization catalog and the root data, in every output format each
command accepts (text, JSON and CSV).  A change that alters
any of them on purpose must say so and why, and record the new digests.
Every output, CSV included, ends in exactly one newline.
"""

import hashlib

import pytest

from alcove.cli import main

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
    "fusion-table A2 -k 3 --format json":
        "99148141d5a7f7ff22e23d09d383e7c5dead4e03b01b85bce93a19319f80e277",
    "fusion-table G2 -k 2 --format csv":
        "d306ed9146975bba777eada8d2d57b3a128e278a89c491ff58014654d3e015c3",
    "fusion-table B3 -k 1":
        "954a04de7c9cb13188a37d0ce79dfc31d1a02e8e41126d0b35326f05ae33a69b",
    "fusion B2 -k 2 1,0 0,1 --format json":
        "d7dcfdad9d3d0f66dbfe9ae77d4d3f8970de69ee1d8f78f9d4d4aefa182ae0c0",
    "prequant C2 -k 2 --format json":
        "c0ad425575cb278eb6fb1181b3304975ff6879e1a8c706efa78d6ad6c244faaf",
    "lie-info G2 --format json":
        "393251cd2d7798ede379f89f2b9ce7e2b9e60ead879634db957fa6cf6e079f33",
    "lie-info G2":
        "521e4d198ae005758ccfe25a3073c78aa7514f7f57ebbef26e50c16d58877aaa",
    # root data whose symmetrizer has denominator 2 (G2 has 3, E8 in CI 1),
    # recorded at 5c52794
    "lie-info F4 --format json":
        "0f1d5d68021915f9d37ad06b798edea93507f8c2ab4dbcf2f5ba41e48188f51f",
    "lie-info C5 --format json":
        "5810e0aa3b0063c15032973763e5440ac4ab69936517e722775793b74ad3bd54",
    "fusion B2 -k 2 1,0 0,1":
        "73d4d5549c8fa7a400638ec7337f308df301aaabb1968cb8253a7ce0a6741883",
    "orbit A2 -J 0,1,2 -N 3":
        "1ed3b890a0b81554ce548398788c115d3a1d9628ac3704a0faec61f5b66ded65",
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
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
