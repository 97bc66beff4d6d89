"""Column-generation results pinned as literals, on both engines.

Each pin holds ``float.hex()`` of the throughput, the solver
iterations, the pricing rounds, the final column count, the dropped
(disconnected) pairs and a digest of the full per-arc utilization.  The
pool sweep, the pricing passes and the master assembly all feed these
numbers, so a change to the order of any pooled column or to the bytes
of any master shows up as a changed literal rather than a
tolerance-sized drift.

Grid: jellyfish 16/20/32 (the ``fluid_curve`` shapes at 20 and 32) at
three seeds and three server fractions, a k=4 fat-tree, and a jellyfish
degraded by link failures under a permutation TM, whose disconnected
pairs are dropped before the solve.
"""

import hashlib

import pytest

from repro import registry
from repro.perf import PathCache
from repro.solvers import have_highs_core
from repro.throughput.arcs import ArcTable
from repro.throughput.colgen import colgen_solve
from repro.throughput.lp import _component_labels, _drop_by_labels
from repro.traffic import longest_matching_tm, permutation_tm

FRACTIONS = (0.3, 0.6, 1.0)
SEEDS = (1, 2, 3)
JELLYFISH = {
    "jellyfish16": "jellyfish:switches=16,degree=4,servers=2,seed={seed}",
    "jellyfish20": "jellyfish:switches=20,degree=4,servers=3,seed={seed}",
    "jellyfish32": "jellyfish:switches=32,degree=5,servers=3,seed={seed}",
}
DEGRADED = "jellyfish:switches=16,degree=3,servers=2,seed=1"
DEGRADED_FAILURE = "links:fraction=0.4,seed=1"

#: engine -> ``use_core`` (``highs-colgen``'s default and ``mode=fallback``)
ENGINES = {"core": True, "fallback": False}


def _instance(name, seed, fraction):
    if name == "fattree4":
        topo = registry.topology("fattree:k=4")
        return topo, longest_matching_tm(topo, fraction, seed=seed)
    if name == "degraded":
        topo = registry.failure(DEGRADED_FAILURE).apply(
            registry.topology(DEGRADED)
        )
        tm = permutation_tm(
            topo.switches, servers_per_tor=2, fraction=fraction, seed=seed
        )
        return topo, tm
    topo = registry.topology(JELLYFISH[name].format(seed=seed))
    return topo, longest_matching_tm(topo, fraction, seed=seed)


def _digest(utilization):
    blob = repr(sorted(utilization.items())).encode()
    return hashlib.sha256(blob).hexdigest()


def fingerprint(name, seed, fraction, use_core):
    """``(throughput hex, iterations, rounds, columns, dropped, digest)``."""
    topo, tm = _instance(name, seed, fraction)
    tm, dropped = _drop_by_labels(tm, _component_labels(topo.graph))
    result, stats = colgen_solve(
        ArcTable.from_topology(topo), PathCache(topo.graph), tm,
        dropped=dropped, use_core=use_core,
    )
    return (
        result.throughput.hex(), result.iterations, stats.rounds,
        stats.columns, result.disconnected_pairs,
        _digest(result.link_utilization),
    )


CASES = [
    (name, seed, fraction)
    for name in JELLYFISH for seed in SEEDS for fraction in FRACTIONS
] + [
    ("fattree4", 1, fraction) for fraction in FRACTIONS
] + [
    ("degraded", 1, fraction) for fraction in FRACTIONS
]

#: (engine, name, seed, fraction) -> fingerprint, captured from the
#: per-demand numpy decode this module's pool sweep replaced.
PINS = {
    ('core', 'jellyfish16', 1, 0.3): (
        '0x1.8000000000000p+0', 51, 3, 80, 0,
        '186994ba9aea2dc4b20e169bd80c149b962e69c287b5925da6e576895a672fbd',
    ),
    ('core', 'jellyfish16', 1, 0.6): (
        '0x1.999999999999ap-1', 16, 2, 146, 0,
        '3d4f303a2ef9a8951e63fcab78e9621af6ec8d0310997ed1de256c2ca51166a2',
    ),
    ('core', 'jellyfish16', 1, 1.0): (
        '0x1.0000000000000p-1', 17, 2, 271, 0,
        '14a5545eba3713ae6d3d855c1e21da9baf153090e16a5c490488317bd0bbf90e',
    ),
    ('core', 'jellyfish16', 2, 0.3): (
        '0x1.8000000000000p+0', 14, 2, 56, 0,
        'cd20dc8e2a2176479ff6baadda42056d4947809757cb0e77c70860ed62e0ff56',
    ),
    ('core', 'jellyfish16', 2, 0.6): (
        '0x1.8000000000000p-1', 16, 2, 173, 0,
        'f6f1caa78800fe32205bb09ed1b7e9769ed33ff67311224e559136605183d8fd',
    ),
    ('core', 'jellyfish16', 2, 1.0): (
        '0x1.2492492492492p-1', 14, 2, 202, 0,
        '14d3ba01da332a82cad8f5359fa8134f63a80652df7f01d2f0f355ec7b065933',
    ),
    ('core', 'jellyfish16', 3, 0.3): (
        '0x1.8000000000000p+0', 13, 2, 84, 0,
        'd6052d1ca4ad849ed43270ef5ec9706d87da5575b0ed1efd786becc8d1ed21a7',
    ),
    ('core', 'jellyfish16', 3, 0.6): (
        '0x1.3333333333333p-1', 14, 2, 247, 0,
        '7d6970218192ecab61e9900073c836617c088afe09dddae692ff4fe77fbf919b',
    ),
    ('core', 'jellyfish16', 3, 1.0): (
        '0x1.8000000000000p-2', 12, 2, 474, 0,
        'dcdbc4a591b8bc5937a55b3e57fb23e8485cce71c7d50a75e3276a8f408b95ad',
    ),
    ('core', 'jellyfish20', 1, 0.3): (
        '0x1.c71c71c71c722p-1', 14, 2, 116, 0,
        '465508fb531162597e240acf7dfa6416b55bdbac78e71192c59d1d300f93597d',
    ),
    ('core', 'jellyfish20', 1, 0.6): (
        '0x1.c71c71c71c71cp-2', 15, 2, 303, 0,
        'e53967e8127b1cc68dbe2dea1bee32c2c07bb051540dfbfcbe457a047029728b',
    ),
    ('core', 'jellyfish20', 1, 1.0): (
        '0x1.5555555555554p-2', 17, 2, 335, 0,
        '6ac25e4b7b6e05642887a2464d46ca6aabca57cbbac588804d888fd374c28522',
    ),
    ('core', 'jellyfish20', 2, 0.3): (
        '0x1.c71c71c71c71cp-1', 14, 2, 122, 0,
        '652944671e6357f512712b054be8b665f1dbb0e01c0f6eb64c3d8c938f6a5420',
    ),
    ('core', 'jellyfish20', 2, 0.6): (
        '0x1.0000000000000p-1', 15, 2, 217, 0,
        '394c2162303ac3a920e718dc592f4718def8989a32a9c371265c3bc4de24a285',
    ),
    ('core', 'jellyfish20', 2, 1.0): (
        '0x1.5555555555555p-2', 17, 2, 320, 0,
        'e29b1f726db2cef6a0148cd0c4b92b685989a39da33ef77113c09c79e38c56b9',
    ),
    ('core', 'jellyfish20', 3, 0.3): (
        '0x1.5555555555555p-1', 14, 2, 142, 0,
        '0ce6be671fe4e2242fde9496541d177cd81d24f69d23f38bba61b2e4c654399b',
    ),
    ('core', 'jellyfish20', 3, 0.6): (
        '0x1.8e38e38e38e3bp-2', 15, 2, 322, 0,
        '4b713fa34fdcf38a2b592d6ea6f7569be3912cbc4f8755ab9e59b479a6558aaa',
    ),
    ('core', 'jellyfish20', 3, 1.0): (
        '0x1.ddddddddddddep-3', 14, 2, 648, 0,
        '868bdcb71432fb0ba5186f762bd8225bd62f18a91373316b1969109e08d616ac',
    ),
    ('core', 'jellyfish32', 1, 0.3): (
        '0x1.0000000000000p+0', 16, 2, 262, 0,
        '0b0785ed5366075aa526fd0a737449733f4b87204c321b5a269093edb501df04',
    ),
    ('core', 'jellyfish32', 1, 0.6): (
        '0x1.684bda12f684cp-1', 15, 2, 381, 0,
        'ce921670e7cdb7b8e9d550263315d7b8f5eea90d2aa1cbb4fce74b6a780e4c5c',
    ),
    ('core', 'jellyfish32', 1, 1.0): (
        '0x1.aaaaaaaaaaaacp-2', 16, 2, 691, 0,
        'f51402e98a23bc4a3a383279a42da40f4cf131a059715178a3fb78707ec6f6fd',
    ),
    ('core', 'jellyfish32', 2, 0.3): (
        '0x1.d555555555555p-1', 15, 2, 266, 0,
        '4981d652eb257d7f6c0fd83dcfb25401814cef94ecae373bf6cbb26d5a302b85',
    ),
    ('core', 'jellyfish32', 2, 0.6): (
        '0x1.5555555555555p-1', 16, 2, 372, 0,
        '80d2620ccbbbdf7ffe510d8ea07bfb937f5ff94e8ab4262f01adb5edb2337a6f',
    ),
    ('core', 'jellyfish32', 2, 1.0): (
        '0x1.b6db6db6db6dep-2', 18, 2, 672, 0,
        'ecb1133617f5d6b3a98be2e5d3bd124b8b8f7bd6c2399fb4bc05935867cb1929',
    ),
    ('core', 'jellyfish32', 3, 0.3): (
        '0x1.1111111111111p+0', 15, 2, 262, 0,
        '0c22f1f470b86f9dfcdce4e0d4969da7c91da4bec606b66074fc8d6153e27aaf',
    ),
    ('core', 'jellyfish32', 3, 0.6): (
        '0x1.684bda12f684cp-1', 17, 2, 379, 0,
        'e0bc48daf86cb5a08bab1253a892bde7f5b6d230418f33274ac956280c49a9ac',
    ),
    ('core', 'jellyfish32', 3, 1.0): (
        '0x1.c71c71c71c71bp-2', 17, 2, 648, 0,
        '5e59b3a58b993482d8f10cc4df46c5166659c456fe488267728cbb9ddd7c20b0',
    ),
    ('core', 'fattree4', 1, 0.3): (
        '0x1.0000000000000p+0', 0, 2, 8, 0,
        '8c2e4875d686be39047f72f0db68a52dceca802b2acd51a52ee2f15d7a64ca4c',
    ),
    ('core', 'fattree4', 1, 0.6): (
        '0x1.0000000000000p+0', 5, 2, 16, 0,
        '01eb87e1d659171873b0d9fc6dabaff84b7b42ef2536c17c9a8d377705cc6406',
    ),
    ('core', 'fattree4', 1, 1.0): (
        '0x1.0000000000000p+0', 5, 2, 32, 0,
        '35e08a7cf12c2b907311c5d0b479f5858ee58c7bdcfe5cef795468b9dce9a915',
    ),
    ('core', 'degraded', 1, 0.3): (
        '0x1.0000000000000p-1', 6, 2, 8, 0,
        'd4042d079cf8c10509d53ee3e694ab3dfd0223a52978a0c9f72f2c7f07927899',
    ),
    ('core', 'degraded', 1, 0.6): (
        '0x1.5555555555555p-3', 12, 2, 10, 4,
        '56314ae2dafcd549d55bd7a907f5e8c1214b09d8b51d5fb22d76b3a06ad00c8e',
    ),
    ('core', 'degraded', 1, 1.0): (
        '0x1.5555555555555p-3', 13, 2, 16, 6,
        'd1d19774accdceda022297d307129074dfeed942ed9f0a42f61f29ff55fd1526',
    ),
    ('fallback', 'jellyfish16', 1, 0.3): (
        '0x1.8000000000000p+0', 53, 1, 78, 0,
        'a277852ba9b2bd1dd2bff895f35cf29ad8f19fc07a46c0c56bea137636e232c0',
    ),
    ('fallback', 'jellyfish16', 1, 0.6): (
        '0x1.999999999999ap-1', 134, 1, 146, 0,
        '1c543e7face155dd1d4291ea01c9ce8640ef1dcc86bee3838da9823012608920',
    ),
    ('fallback', 'jellyfish16', 1, 1.0): (
        '0x1.ffffffffffff9p-2', 127, 1, 271, 0,
        '71ee6cacb8156e928b4490f5670f655380e3592e2e93f1cb8d2451b9ff1d541d',
    ),
    ('fallback', 'jellyfish16', 2, 0.3): (
        '0x1.8000000000000p+0', 33, 1, 56, 0,
        'a72bfe4947ef15605ceaa04f5fff32efd2d01848cfa447f1fba8331067ad7160',
    ),
    ('fallback', 'jellyfish16', 2, 0.6): (
        '0x1.8000000000000p-1', 119, 1, 173, 0,
        '740fb7f3968172a8e20fbaef2c01fcff00ef666a2accf5fed447932676560694',
    ),
    ('fallback', 'jellyfish16', 2, 1.0): (
        '0x1.249249249248dp-1', 174, 1, 202, 0,
        '4012ee3b230b14ba92c500a36dd17214a9b457d8de39253173b504011869af22',
    ),
    ('fallback', 'jellyfish16', 3, 0.3): (
        '0x1.8000000000000p+0', 39, 1, 84, 0,
        '017d55111e937d26874d9d8152e97bfc3b620f5196cfcb85090f55b95744932b',
    ),
    ('fallback', 'jellyfish16', 3, 0.6): (
        '0x1.3333333333332p-1', 134, 1, 247, 0,
        'cd992d68ff1221125632237c6ed5409d486c978da146805a1ac521707fca3f73',
    ),
    ('fallback', 'jellyfish16', 3, 1.0): (
        '0x1.8000000000005p-2', 114, 1, 474, 0,
        'b1b7950f2b1814dea928d24f4ef8b50c34ba507f0f34f23bead57885a16d38ff',
    ),
    ('fallback', 'jellyfish20', 1, 0.3): (
        '0x1.c71c71c71c71cp-1', 273, 3, 127, 0,
        'a8bcbc7d1c4d1751d3cf8b6a45fc0de030a4659860aeab823152d3cb41da8109',
    ),
    ('fallback', 'jellyfish20', 1, 0.6): (
        '0x1.c71c71c71c71cp-2', 133, 1, 303, 0,
        'f9fece0c7691144af1737451dd733f5ed38a173c1fcfda5da5fd4577a8b5f381',
    ),
    ('fallback', 'jellyfish20', 1, 1.0): (
        '0x1.5555555555555p-2', 145, 1, 335, 0,
        '4a104c8592f77e0f974ac6bd746cc05bbbc279d4a7d8edf2807537a23de70f54',
    ),
    ('fallback', 'jellyfish20', 2, 0.3): (
        '0x1.c71c71c71c71cp-1', 120, 1, 122, 0,
        '5ed182d6138fd60e5391481aefd4d7e8f5271aa3aa00205b6b3f4f648c1b19f3',
    ),
    ('fallback', 'jellyfish20', 2, 0.6): (
        '0x1.0000000000000p-1', 163, 1, 217, 0,
        '2178f2e99ded5d399b47b8686db862388e1aaa41f48ff08ce4541eb0b8f376af',
    ),
    ('fallback', 'jellyfish20', 2, 1.0): (
        '0x1.5555555555555p-2', 166, 1, 320, 0,
        '6e2cc66635c5f3384e6dee814be98ab1c19225daab099cb54173d5c6db3a0e90',
    ),
    ('fallback', 'jellyfish20', 3, 0.3): (
        '0x1.5555555555555p-1', 107, 1, 142, 0,
        'c1b1542791083d077dbfb23e02a4575dd93c6a12944006d45de15ed9dbbe1614',
    ),
    ('fallback', 'jellyfish20', 3, 0.6): (
        '0x1.8e38e38e38e3dp-2', 173, 1, 322, 0,
        'ac8a2599be3a9a6e88ff620e75680899c32d94656ebe56b021bb2cdc8920ff87',
    ),
    ('fallback', 'jellyfish20', 3, 1.0): (
        '0x1.ddddddddddddfp-3', 152, 1, 648, 0,
        '68e0065210ddf8f736e5ab4fa43b2056b6c5bb4226f7dca518be12f619e560c4',
    ),
    ('fallback', 'jellyfish32', 1, 0.3): (
        '0x1.0000000000000p+0', 294, 1, 262, 0,
        'c9705a63c3a92838c2fd852378f1acfcbf765c3954b194d8c8ce9dfaf23889ee',
    ),
    ('fallback', 'jellyfish32', 1, 0.6): (
        '0x1.684bda12f6851p-1', 420, 1, 381, 0,
        'ebab8690b05ca1d46ea0269cb3fcc896b44f8e58b1f802a6859b01013bf528a0',
    ),
    ('fallback', 'jellyfish32', 1, 1.0): (
        '0x1.aaaaaaaaaaaabp-2', 990, 1, 691, 0,
        '08b492f8246c86c9a04450174ec0b4c7d70991b1bf5e1cd9f4c1e937faab1a92',
    ),
    ('fallback', 'jellyfish32', 2, 0.3): (
        '0x1.d555555555555p-1', 229, 1, 266, 0,
        'b4d2057f0d48335bf9dd01c5c48234660197d41fd5dcba3416e581f7dafe1ba4',
    ),
    ('fallback', 'jellyfish32', 2, 0.6): (
        '0x1.5555555555557p-1', 322, 1, 372, 0,
        'a304c1d79f24c95d9f096459eac0515d1c32651c4eb94181be4a5f51429e4035',
    ),
    ('fallback', 'jellyfish32', 2, 1.0): (
        '0x1.b6db6db6db6e1p-2', 1085, 1, 672, 0,
        '85c7b97f63c9efddd867f5aad79dfd56346eee1af7910ce2fab099dcc76009d0',
    ),
    ('fallback', 'jellyfish32', 3, 0.3): (
        '0x1.1111111111112p+0', 442, 1, 262, 0,
        '5f8d6bb62a7af3a8626fdaf63873a3bff9209167bd1351779713fc8f3cafe3e6',
    ),
    ('fallback', 'jellyfish32', 3, 0.6): (
        '0x1.684bda12f684ap-1', 590, 1, 379, 0,
        '3965a4d7e4c020b39d85240cc685b038313ac331a80d25ff95814f38bcf153c8',
    ),
    ('fallback', 'jellyfish32', 3, 1.0): (
        '0x1.c71c71c71c71dp-2', 713, 1, 648, 0,
        '131be272d6e56a444aedee59afb4465091657001e881b0dc977fb980516b1cba',
    ),
    ('fallback', 'fattree4', 1, 0.3): (
        '0x1.0000000000000p+0', 0, 1, 8, 0,
        '8c2e4875d686be39047f72f0db68a52dceca802b2acd51a52ee2f15d7a64ca4c',
    ),
    ('fallback', 'fattree4', 1, 0.6): (
        '0x1.0000000000000p+0', 15, 1, 16, 0,
        'c9a6a78588bd6099cde0b88440186b31db3a83a7a73bd5cac3717dd36580553e',
    ),
    ('fallback', 'fattree4', 1, 1.0): (
        '0x1.0000000000000p+0', 22, 1, 32, 0,
        '35e08a7cf12c2b907311c5d0b479f5858ee58c7bdcfe5cef795468b9dce9a915',
    ),
    ('fallback', 'degraded', 1, 0.3): (
        '0x1.0000000000000p-1', 6, 1, 8, 0,
        'd4042d079cf8c10509d53ee3e694ab3dfd0223a52978a0c9f72f2c7f07927899',
    ),
    ('fallback', 'degraded', 1, 0.6): (
        '0x1.5555555555555p-3', 5, 1, 10, 4,
        '5bab2ca5b5fafc820f80c113ad9075f1f0923032b5747aa3ba7c5416461e2b1f',
    ),
    ('fallback', 'degraded', 1, 1.0): (
        '0x1.5555555555555p-3', 8, 1, 16, 6,
        '333737e0bca728b9079f10e38f020b6411178ba23364684ad0cda532d35ad15b',
    ),
}


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize(
    "name,seed,fraction", CASES, ids=[f"{n}-s{s}-f{f}" for n, s, f in CASES]
)
def test_colgen_pins(engine, name, seed, fraction):
    if ENGINES[engine] and not have_highs_core():
        pytest.skip("needs scipy's bundled HiGHS core")
    got = fingerprint(name, seed, fraction, ENGINES[engine])
    assert got == PINS[(engine, name, seed, fraction)]


def test_degraded_pins_drop_pairs():
    """The degraded grid really exercises the disconnected path."""
    for engine in ENGINES:
        assert [PINS[(engine, "degraded", 1, f)][4] for f in FRACTIONS] == [
            0, 4, 6,
        ]
