"""Packet-simulation outputs pinned from before the closed-form link.

The values were captured with a link that spent two events per hop (one
when serialization ended, one for the delivery).  In these runs no
serialization completes at the very instant another packet reaches the
same link's queue with a different outcome, so the one-event link's tie
rule (see :mod:`repro.sim.link`) must reproduce them exactly: every flow
completion time, and the network-wide drops, ECN marks, transmitted
bytes and deepest queue.

The runs are the benchmark's ``packet_fct`` configuration (fat-tree k=4
with ECMP and Xpander with HYB, seeds 1 and 7) plus the Xpander under
VLB, adaptive ECMP and HYB with unconstrained server links (§6.6).

The second group was captured before switches forwarded from compiled
per-target link tables: the Xpander under congestion-aware HYB, KSP
source routing and VLB with constrained server links; MPTCP over
fat-tree ECMP and over Xpander HYB; and HYB on an Xpander that lost a
fifth of its cables.
"""

import pytest

from . import packet_fct

_FATTREE_K4_ECMP = (
    "5448fac4b4aae2923142ee800dd3330749fcf688f08c72200df698741c2aa304",
    0, 2045, 37249696, 106400,
)

#: name -> (run arguments, (fct_sha256, drops, marks, transmitted
#: bytes, max queue bytes)).
PINS = {
    "fattree-ecmp-seed1": (
        dict(system="fattree", routing="ecmp", seed=1), _FATTREE_K4_ECMP,
    ),
    "xpander-hyb-seed1": (
        dict(system="xpander", routing="hyb", seed=1),
        ("b4e602d559ad95bc846cabb2373f680bcc24ed5320cca4c7550324f25cedc906",
         0, 1559, 58490126, 114208),
    ),
    # The fat-tree's permutation takes racks in order, so its run does
    # not depend on the seed.
    "fattree-ecmp-seed7": (
        dict(system="fattree", routing="ecmp", seed=7), _FATTREE_K4_ECMP,
    ),
    "xpander-hyb-seed7": (
        dict(system="xpander", routing="hyb", seed=7),
        ("651f983cfa28ad255f277dab35d681375ddd8ba7350a2e8e11693625df723a36",
         0, 1614, 61723314, 80108),
    ),
    "xpander-vlb-unconstrained": (
        dict(system="xpander", routing="vlb", seed=1, server_link_rate_bps=None),
        ("1a7a3cf07b21b52144fb3ebf4efce236044b186480fbd0c0689ab24ba26ea7a7",
         0, 1465, 65066693, 79040),
    ),
    "xpander-aecmp-unconstrained": (
        dict(system="xpander", routing="aecmp", seed=1, server_link_rate_bps=None),
        ("3fb5f5749192dbab927aeb2863737387c279dcc53fb7336a774069556f07d8de",
         0, 1922, 22556058, 107680),
    ),
    "xpander-hyb-unconstrained": (
        dict(system="xpander", routing="hyb", seed=1, server_link_rate_bps=None),
        ("cd8e8c91d341e4385b7b35a8a27f07163b0a671207fb931e06d2fc2498e402ae",
         0, 1447, 48340815, 98330),
    ),
    "xpander-chyb-seed1": (
        dict(system="xpander", routing="chyb", seed=1),
        ("2725eeef549ce12b0c01581731978d82fa60e6218973c8a00a907adf3154e98c",
         0, 1903, 55311806, 101792),
    ),
    "xpander-ksp-seed1": (
        dict(system="xpander", routing="ksp", seed=1),
        ("a21f404a58889356c6e0b4c2c58c21295f983b3edd980b62b2f6180afe05e3bb",
         0, 2248, 56851404, 122715),
    ),
    "xpander-vlb-seed1": (
        dict(system="xpander", routing="vlb", seed=1),
        ("d6a108dfe8b3a3348edb72b942db145ecd16141d62f823987aa3feb201554c19",
         0, 1595, 59821586, 117575),
    ),
    "fattree-ecmp-mptcp-seed1": (
        dict(system="fattree", routing="ecmp", seed=1, transport="mptcp"),
        ("cfc97ee45fb70a5524fd274a9a1fe30968f80c0bb868cd8dd0b709a4b7c1b7ce",
         0, 2876, 58547411, 109562),
    ),
    "xpander-hyb-mptcp-seed1": (
        dict(system="xpander", routing="hyb", seed=1, transport="mptcp"),
        ("bf210b872d5b801cc5f4c8b06ac255286747cd1e9e96882e19f3427df0a4e38b",
         0, 3750, 47396447, 124036),
    ),
    "xpander-hyb-degraded": (
        dict(system="xpander", routing="hyb", seed=1,
             failures="links:fraction=0.2,seed=1"),
        ("2d3934fe4e3f7b5932e02ac2e8e31873962baf02fde5fdece876aa69d08466e7",
         0, 1842, 60415023, 117515),
    ),
}


@pytest.mark.parametrize("name", list(PINS))
def test_packet_run_matches_pin(name):
    kwargs, pinned = PINS[name]
    got = packet_fct.outcome(packet_fct.run(**kwargs))
    assert (
        got["fct_sha256"], got["drops"], got["marks"],
        got["transmitted_bytes"], got["max_queue_bytes"],
    ) == pinned
