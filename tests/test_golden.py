"""Pinned SHA-256 digests of every output file for a few fixed runs.

Each case runs ``shadowraft run`` on a fixed configuration, then
``verify-order`` on its output, and compares the digest of every file written
with the value pinned here. One more case does the same for ``beacon-stats``. A change that must keep output bytes unchanged
(a refactor, a speed-up) is held to that by this test; a change that alters
outputs on purpose updates the digests and says so in CHANGES.md.
"""

import hashlib

import pytest

from shadowraft.cli import main

CASES = {
    "single-chain": (
        {
            "seed": "11",
            "num_nodes": "5",
            "num_chains": "1",
            "lottery_bits": "3",
            "tx_rate": "0.8",
            "sensitive_fraction": "0.3",
            "run_duration": "900",
            "snapshot_interval": "150",
        },
        {
            "beacon.csv": "9e7ce19aa849ff0da9a078408247539442c8ef1dce189d4f6b0a20dac16f531c",
            "confirmbar.csv": "471e81536b92fde11cd0c07d6e184a0c73a2241e1d4236fef40f3c36db394459",
            "latency.csv": "32af829f5a23fd4008e6926ce52fd4077d8180776908a6e7b992c689ca03f8f1",
            "order.csv": "964939269bb23b55ecc6dd6423fd21bad9e8f886aee4fbc83e5df2cb39883284",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "677865923f4fffedd76421eb48fc73e05f0d798a1305a4ac8e3cccce7a2c2d5a",
            "summary.txt": "bb8e5a7dc1600a96d14ee407f0bc5a219e54699b172c1f19813760569ac30792",
            "throughput.csv": "e813907a0f7b72c526dd5da8b7cb8b23eeac6e50ecc173425f6a1185b1fd6773",
            "verify/order.csv": "23012a242666dd4f5834ac0c314a07ba401cbbc0c644a3711d447febf858a03f",
        },
    ),
    "multi-chain-crash": (
        {
            "seed": "23",
            "num_nodes": "12",
            "num_chains": "4",
            "lottery_bits": "3",
            "tx_rate": "1.0",
            "crash_schedule": "500:4,800:9",
            "run_duration": "1500",
            "snapshot_interval": "200",
        },
        {
            "beacon.csv": "ec96440550fad91041633954c74cb8f9511bfc8724f056e50e099aaddba8eb40",
            "confirmbar.csv": "19c0e7ddf05e0cf2b7ab867f7ca7b1dc67157a4cabea1ef6ba0f7c955bca33c8",
            "latency.csv": "2a1da4c95f026180b48893893c04a204d5789e2d6dbb66df0bdafaeb02258126",
            "order.csv": "635c40b4b502bda241fcaa54760bbf8eae91ea90ae2ae6c4bf19589a91b039d3",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "efb0c898b53e52d98e87dc6910c83f8f6e59ce96b26eef2a7e838c43502754ea",
            "summary.txt": "0d8baf2588e80730bf3fe2c3f5019117214a2a42160a16c7fe1a6bb98972a1f8",
            "throughput.csv": "f08f6dee5dce224124af41cae724188abf06dd84ccb626dff2674d89620bc7a0",
            "verify/order.csv": "3421709d9b11f056e426e611405f866fc868fee5433c3b259daf36f9ed782834",
        },
    ),
    "traced": (
        {
            "seed": "5",
            "num_nodes": "4",
            "num_chains": "2",
            "lottery_bits": "2",
            "election_timeout": "60",
            "heartbeat_interval": "15",
            "run_duration": "600",
            "snapshot_interval": "200",
            "trace_events": "true",
        },
        {
            "beacon.csv": "5fdc33381f920b6dd54ed44d305fe066c5453bf10fe85259eb78ac45e5b3089f",
            "confirmbar.csv": "fe33941baf6d331c10a8c5ee82196d84ed837f31c3548ec9c002d9f1905e70c9",
            "events.csv": "f42b4319a15763a55344843e1298241e75098142869cf1009767fe6da6542fca",
            "latency.csv": "e5e7229fe8ede4825ba0b99c0c6d6bfa514eb601d11dc8b0667419b43ad6dbc5",
            "order.csv": "ce7e337bdb3f1a97ae91e14d9da3a1e241bc81b502ef4c4b328db722376e4ad8",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "0bb8d45ba00d3cab9af0dad7d04d0f19ed641be61dbf59b75006561265b859a7",
            "summary.txt": "87b87a701c41a701b0738ded1deeb39e3326edbae9f54ca079945e3dc488ac40",
            "throughput.csv": "9d129fac2c2807bcd119e2942fc2fa2bbd65a0f1df5c6e169d0e1f7c71bc47b6",
            "verify/order.csv": "5a07064d7563c7855d1280bf49193911da4ea5a450e3661f1242479ba5bc9d70",
        },
    ),
    # the crash path, traced: chain 0's leader (node 6) crashes mid-run, chain
    # 1's leader (node 1) on the tick of a proposal and a snapshot, and node 5
    # one tick after the horizon (t = 565), so it still gets the header that
    # node 7 gossips at t = 568 and takes it at t = 570
    "traced-crash": (
        {
            "seed": "5",
            "num_nodes": "8",
            "num_chains": "2",
            "lottery_bits": "2",
            "election_timeout": "60",
            "heartbeat_interval": "15",
            "crash_schedule": "300:6,410:1,566:5",
            "run_duration": "565",
            "drain_window": "0",
            "snapshot_interval": "200",
            "trace_events": "true",
        },
        {
            "beacon.csv": "4ba0ed824b0cbb8177e003bec17f663642b12a2a733023abcbd10ffd4b4d3d7c",
            "confirmbar.csv": "2ae5fc006b6c7b9c2436692a5cd717cfbbd283086c82e4231802f7c8dba882c1",
            "events.csv": "f1a4d66183a8015a222d1134804b89d16aca4688c51b0582c6ba31818ff27349",
            "latency.csv": "ada51cc7def186883031a7679f26230e71e64f5d1f9db543d8030fa3ba04a380",
            "order.csv": "e503ecd408f84e9f46cc56ae4c1b43b4a2e4f89bad3f74736d3ecbc3e61b0694",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "4bf77cc1e1f8a5d554f7a0c9f9ec0cda71e8fdfa2d85e905003814170e11a7f6",
            "summary.txt": "c99652d47a02723f4c1433510a80615d48110084b7db5fa223b8bf569eef30da",
            "throughput.csv": "2c658e5bb08d2ed2daa8d11d538b5986f117ea0bf08296ff282d71cd2c0fa698",
            "verify/order.csv": "c10f13e62eb1544bac552709a5a3ae72a34a9646b3891cddf5f83375315f798c",
        },
    ),
    # the traced run at a load where ticks take up to four arrivals each, so
    # events.csv pins the seq of every client row within a tick
    "traced-busy": (
        {
            "seed": "5",
            "num_nodes": "4",
            "num_chains": "2",
            "lottery_bits": "2",
            "election_timeout": "60",
            "heartbeat_interval": "15",
            "tx_rate": "3.5",
            "sensitive_fraction": "0.5",
            "run_duration": "600",
            "snapshot_interval": "200",
            "trace_events": "true",
        },
        {
            "beacon.csv": "5fdc33381f920b6dd54ed44d305fe066c5453bf10fe85259eb78ac45e5b3089f",
            "confirmbar.csv": "fe33941baf6d331c10a8c5ee82196d84ed837f31c3548ec9c002d9f1905e70c9",
            "events.csv": "f1336d23601db7cf8f33797976a8811e9a711192c988032cb641f017be780b05",
            "latency.csv": "3e52a84c33db9b75d54a1835ba795038c28c5cd640d7009cd9e58f9afa89aaa8",
            "order.csv": "ab7ab43e1fc27b78f23d5eb111d99d5009b424d39a1796dc802ab2026e3f9062",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "a74229feac00eb0e69c6971fd74f8b2222b44b62a2d5e0985efb3b6a6f4b1cf5",
            "summary.txt": "41a2d817b308d675ef7eadce9663344322778521afa304111ed76ac9887b839a",
            "throughput.csv": "cc95aec1135d201a7a196900b26dfe99c26f020e563030d6c62f0d830dd13183",
            "verify/order.csv": "6c989a3e4e4bbfaa7463d7c1de52ea2e921d9f30057095daa965ac071ffe83f5",
        },
    ),
    # gossip delays of 1..20 ticks against a 5-tick block interval: headers of
    # one chain reach a node out of order (102 of 5,130 arrive above the node's
    # tip and wait in its buffer) and the 16 ConfirmBars rise 628 times
    "gossip-reorder": (
        {
            "seed": "7",
            "num_nodes": "16",
            "num_chains": "8",
            "lottery_bits": "4",
            "raft_delay_max": "20",
            "block_interval": "5",
            "tx_rate": "1.0",
            "run_duration": "1200",
            "snapshot_interval": "200",
        },
        {
            "beacon.csv": "565f4a9b9daf36df6d8386520e49127c57796e0adb718d8ba56a6c8991a40fd7",
            "confirmbar.csv": "2f902042b6d8faddbf4070fa65ff15400746ed726990d0de256278f52f8b788e",
            "latency.csv": "a03b362478c60f647b04165ae94f3acd8eb51dbe4a9484d30740d2b84f46d6ee",
            "order.csv": "c12d8291033b2be2694d0f63cd7a9a5dbd0de0cf1f4a0c1c3bde2ecc932614be",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "4e85a8ed5acba4d1220dd0ce03044552172427edcf9e3924d48d3c72080e75e7",
            "summary.txt": "2164f8b8b8e3df443babf2b72927ddfc223c6e16bf9a489e3405696723b8d745",
            "throughput.csv": "e043dc4c95459c9de6d909e8240ad38f8f2c4374d6abf89093dadb62c9df98c9",
            "verify/order.csv": "d5f02489e030670af282493ce0d75360da487a08343750f0f63501840b378aac",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digests_are_pinned(name, tmp_path, capsys):
    keys, expected = CASES[name]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    run, verify = tmp_path / "run", tmp_path / "verify"
    assert main(["run", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["verify-order", str(run), "--out", str(verify)]) == 0
    capsys.readouterr()
    digests = {
        prefix + path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for prefix, directory in (("", run), ("verify/", verify))
        for path in sorted(directory.iterdir())
    }
    assert digests == expected


BEACON_STATS = {
    "beacon.csv": "c387deb930396c7fee891f959b0f0e003c3043a6b2fd2ab9c293313008da93e0",
    "beacon_summary.txt": "7e14e43aad6ecb6e85ab60e079fc28c33e746a37864114d888a4b20684ae54f2",
}


def test_beacon_stats_digests_are_pinned(tmp_path, capsys):
    argv = ["--nodes", "16", "--bits", "3", "--epochs", "300", "--seed", "7"]
    assert main(["beacon-stats", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == BEACON_STATS


SCALE = {
    "scaling.csv": "ac3b2da8bc0f8df2d11f12afef7bc57a06a81653d3b2b039087adf16c10a8e8c",
    "scaling_summary.txt": "746cb7a6259446b60dd4f5ed5521025455e7e025876671638e1197d4587890b2",
}


def test_scale_digests_are_pinned(tmp_path, capsys):
    assert main(["scale", "--chains", "1,2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == SCALE
