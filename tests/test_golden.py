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
            "beacon.csv": "ad25863edce2c4308f925f7656f8770d4764e4bc2749e2f4ef9367fef88ba6c9",
            "confirmbar.csv": "eb34b13d78169868d97e9d867bcb0cdf7fa1e0d2aa4537dc6bfb28474c9ee6df",
            "latency.csv": "7a7ba5a2f95173807390fa45aeb091d32d5d8e0141af77afef1d9e40ed001b85",
            "order.csv": "f1a696e2ae4ce723f35ed33d414da30254cab288dc834d0d7d2ae6cf63e82ebe",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "9e93cf66a36c205f19b66985cb4f33009d7edefb8a843f1090fd697d081c7d08",
            "summary.txt": "85ddcd8f1aceb42468870b273c34bc4359549ead2aa1a9cc32ccb06fedb8a0b2",
            "throughput.csv": "d353cd5a3565d9444c9a176db1e53175202a8a38de40bf8d24325fd9d9624cda",
            "verify/order.csv": "e9114b3f7f8d87d7a5aa5c5c46aa509f112edeee04c0fc6f80e406a584b2fdae",
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
            "beacon.csv": "b20c0b4a262bb8d5437707224af1999a424285a6bfd4358479802b3f3f41e0d5",
            "confirmbar.csv": "70e761018d434fad741a38d4ae96d4ce2c1492479d3c2fcce40d606372b59d6f",
            "latency.csv": "ed7ba2be2947e66a383272d411ebe3f5fbae9bed45ae00959639365035d3dfa0",
            "order.csv": "97827e0d112426b7c0bb4dc5682cb08beb39607819515df652e5e63c2ba9581f",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "08504676851e62fc3bd1fb2e7eff87cd27cd183d8b22447e9b7b4fc4b24fc4de",
            "summary.txt": "41bce8f9d33e7f59a4d25aec0d466e90c39528e715531bf48631d0b479d8c7d1",
            "throughput.csv": "407da8201ba1b2e076acd7cb400f611fd456a5cd0c23eb1c8cbbeb8a0540a334",
            "verify/order.csv": "db87456197a03f1ad49fd148e21eaf2866d07b45d7da7ab77153a21a8b2efddb",
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
            "beacon.csv": "e9ee7f3ac0e20738bd29b0a45ed487958ba241c113edfca81ff2b0438ad5f276",
            "confirmbar.csv": "db7f669cdfd807e71bbd41a09c8d757c1b6c078247b2d1dbd7729dc629cfbc95",
            "events.csv": "86eeb374b9a88e77336b3a975a7cc88288a170e1834b38687384dd14fcd3d94d",
            "latency.csv": "0b085af53b8f210f8a3696913cb6185cbec1dff22c25384a1ab6125fbc39ed10",
            "order.csv": "8ca66f828c4df7cb90aa6c3b456a2dbb2c8d8dabd8cb2e92016ca6168d86d99e",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "2596b394bbce4687ba6cab6f7732b5319e6247ece76f98183d5583a4089e19d1",
            "summary.txt": "59b74aa92c325507f2258014865aed9e36edd792de64b05b5aba59b95e0f1bec",
            "throughput.csv": "c05ce8d628f8fa6852298a2f2eb9bb6ca69b877779b2d65c84fae9661aef345d",
            "verify/order.csv": "418ee1d11bf3fd8564deafef64c333454dd6ae116af9e5fc27ed6b4e98a4b35b",
        },
    ),
    # the crash path, traced: chain 0's leader (node 5) crashes mid-run, chain
    # 1's leader (node 2) on the tick of a proposal and a snapshot, and node 6
    # one tick after the horizon (t = 565), so it still gets the header that
    # node 7 gossips at t = 567 and takes it at t = 570
    "traced-crash": (
        {
            "seed": "5",
            "num_nodes": "8",
            "num_chains": "2",
            "lottery_bits": "2",
            "election_timeout": "60",
            "heartbeat_interval": "15",
            "crash_schedule": "300:5,410:2,566:6",
            "run_duration": "565",
            "drain_window": "0",
            "snapshot_interval": "200",
            "trace_events": "true",
        },
        {
            "beacon.csv": "daf77b3177a6e244b4af04d8ffee1b6348fb653b771776b934f6f4ecd473e930",
            "confirmbar.csv": "abb9d6644bd46b51bfae5f8000a832e0a15942ded68d16eb65377fbac6aa17a7",
            "events.csv": "ecdb56656970dca9cb66c67a37f7483a12888e4204e505207238247a7970992a",
            "latency.csv": "2bf46560b97d21ec819002714e391256fb277153b064d1db6d4acac3a914b277",
            "order.csv": "87e35f0f6d579ca5a0ec5aa477a9e6bd0e7b8b0993eec472702777b8b27da2b0",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "19a96a48138735ca8c3cfe9692f08e88921afbd413a122fda6022ed938bda417",
            "summary.txt": "f38f9f544444803490a5172fcb627d6ccb5bd85b96c1c49ab4435a4d77586f97",
            "throughput.csv": "d6dd97f83586927a41339a3a7d098d4fab3ed57e76ee56f0baff9920d87ce4db",
            "verify/order.csv": "f21a4ef33c2a8d824879aa88b2a2591364c720026283bd8b0d2d731d33d96a81",
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
            "beacon.csv": "e9ee7f3ac0e20738bd29b0a45ed487958ba241c113edfca81ff2b0438ad5f276",
            "confirmbar.csv": "db7f669cdfd807e71bbd41a09c8d757c1b6c078247b2d1dbd7729dc629cfbc95",
            "events.csv": "51b7254eaa65db91b21ccde4a76b253010d273b43a24a1ab9c5f679b51b72655",
            "latency.csv": "768bc5d3318ed8d55798cba70017bc63c97ae8a4c58a02d3b31da68ee976f069",
            "order.csv": "efc6736b6f42ba4e60800706f9e2608d3ca166eba1ef416c9262e85fe05785b5",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "576eced34192f9905457d5227dfebb31752c8411ff0007ef429f55cb4a81dbe0",
            "summary.txt": "ab644c998a2f88833530a3a7f570a875f03b0e81d23e80199464c9066d44b7c7",
            "throughput.csv": "611e2d935ece35aceef2eab0b7e9fb9473b865c45f65ba8e91355ba7a48bc315",
            "verify/order.csv": "069d67481dcbe94e3c160a42b8e289106ceb395d7b4cf1a74d74669a0a1a782c",
        },
    ),
    # gossip delays of 1..20 ticks against a 5-tick block interval: headers of
    # one chain reach a node out of order (78 of 5,100 arrive above the node's
    # tip and wait in its buffer) and the 16 ConfirmBars rise 637 times
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
            "beacon.csv": "1779ab8ccc758aff4a9faa38dbb7195c51f710155b2c4a67057504b096c9aae4",
            "confirmbar.csv": "87fe953aeeaaf605f7ab205a6b523de97351c9c1bfaa8d96aba9bbdf5347515c",
            "latency.csv": "96ca7d6d340384a0f05a351eefd4b9ca41253eea755fb2ff009342986ec3ec6d",
            "order.csv": "9f094ef3a32c188a248b2b3d66a1828521b5fc691e0f460597d621b4aad3ef3c",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "3a55e7018fd37c8809bbd3abbf6b4da3c296cd3d30edb5f79b96ab525ad2f0f3",
            "summary.txt": "f7d3d60e6428456b8ef3db40d95be1df7d86796df85abce11feb52a74656e319",
            "throughput.csv": "dfdd3e31b3fa6270361b60d545c07057fb72ed3ac6bf85f67763433aaaa80741",
            "verify/order.csv": "b42d4dce3437b72a236dff1d039e7523eb6d611b1027d9127548d32351cea9da",
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
    "beacon.csv": "7dbd1ce73266b867994cb7e3707a556307965995ffc8ff550185ddf8951556a5",
    "beacon_summary.txt": "df62f89bf7c1f819a16c37def8d1b783c17e2bb29c88c05d4deb52306b39a3b8",
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
    "scaling.csv": "71cda6d7199c12700b2640671fac3510a8fc4616962f9acc91731b24c62b739e",
    "scaling_summary.txt": "1c62388b9481fe505cd2f78e0beeabab9ac61b2f32707530b5b73987b317acad",
}


def test_scale_digests_are_pinned(tmp_path, capsys):
    assert main(["scale", "--chains", "1,2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == SCALE
