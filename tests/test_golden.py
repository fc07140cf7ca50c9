"""Pinned SHA-256 digests of every output file for a few fixed runs.

Each case runs ``shadowraft run`` on a fixed configuration, with ``--trace``
where the case pins ``events.csv``, then ``verify-order`` on its output, and
compares the digest of every file written with the value pinned here. Two
more tests do the same for ``beacon-stats`` and ``scale``. A change that must
keep output bytes unchanged (a refactor, a speed-up) is held to that by these
tests; a change that alters outputs on purpose updates the digests and says
so in CHANGES.md.
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
            "beacon.csv": "8b7b1ddd11d289b8f4dcdd1b85a4105a5179d1d713e8a02bc91403ed4a45b461",
            "confirmbar.csv": "94a01e6b12171bbccc8dd7c2e999b38568e0e6745f747f0b4a3d881486013f2c",
            "latency.csv": "d522874dbbcd9383ffa5d918ccc49d982f4e3f29c8e9e26c790d1a3c83e5179a",
            "order.csv": "964939269bb23b55ecc6dd6423fd21bad9e8f886aee4fbc83e5df2cb39883284",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "9c8f5461914ff8599805f6acff876d50735f55128e8caae703807a541cb88188",
            "summary.txt": "de1fd60c5d062a688d7abb7adc1aa3d47ac53091ab8a5895eb469b8dfa588bcf",
            "throughput.csv": "4648496937ec1edfae6af29b2e2e5585991fe168f97bb9e80a64c10bd9cfa971",
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
            "beacon.csv": "395452690c05db40de1ef434f64337ee17a5d8eba164a2c26e044ff66ae312f7",
            "confirmbar.csv": "5d089f910c6702623a5e196a5c97f4fbf4e4949b1b9644ee3bc8770ccfdd165b",
            "latency.csv": "a9baa038a96a1d86596742cef9d19fa8da0e4f1f2a944059a2695757aeb804d1",
            "order.csv": "8e8bfc5593fcdbdc04911bc5a4e6677002877f575e1534eadf664096af42abc9",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "c73a6a73e1b952e96d2f49aff8d570c895c0bc41dcb9f12a1ab2991c75f379d8",
            "summary.txt": "60124a4b98be9f39cc8407656679038320ad68e52d9f3e2a15885d675b687923",
            "throughput.csv": "53b2c762a9c4e2eb8634ba95ccaaa1e969f9ee9423a2e379be5fcab888dcaa40",
            "verify/order.csv": "8e8bfc5593fcdbdc04911bc5a4e6677002877f575e1534eadf664096af42abc9",
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
        },
        {
            "beacon.csv": "591c552a69e42e6525da86ac75c9bb99039fedf00fcbe02f3868ab91e2dc4aca",
            "confirmbar.csv": "9d9234e9c5127ad4bee6868ca63a602571540309eb9316a1dd1e47b30cca3525",
            "events.csv": "bfd8c789db2645ccd8e8f5105297c6d90eea06b1bf7f8afb98670039be51eb93",
            "latency.csv": "3b2bea078d531873d691a76261c6d86011e2dbaa5c34b3006a8694134eea5664",
            "order.csv": "1a2b75765e7824d83e90d0a07590b90e5f02fdd20164ef50f1a272d3f69dab5d",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "cd1642054cc01874a54da33363a7df3b15574a113ea7cc9051556ccb6d2f231e",
            "summary.txt": "5fa2388666327cfa60516c23201d6b5e70a2e3d28eaed76e4cd529f7eeef1019",
            "throughput.csv": "a32972b88dea6cda16e87ecfba6d1e90c66fe909082ade7b08dc06963d6e3572",
            "verify/order.csv": "ca77615372572a3912fb0d0c20cdc1b7475b59db9cac526974db8521f0e7aae5",
        },
    ),
    # the crash path, traced: chain 0's leader (node 0) crashes mid-run, chain
    # 1's leader (node 1) on the tick of a proposal and a snapshot, and node 5
    # one tick after the horizon (t = 565), so it still gets the header that
    # node 2 gossips at t = 566 and takes it at t = 569
    "traced-crash": (
        {
            "seed": "5",
            "num_nodes": "8",
            "num_chains": "2",
            "lottery_bits": "2",
            "election_timeout": "60",
            "heartbeat_interval": "15",
            "crash_schedule": "300:0,410:1,566:5",
            "run_duration": "565",
            "drain_window": "0",
            "snapshot_interval": "200",
        },
        {
            "beacon.csv": "28871dba998ae420930366e1a0dc6e9a9af73fd4c790bd57b0a191dc9dfb6a1b",
            "confirmbar.csv": "ddc67b11fe4ade8b2e037415d7e498986288846a6050a7715f0d03b852bab8c9",
            "events.csv": "09dea914bb5f2a7e8a8722697de006b236f7a2cbdf9317cdaeb26ea830133cb4",
            "latency.csv": "df95571c2e8856655c5729286fb7236e1d215fb17b0a91e5dcc7deee63f5f82c",
            "order.csv": "60596dbcbab08efb19807c01a85d453b30a50eee677ef60a27291d98923b2822",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "f5d48dae11f9bdb7ad135d7fcbeb35382de6718e2156e24c9712ac03a103cbb6",
            "summary.txt": "b8d7ffe286c6c2110962e42e78ae2945ecce6fc4d068ab2c653f6fc797320d4a",
            "throughput.csv": "54f95d4ba47e77def55d56b55baaf855134be056426e76e79c1b5fc9886d56a1",
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
        },
        {
            "beacon.csv": "591c552a69e42e6525da86ac75c9bb99039fedf00fcbe02f3868ab91e2dc4aca",
            "confirmbar.csv": "9d9234e9c5127ad4bee6868ca63a602571540309eb9316a1dd1e47b30cca3525",
            "events.csv": "18bf8c6be9e5c730c6a68a84f8f4fc70375b22a12e7099c42b1e65b7dd56f3bd",
            "latency.csv": "668fbfaefcb0ad09f8a8fca50fac9d45d4eb3e33283ed79c1986d91c79f64efc",
            "order.csv": "f1110b8338e04a1a1fc62fa7f4856c00671b2d865d0a3aa26c826931d1dc5a56",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "e6e8cc4b89475e40ea734b034122129ffb1da7ff7d440176436a4629891d7544",
            "summary.txt": "140b6ed6306ba6b7d315057822fa440139e09377b8402140d168558744615b30",
            "throughput.csv": "f609d32ce6fd138df664a37bf779cad4bf85827f0bb0e889a85d37db64f63038",
            "verify/order.csv": "32168db10549b6c0cb652f449b7cfe12c4ba9da6281a19ce20cbd2641ed070d4",
        },
    ),
    # gossip delays of 1..20 ticks against a 5-tick block interval: headers of
    # one chain reach a node out of order (55 of 4,740 arrive above the node's
    # tip and wait in its buffer) and the 16 ConfirmBars rise 619 times
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
            "beacon.csv": "c8892bb94d8f070fe7ed5af8903f7cf695e1bb3191ed4235c4bf9c855029bb6b",
            "confirmbar.csv": "3ec93406f729184126d714fe13ba60a5c0cd6efc4300ba59e994e3af2c24eb4b",
            "latency.csv": "3ad43d611513b4baa47465bd9bf7de6a883b816e88dd114c058966898adcaa4a",
            "order.csv": "dd33da6f61826dbcf048ac24ff7eaa2d6820758136101e698d7f29eb21ae1037",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "0afe7c7f72f79d47ad59794a4641993f6605a656f33761f6fd6cd1ee06631cc4",
            "summary.txt": "4ab3493930a5d9c0be80f5a6c02a54b3c025d7ec60c9835fa615e54e2185aeb1",
            "throughput.csv": "2cecf774308b06009e121fa8635c420867ff07b0eb19e5f1744bde591c16e159",
            "verify/order.csv": "b4c4a6f39eb0baa33c0e38e8604cce5a014a4c4000b99a35711c7813193c1f63",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digests_are_pinned(name, tmp_path, capsys):
    keys, expected = CASES[name]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    run, verify = tmp_path / "run", tmp_path / "verify"
    traced = ["--trace"] if "events.csv" in expected else []
    assert main(["run", *traced, "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["verify-order", str(run), "--out", str(verify)]) == 0
    capsys.readouterr()
    digests = {
        prefix + path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for prefix, directory in (("", run), ("verify/", verify))
        for path in sorted(directory.iterdir())
    }
    assert digests == expected


BEACON_STATS = {
    "beacon.csv": "f2ffbf28d6459e370066ab12e4892d92254b738373cbd88befb1dc5596888ec9",
    "beacon_summary.txt": "2704c3349674125c8fe8d5829aad9fec4f97ce624793cb75a17b6cac5b687c7a",
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
    "scaling.csv": "f3d71ceb0212365e7f4f3f48528848b31c844c5029bf1aabf75ecb534c159d8c",
    "scaling_summary.txt": "b0bc195e2bbd3c0ec8416540a299191b58a395d089019367033a460e2f8ddb79",
}


def test_scale_digests_are_pinned(tmp_path, capsys):
    assert main(["scale", "--chains", "1,2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == SCALE
