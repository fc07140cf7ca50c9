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
            "confirmbar.csv": "a5798aca9c047386d2bdbcd7f6913fdd49278fe8e8ce77c299c782e518114916",
            "latency.csv": "b09afeb711ed2b0b5e93615104641d520dfa214761a1215ae0f305c95d454b8b",
            "order.csv": "4cf89de3483fbce4b5f7256eb3b465059c690a468b637b7960fdae2dcd51fbe1",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "cbcc4d3d5f479c5e055fd6f6ccf98b354fb3b27967ca69c0fa2d9cc870365a13",
            "summary.txt": "52be90cfa055f473ea2ca7ffd4d744ecea2ba100e9355b8ff710649f9fcbc734",
            "throughput.csv": "377198993f01a40ce48a31512adab16fb1ee5c647f4f441ef091818b832cc647",
            "verify/order.csv": "4e097ee31fd5f73f20ffcea119b01fac6dafea25bcd96f2dd382ce9944c0cedd",
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
            "confirmbar.csv": "7a7f33af36a7946932ff6b2a6f44d45ae76d6c6c21b5f958d491a7286955ee10",
            "latency.csv": "928ce5a4747b8334dec08318d0cfe68bcd3fcac6e0c1a2e2714a7585e5623c03",
            "order.csv": "97176475048fdaf03edcdfd70528fa821e862b4dc002de391abc2480507f6462",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "04902a98752fcf06163290ea28e27fd2d56e2f263bdf5587fc5ea2c689363c2e",
            "summary.txt": "4b0039a833eb0a787a98d077084d6e82623635de751edadfa28fd1cd6aa71547",
            "throughput.csv": "a4a43fc980c118f48bb3921485b4e5fb451140fb651f02f4b98b8cbac1d148ff",
            "verify/order.csv": "5d73a826d30a4131889254fd5c48cf7a0482d60ddbd286682e79dbaf9d598b66",
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
            "confirmbar.csv": "406bc5d34811cf8834ac291e08ee32140380e58e5363db42aad070fcdf8231e0",
            "events.csv": "c37a27f6954668c394004b466e0647ade0a1e5907d0e376dcce468a24b8faff6",
            "latency.csv": "ef4dec618ef8be5b80dfd16547287067a1882c8b1b388ede7af2a88cd8b6cc1a",
            "order.csv": "451786f1036fbd47d21c07dd660eece29240f762c23adf5cb4378d473c39664c",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "c207a194f91dd04a6e30d01a29d63487bb65a74767847b67ee7410099c8b68a6",
            "summary.txt": "9fc4bc06604927feb256e7c2aebba142cb2582fe96b2b4f55c7dedd79058376c",
            "throughput.csv": "a0c4f4bcab17d199bc5523b68395563ae2d7892004672751b368871a50a780f3",
            "verify/order.csv": "b6cc5a1ac9d5dfed7ec0b93892e99e9647154c74188c38efe3b04877b53a846e",
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
            "confirmbar.csv": "406bc5d34811cf8834ac291e08ee32140380e58e5363db42aad070fcdf8231e0",
            "events.csv": "faa1f1fb4521b4c2f97a53579cf935d836b8d91dacae5c72d929f2e4c9b3b32f",
            "latency.csv": "b116bb59ec2d364978940b03ee415d139ab18c805658b9f61301d4ec33c07405",
            "order.csv": "9bc7134f31f42385d749579bb55d54637872d26c28a4150cba8fbda57bddaf74",
            "safety.csv": "938c2a3dfa19c1a46821bed04912db62f9fdb134737804213cd67099482dc640",
            "snapshots.csv": "3807b17272c342cd666cc00d2198c9337eca478b572f652616e68827feaa226a",
            "summary.txt": "1179ed93cc0103b838f75a07ef37df7132d7243e2390c1d3e1bce6066193ce9d",
            "throughput.csv": "611e2d935ece35aceef2eab0b7e9fb9473b865c45f65ba8e91355ba7a48bc315",
            "verify/order.csv": "4baddc3e32f7bc4d5ec4c3809da5eb5ca9233bfd9aae33f28080b9bf46bc1622",
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
