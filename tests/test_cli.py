"""Command-line interface: exit codes, outputs, and the snapshot checker."""

import os
import re
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import shadowraft.cli as cli_module
import shadowraft.sim as sim_module
from shadowraft.beacon import Certificate
from shadowraft.cli import build_config, main, read_config_file
from shadowraft.sim import ORDER_HEADER, SNAPSHOTS_HEADER, ConfigError, SimConfig, run_simulation

RUN_KEYS = {
    "seed": "9",
    "num_nodes": "4",
    "num_chains": "2",
    "lottery_bits": "2",
    "election_timeout": "60",
    "heartbeat_interval": "15",
    "run_duration": "800",
    "snapshot_interval": "200",
}


def write_cfg(tmp_path, name="run.cfg", **overrides):
    keys = {**RUN_KEYS, **overrides}
    lines = ["# experiment configuration", ""]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_config_file_parses_comments_and_spacing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed= 5 # trailing comment\n\n  # whole-line comment\ntx_rate =0.25\n")
    assert read_config_file(str(path)) == {"seed": "5", "tx_rate": "0.25"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 5\n")
    with pytest.raises(ConfigError) as info:
        read_config_file(str(bad))
    assert "bad.cfg:1" in str(info.value)

    keyless = tmp_path / "keyless.cfg"
    keyless.write_text("seed = 5\n  = 5\n")
    with pytest.raises(ConfigError, match=r"keyless\.cfg:2: expected key = value$"):
        read_config_file(str(keyless))


def test_read_config_file_rejects_duplicate_keys(tmp_path, capsys):
    path = tmp_path / "dup.cfg"
    path.write_text("num_nodes = 5\n# comment\nnum_nodes = 7\n")
    with pytest.raises(ConfigError) as info:
        read_config_file(str(path))
    message = str(info.value)
    assert "dup.cfg:3" in message and "'num_nodes'" in message and "line 1" in message
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "duplicate key 'num_nodes'" in capsys.readouterr().err


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as info:
        build_config({"num_nodez": "4"})
    assert "num_nodez" in str(info.value)


def test_build_config_echoes_defaults():
    config, echo = build_config({"num_nodes": "7"})
    assert config.num_nodes == 7
    lines = {line.split(" = ")[0]: line for line in echo}
    assert "(default)" not in lines["num_nodes"]
    assert "(default)" in lines["tx_rate"]


def test_build_config_seed_override():
    config, _ = build_config({"seed": "3"}, seed_override=77)
    assert config.seed == 77


def test_config_file_round_trips_every_field(tmp_path):
    config = SimConfig(
        seed=7,
        num_nodes=7,
        num_chains=3,
        lottery_bits=4,
        delta=12,
        raft_delay_min=2,
        raft_delay_max=6,
        election_timeout=90,
        heartbeat_interval=25,
        block_interval=40,
        tx_rate=1.25,
        sensitive_fraction=0.5,
        crash_schedule=((100, 1), (350, 4)),
        run_duration=1500,
        drain_window=300,
        max_batch=32,
        snapshot_interval=200,
        num_seal_keys=3,
    )
    default = SimConfig()
    # a field added to SimConfig but not here keeps its default and fails
    for f in fields(SimConfig):
        assert getattr(config, f.name) != getattr(default, f.name), f.name

    def text(value):
        if isinstance(value, tuple):
            return ", ".join(f"{when}:{nid}" for when, nid in value)
        return str(value)

    path = tmp_path / "every.cfg"
    lines = [f"{f.name} = {text(getattr(config, f.name))}\n" for f in fields(SimConfig)]
    path.write_text("".join(lines))
    parsed, echo = build_config(read_config_file(str(path)))
    assert parsed == config
    assert not any("(default)" in line for line in echo)


def test_readme_config_block_lists_every_field_with_its_default():
    # README's "Keys and defaults" block: one "key = default" line per SimConfig
    # field, in field order; continuation lines are indented
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line[:1].strip()]
    pairs = [re.fullmatch(r"(\w+) = ?(\S*)(\s.*)?", line).groups()[:2] for line in lines]
    assert [key for key, _ in pairs] == [f.name for f in fields(SimConfig)]
    config, _ = build_config(dict(pairs))
    assert config == SimConfig()


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in (
        "throughput.csv",
        "latency.csv",
        "confirmbar.csv",
        "beacon.csv",
        "safety.csv",
        "snapshots.csv",
        "order.csv",
        "summary.txt",
    ):
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "configuration:" in stdout
    assert "(default)" in stdout
    assert "safety flags: 0" in stdout
    # safety.csv holds only its header on a clean run
    assert (out / "safety.csv").read_text() == "flag\n"


def test_run_rejects_bad_chain_count(tmp_path, capsys):
    cfg = write_cfg(tmp_path, num_chains="9")  # exceeds num_nodes=4
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "num_chains" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text() + "mystery_knob = 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "mystery_knob" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "absent.cfg" in capsys.readouterr().err
    # unreadable inputs and outputs end in a diagnostic, not a traceback
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"seed = 5\n\xff\xfe\n")
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    cases = [
        (["run", "--config", str(binary)], f"configuration error: {binary}: ", "can't decode"),
        (["run", "--config", str(tmp_path)], "error: ", "Is a directory"),
        (["run", "--config", str(write_cfg(tmp_path)), "--out", str(taken)], "error: ", "File exists"),
    ]
    for argv, start, why in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(start) and why in err, err


def test_failed_runs_end_in_one_line_diagnostics(tmp_path, capsys):
    twice = write_cfg(tmp_path, "twice.cfg", crash_schedule="100:1, 300:1")
    never = write_cfg(
        tmp_path, "never.cfg", num_nodes="3", num_chains="1", lottery_bits="32"
    )
    endless, undefined = (write_cfg(tmp_path, f"{v}.cfg", tx_rate=v) for v in ("inf", "nan"))
    cadence = write_cfg(tmp_path, "cadence.cfg", empty_blocks="false")  # leaders always propose
    no_cadence_key = "configuration error: unknown configuration key(s): empty_blocks\n"
    traced = write_cfg(tmp_path, "traced.cfg", trace_events="true")  # tracing is run --trace
    no_trace_key = "configuration error: unknown configuration key(s): trace_events\n"
    no_lock = "error: beacon failed to lock a seed by the horizon t=1200\n"
    bad_rate = "configuration error: tx_rate: must be finite and >= 0\n"
    bad_stats = "beacon-stats: need nodes >= 1, 1 <= bits <= 32, epochs >= 1, 0 <= seed < 2**64\n"
    worded = write_cfg(tmp_path, "worded.cfg", num_nodes="five")
    bare_crash = write_cfg(tmp_path, "bare-crash.cfg", crash_schedule="100")
    uneven = write_cfg(tmp_path, "uneven.cfg", num_nodes="5")  # 5 nodes over 2 chains
    cases = [
        (["run", "--config", str(twice)], "configuration error: crash_schedule: node 1 listed twice\n"),
        (["run", "--config", str(never)], no_lock),
        (["scale", "--config", str(never), "--chains", "1"], no_lock),
        (["run", "--config", str(endless)], bad_rate),
        (["run", "--config", str(undefined)], bad_rate),
        (["run", "--config", str(cadence)], no_cadence_key),
        (["run", "--config", str(traced)], no_trace_key),
        (["run", "--config", str(worded)],
         "configuration error: num_nodes: invalid literal for int() with base 10: 'five'\n"),
        (["run", "--config", str(bare_crash)],
         "configuration error: crash_schedule: crash entry '100' is not time:node\n"),
        (["scale", "--config", str(uneven)],
         "configuration error: num_nodes: scale needs a multiple of num_chains=2, got 5\n"),
        (["beacon-stats", "--seed", "-1"], bad_stats),
        (["beacon-stats", "--seed", str(1 << 64)], bad_stats),
    ]
    for argv, err in cases:
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2, argv
        assert capsys.readouterr().err == err


def test_beacon_that_locks_past_the_horizon_is_an_error(tmp_path, capsys):
    # epochs of 100 ticks at l = 9, node 1 down from t = 50; a run with a long
    # horizon reads the tick at which the seed locks
    keys = dict(
        seed="1", num_nodes="3", num_chains="1", lottery_bits="9", delta="100",
        drain_window="0", crash_schedule="50:1",
    )
    probe = write_cfg(tmp_path, "probe.cfg", run_duration="100000", **keys)
    trace = run_simulation(build_config(read_config_file(str(probe)))[0])
    epochs, lock = len(trace.beacon_rows), trace.workload_start
    assert lock == 100 * epochs > 50  # node 1 crashes during the beacon phase
    late, exact = tmp_path / "late", tmp_path / "exact"
    argv = ["run", "--config", str(write_cfg(tmp_path, "late.cfg", run_duration="1", **keys))]
    assert main([*argv, "--out", str(late)]) == 2
    assert capsys.readouterr().err == (
        "error: beacon failed to lock a seed by the horizon t=1\n"
    )
    assert not late.exists()
    # a seed that locks at the horizon itself still runs
    argv = ["run", "--config", str(write_cfg(tmp_path, "exact.cfg", run_duration=str(lock), **keys))]
    assert main([*argv, "--out", str(exact)]) == 0
    capsys.readouterr()
    summary = (exact / "summary.txt").read_text()
    assert f"beacon: {epochs} epoch(s)" in summary
    assert f"workload start t={lock}, horizon t={lock}" in summary


def test_run_rejects_a_tx_rate_whose_nonces_pass_u64(tmp_path, capsys, monkeypatch):
    def no_run(config, *, trace):
        raise AssertionError("validation let the run start")

    monkeypatch.setattr(cli_module, "run_simulation", no_run)
    cfg = write_cfg(tmp_path, tx_rate="1e20")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: tx_rate: too high: need (int(tx_rate) + 1) * run_duration <= 2**64\n"
    )


def test_run_rejects_a_draw_or_key_id_past_its_width_at_once(tmp_path):
    # a bounded draw over more than 2**64 values would reject every u64 and loop
    # forever, and a key id past u32 would come only after 2**32 keys: validate
    # refuses each, so the run exits 2 before it starts
    cases = {
        "raft_delay_max": str(2**65),
        "election_timeout": str(2**65),
        "num_seal_keys": str(2**32 + 1),
    }
    path = [str(Path(cli_module.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def cap_memory():  # a run that does start must fail, not fill the machine
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for key, value in cases.items():
        cfg = write_cfg(tmp_path, f"{key}.cfg", **{key: value})
        argv = [sys.executable, "-m", "shadowraft", "run", "--config", str(cfg)]
        done = subprocess.run(
            [*argv, "--out", str(tmp_path / key)], env=env, capture_output=True,
            text=True, timeout=20, preexec_fn=cap_memory,
        )
        assert done.returncode == 2, (key, done.stderr)
        assert done.stderr.startswith(f"configuration error: {key}: "), done.stderr
        assert "Traceback" not in done.stderr


def test_run_seed_override_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b, c = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["run", "--config", str(cfg), "--out", str(a), "--seed", "100"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "101"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(c), "--seed", "100"]) == 0
    read = lambda d: (d / "latency.csv").read_bytes()
    assert read(a) != read(b)
    assert read(a) == read(c)


def test_run_trace_flag_writes_event_log(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--trace"]) == 0
    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == "time,seq,kind,node_id,detail"
    assert len(events) > 100


def test_run_committee_kill_is_expected_stall_not_failure(tmp_path, capsys):
    # discover chain 1's committee, then schedule its wholesale crash
    config, _ = build_config(dict(RUN_KEYS))
    probe = run_simulation(config)
    victims = probe.assignment[1]
    schedule = ",".join(f"{350 + 10 * i}:{nid}" for i, nid in enumerate(victims))
    cfg = write_cfg(tmp_path, crash_schedule=schedule)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "expected-stall" in summary
    assert "safety flags: 0" in summary


def test_beacon_stats_validates_parameters(capsys, tmp_path):
    assert main(["beacon-stats", "--epochs", "0", "--out", str(tmp_path)]) == 2
    assert main(["beacon-stats", "--bits", "40", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_beacon_stats_writes_comparison(tmp_path, capsys):
    out = tmp_path / "bs"
    code = main(
        ["beacon-stats", "--nodes", "16", "--bits", "3", "--epochs", "400",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "empirical repeat rate" in stdout
    assert "closed form" in stdout
    rows = (out / "beacon.csv").read_text().splitlines()
    assert rows[0] == "epoch,succeeded,num_certificates,seed,messages_sent"
    assert len(rows) == 401
    assert (out / "beacon_summary.txt").is_file()


def test_beacon_stats_rejects_a_forged_certificate(tmp_path, capsys, monkeypatch):
    argv = ["beacon-stats", "--nodes", "16", "--bits", "3", "--epochs", "50", "--seed", "7"]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    forgers = []

    def forging(enclave, epoch):
        cert = real_invoke(enclave, epoch)
        if cert is not None or epoch != 0 or forgers:
            return cert
        forgers.append(enclave.node_id)
        return Certificate(epoch, 0, enclave.node_id, bytes(32))  # lowest rnd, bad tag

    real_invoke = sim_module.invoke_beacon
    monkeypatch.setattr(sim_module, "invoke_beacon", forging)
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "forged")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("beacon-stats: ")
    assert f"node={forgers[0]}" in err
    clean = (tmp_path / "clean" / "beacon.csv").read_text().splitlines()
    forged = (tmp_path / "forged" / "beacon.csv").read_text().splitlines()
    # the forged certificate is broadcast to 15 nodes but never counted or locked
    epoch, succeeded, certs, seed, messages = clean[1].split(",")
    assert forged[1] == ",".join([epoch, succeeded, certs, seed, str(int(messages) + 15)])
    assert forged[2:] == clean[2:]


def test_scale_rejects_bad_chain_lists(tmp_path, capsys):
    assert main(["scale", "--chains", "1,x", "--out", str(tmp_path)]) == 2
    assert main(["scale", "--chains", "", "--out", str(tmp_path)]) == 2
    assert main(["scale", "--chains", "0,2", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_scale_writes_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, num_chains="1", num_nodes="4", run_duration="700")
    out = tmp_path / "sc"
    code = main(["scale", "--config", str(cfg), "--chains", "1,2", "--out", str(out)])
    assert code == 0
    rows = (out / "scaling.csv").read_text().splitlines()
    assert rows[0] == "chains,nodes,committed_txs,window,txs_per_tick"
    assert len(rows) == 3
    assert rows[1].startswith("1,4,")
    assert rows[2].startswith("2,8,")
    printed = capsys.readouterr().out
    assert "scaling (committee size 4, per-chain load fixed):" in printed
    assert "deviation +" in printed or "deviation -" in printed


def test_scale_deviation_is_undefined_when_the_baseline_commits_nothing(tmp_path, capsys):
    # one node per chain: at C=1 the lone enclave's beacon locks at t=290,
    # too late for the baseline to commit anything; C=8's eight lock in time
    cfg = tmp_path / "base.cfg"
    cfg.write_text("num_chains = 8\nnum_nodes = 8\ntx_rate = 3.2\nrun_duration = 300\n")
    assert main(["scale", "--config", str(cfg), "--chains", "1,8", "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "scaling_summary.txt").read_text().splitlines()
    assert summary[1] == "  C=1: 0.0000 tx/tick (ideal 0.0000, deviation undefined)"
    assert summary[2].startswith("  C=8: ") and summary[2].endswith(
        " tx/tick (ideal 0.0000, deviation undefined)"
    )
    assert not summary[2].startswith("  C=8: 0.0000 ")
    capsys.readouterr()


def run_and_verify_dirs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "trace"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_verify_order_accepts_clean_run(tmp_path, capsys):
    out = run_and_verify_dirs(tmp_path)
    verified = tmp_path / "verified"
    assert main(["verify-order", str(out), "--out", str(verified)]) == 0
    assert "snapshot orders consistent" in capsys.readouterr().out
    rebuilt = (verified / "order.csv").read_text().splitlines()
    assert rebuilt[0] == "position,rank,chain_id,height,block_hash,tx_count"
    assert len(rebuilt) > 1


def test_verify_order_rejects_an_order_unlike_the_brute_force_reference(
    tmp_path, monkeypatch, capsys
):
    import shadowraft.ordering as ordering

    out = run_and_verify_dirs(tmp_path)
    capsys.readouterr()
    real = ordering.Frontier.order

    def swapped(view):  # each node's order with its first two refs swapped
        order = list(real.fget(view))
        order[:2] = order[1::-1]
        return order

    monkeypatch.setattr(ordering.Frontier, "order", property(swapped))
    assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == 1
    assert capsys.readouterr().err == (
        "verify-order: node=0: total_order disagrees with the brute-force reference\n"
    )


def test_verify_order_missing_inputs(tmp_path, capsys):
    assert main(["verify-order", str(tmp_path / "nope")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["verify-order", str(empty)]) == 2
    capsys.readouterr()


def test_verify_order_catches_edited_rank(tmp_path, capsys):
    out = run_and_verify_dirs(tmp_path)
    snap = out / "snapshots.csv"
    lines = snap.read_text().splitlines()
    # bump the rank field of the last data row
    cells = lines[-1].split(",")
    cells[4] = str(int(cells[4]) + 7)
    lines[-1] = ",".join(cells)
    snap.write_text("\n".join(lines) + "\n")

    assert main(["verify-order", str(out)]) == 1
    err = capsys.readouterr().err
    assert "does not match" in err


def test_verify_order_catches_forged_consistent_header(tmp_path, capsys):
    # re-hash after editing so the integrity check passes, forcing the
    # rank-discipline validation itself to catch the forgery
    from shadowraft.ledger import BlockHeader, hash_header

    out = run_and_verify_dirs(tmp_path)
    snap = out / "snapshots.csv"
    lines = snap.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[4] = str(int(cells[4]) + 7)
    forged = BlockHeader(
        chain_id=int(cells[2]),
        height=int(cells[3]),
        parent_hash=bytes.fromhex(cells[7]),
        rank=int(cells[4]),
        next_rank=int(cells[5]),
        tx_root=bytes.fromhex(cells[8]),
        proposer_term=int(cells[6]),
    )
    cells[9] = hash_header(forged).hex()
    lines[-1] = ",".join(cells)
    snap.write_text("\n".join(lines) + "\n")

    assert main(["verify-order", str(out)]) == 1
    capsys.readouterr()


def test_verify_order_links_each_header_new_to_the_store(tmp_path, capsys):
    # a re-hashed header whose rank skips its parent's next_rank reaches the
    # store only through GlobalView.add, whose linkage rule names it; were it
    # let in, node 1's true header at that height would be the first rejection
    from shadowraft.ledger import BlockHeader, hash_header

    out = tmp_path / "run"
    assert main(["run", "--out", str(out)]) == 0
    snap = out / "snapshots.csv"
    lines = snap.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[2:4] == ["0", "1"])
    cells = lines[i].split(",")
    cells[4], cells[5] = str(int(cells[4]) + 1), str(int(cells[5]) + 1)
    forged = BlockHeader(
        chain_id=0,
        height=1,
        parent_hash=bytes.fromhex(cells[7]),
        rank=int(cells[4]),
        next_rank=int(cells[5]),
        tx_root=bytes.fromhex(cells[8]),
        proposer_term=int(cells[6]),
    )
    cells[9] = hash_header(forged).hex()
    lines[i] = ",".join(cells)
    snap.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == 1
    assert capsys.readouterr().err == (
        "verify-order: t=390 node=0: chain 0 height 1: rank 2, expected tip next_rank 1\n"
    )


def test_verify_order_catches_missing_or_repeated_rows(tmp_path, capsys):
    # each snapshot row is a header new to its node, so dropping one breaks
    # the node's chain and repeating one puts a height in twice
    out = run_and_verify_dirs(tmp_path)
    snap = out / "snapshots.csv"
    lines = snap.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    last_time = max(int(r[0]) for r in rows)
    # a row of node 0, chain 0 before the last snapshot: a later row follows it
    middle = next(
        i for i, r in enumerate(rows, 1)
        if r[1] == "0" and r[2] == "0" and r[3] != "0" and int(r[0]) < last_time
    )
    capsys.readouterr()
    for edited in (
        lines[:middle] + lines[middle + 1 :],
        lines[: middle + 1] + lines[middle:],
    ):
        snap.write_text("\n".join(edited) + "\n")
        assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == 1
        assert "node=0" in capsys.readouterr().err


def _snapshot_dir(tmp_path, views):
    """A trace directory whose snapshots.csv gives each node its headers at t=100."""
    from shadowraft.ledger import hash_header

    lines = ["time,node_id,chain_id,height,rank,next_rank,proposer_term,"
             "parent_hash,tx_root,block_hash"]
    for node, headers in views.items():
        for h in headers:
            lines.append(
                f"100,{node},{h.chain_id},{h.height},{h.rank},{h.next_rank},"
                f"{h.proposer_term},{h.parent_hash.hex()},{h.tx_root.hex()},"
                f"{hash_header(h).hex()}"
            )
    trace = tmp_path / "trace"
    trace.mkdir()
    (trace / "snapshots.csv").write_text("\n".join(lines) + "\n")
    return trace


def _rival_blocks():
    """Chain 0's genesis and two different headers that both link to it at height 1."""
    from shadowraft.ledger import Transaction, hash_header, make_genesis, new_block

    genesis = make_genesis(0).header
    link = dict(chain_id=0, height=1, parent_hash=hash_header(genesis), rank=1,
                next_rank=2, proposer_term=1)
    block_a = new_block(transactions=[Transaction(b"a", False, 1, 0)], **link).header
    block_b = new_block(transactions=[Transaction(b"b", False, 1, 0)], **link).header
    return genesis, block_a, block_b


def test_verify_order_checks_every_order_against_the_longest(tmp_path, capsys):
    # node 1 holds a prefix of both node 0 and node 2, which disagree with
    # each other: node 2's header is a fork of the one node 0 put in the store
    genesis, block_a, block_b = _rival_blocks()
    trace = _snapshot_dir(tmp_path, {0: [genesis, block_a], 1: [genesis], 2: [genesis, block_b]})
    assert main(["verify-order", str(trace), "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert "t=100 node=2: chain 0 height 1: another node holds a different header" in err


def test_verify_order_rejects_a_fork_that_no_order_reaches(tmp_path, capsys):
    # chain 1 stays at its genesis, so every bar is 1 and both orders hold the
    # two genesis blocks alone: the fork at chain 0 height 1 is in no order
    from shadowraft.ledger import make_genesis

    genesis, block_a, block_b = _rival_blocks()
    other = make_genesis(1).header
    views = {0: [genesis, block_a, other], 1: [genesis, other], 2: [genesis, block_b, other]}
    trace = _snapshot_dir(tmp_path, views)
    assert main(["verify-order", str(trace), "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert "node=2: chain 0 height 1: another node holds a different header" in err


def test_verify_order_rejects_a_chain_id_past_the_chain_count(tmp_path, capsys):
    # chain ids {0, 2} make two chains, so chain 2 is outside every view
    from shadowraft.ledger import make_genesis

    trace = _snapshot_dir(tmp_path, {0: [make_genesis(0).header, make_genesis(2).header]})
    assert main(["verify-order", str(trace), "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert "t=100 node=0: chain 2 not in view" in err and "Traceback" not in err


def test_verify_order_rejects_malformed_snapshots(tmp_path, capsys):
    out = run_and_verify_dirs(tmp_path)
    snap = out / "snapshots.csv"
    lines = snap.read_text().splitlines()
    capsys.readouterr()

    def edited(index, column, value):
        cells = lines[index].split(",")
        cells[column] = value
        return lines[:index] + [",".join(cells)] + lines[index + 1 :]

    cases = [
        (lines + ["garbage,1,2"], len(lines) + 1, "expected 10 fields, found 3"),
        (edited(5, 3, "x7"), 6, "invalid literal for int"),
        (edited(9, 7, "zz" * 32), 10, "non-hexadecimal"),
        (edited(11, 4, "-1"), 12, "out of range"),
        (edited(13, 8, "ab"), 14, "64 hex digits"),
        (lines[:7] + ["\udcff,"] + lines[7:], 8, "can't decode"),  # a 0xff byte
        (edited(2, 0, "-1"), 3, "integer field out of range"),  # time
        (edited(4, 1, str(2**64)), 5, "integer field out of range"),  # node_id
    ]
    for rows, lineno, why in cases:
        snap.write_bytes("\n".join(rows + [""]).encode("utf-8", "surrogateescape"))
        assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert f"verify-order: {snap}:{lineno}: " in err and why in err, err
    snap.write_text("\n".join(lines) + "\n")
    order = out / "order.csv"
    original = order.read_bytes()
    lines = original.decode().splitlines()  # edited() now edits order.csv's lines
    cases = [
        (lines + ["\udcff"], len(lines) + 1, "can't decode"),  # a 0xff byte
        (edited(3, 4, "zz" * 32), 4, "non-hexadecimal"),  # block_hash
        (edited(2, 5, "-3"), 3, "integer field out of range"),  # tx_count
    ]
    for rows, lineno, why in cases:
        order.write_bytes("\n".join(rows + [""]).encode("utf-8", "surrogateescape"))
        assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert f"verify-order: {order}:{lineno}: " in err and why in err, err
    order.write_bytes(original)


def test_verify_order_checks_each_header_line(tmp_path, capsys):
    out = run_and_verify_dirs(tmp_path)
    capsys.readouterr()
    for name, header in (("snapshots.csv", SNAPSHOTS_HEADER), ("order.csv", ORDER_HEADER)):
        path = out / name
        original = path.read_bytes()
        first, rest = original.split(b"\n", 1)
        assert first == header.encode()
        swapped = first.replace(b"chain_id,height", b"height,chain_id")
        for edited in (rest, swapped + b"\n" + rest):  # no header line, a wrong one
            path.write_bytes(edited)
            assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == 2, name
            err = capsys.readouterr().err
            assert err == f'verify-order: {path}:1: expected header "{header}"\n', err
        path.write_bytes(original)
    (out / "order.csv").unlink()  # a missing order.csv is allowed
    assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == 0
    capsys.readouterr()


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def test_verify_order_runs_each_oracle_once_per_file(tmp_path, monkeypatch, capsys):
    # every node's order is a prefix of the one store's, so both oracles run
    # once, over the store, and each node's last order is checked against the
    # brute-force reference cut at that node's heights and bar
    import shadowraft.cli as cli

    out = run_and_verify_dirs(tmp_path)
    calls = {"validate_view": 0, "reference_total_order": 0}
    for name in calls:
        def counted(view, real=getattr(cli, name), name=name):
            calls[name] += 1
            return real(view)

        monkeypatch.setattr(cli, name, counted)
    assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == 0
    rows = [line.split(",") for line in (out / "snapshots.csv").read_text().splitlines()[1:]]
    nodes = {cells[1] for cells in rows}
    groups = {(cells[0], cells[1]) for cells in rows}
    assert f"{len(groups)} snapshot orders consistent" in capsys.readouterr().out
    assert len(groups) > len(nodes) > 1
    assert calls == {"validate_view": 1, "reference_total_order": 1}


def _snapshot_header(cells):
    from shadowraft.ledger import BlockHeader

    chain_id, height, rank, next_rank, term = (int(c) for c in cells[2:7])
    return BlockHeader(chain_id, height, bytes.fromhex(cells[7]), rank, next_rank,
                       bytes.fromhex(cells[8]), term)


def _has_fork(rows):
    """Whether two rows hold different hashes at one (chain, height)."""
    held = {}
    return any(held.setdefault((c[2], c[3]), c[9]) != c[9] for c in rows)


def _reference_verdict(rows):
    """verify-order's exit code for well-formed rows whose stored hashes match,
    by brute force: every (chain, height) in the file has one hash, and at
    every (time, node) group the node's whole view is relinked, must cover
    every chain, and its order must agree with every earlier group's order
    up to the shorter of the two."""
    return 1 if _has_fork(rows) else _per_node_verdict(rows)


def _per_node_verdict(rows):
    """_reference_verdict without the one-hash rule: each node's view alone."""
    from shadowraft.ledger import LedgerError, check_link, hash_header

    rows = sorted(rows, key=lambda c: (int(c[0]), int(c[1]), int(c[2]), int(c[3])))
    num_chains = len({c[2] for c in rows})
    held = {}
    orders = []
    for i, cells in enumerate(rows):
        chains = held.setdefault(cells[1], [[] for _ in range(num_chains)])
        header = _snapshot_header(cells)
        chain = chains[header.chain_id]
        parent = chain[-1] if chain else None
        try:
            check_link(header, parent, parent and hash_header(parent))
        except LedgerError:
            return 1
        chain.append(header)
        if i + 1 < len(rows) and rows[i + 1][:2] == cells[:2]:
            continue
        if not all(chains):
            return 1
        bar = min(chain[-1].next_rank for chain in chains)
        order = sorted(
            (h.rank, h.chain_id, h.height, hash_header(h))
            for chain in chains for h in chain if h.rank < bar
        )
        if any(o[: len(order)] != order[: len(o)] for o in orders):
            return 1
        orders.append(order)
    return 0


def test_verify_order_exit_codes_under_snapshot_mutations(tmp_path, capsys):
    # one mutation at a time of a 6-node, 3-chain run's snapshots.csv; each
    # exit code must equal the brute-force verdict of the mutated file
    from shadowraft.ledger import hash_header

    cfg = write_cfg(tmp_path, seed="30", num_nodes="6", num_chains="3", run_duration="500",
                    snapshot_interval="40")
    out = tmp_path / "trace"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    snap = out / "snapshots.csv"
    head, *lines = snap.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    group_times = {}  # node -> its snapshot times, ascending
    for cells in rows:
        times = group_times.setdefault(cells[1], [])
        if cells[0] not in times:
            times.append(cells[0])

    def edited(cells, column, value):
        cells = cells[:column] + [value] + cells[column + 1 :]
        if column > 1:  # a header field: store the edited header's own hash
            cells[9] = hash_header(_snapshot_header(cells)).hex()
        return cells

    def later(cells):
        times = group_times[cells[1]]
        at = times.index(cells[0])
        return edited(cells, 0, times[at + 1]) if at + 1 < len(times) else None

    mutants = []
    for i, cells in enumerate(rows):
        mutants.append(rows[:i] + rows[i + 1 :])
        mutants.append(rows[: i + 1] + rows[i:])
        moved = later(cells)
        if moved:
            mutants.append(rows[:i] + [moved] + rows[i + 1 :])
        mutants.append(rows[:i] + [edited(cells, 4, str(int(cells[4]) + 1))] + rows[i + 1 :])
        mutants.append(rows[:i] + [edited(cells, 5, str(int(cells[5]) + 1))] + rows[i + 1 :])
        flipped = format(int(cells[7], 16) ^ 1, "064x")
        mutants.append(rows[:i] + [edited(cells, 7, flipped)] + rows[i + 1 :])
        # the next row of another node at the same time takes this row's node, and back
        j = next((j for j in range(i + 1, len(rows))
                  if rows[j][0] == cells[0] and rows[j][1] != cells[1]), None)
        if j is not None:
            swapped = rows[:]
            swapped[i] = edited(cells, 1, rows[j][1])
            swapped[j] = edited(rows[j], 1, cells[1])
            mutants.append(swapped)
    nodes = sorted(group_times)
    mutants.append([edited(c, 1, {nodes[0]: nodes[1], nodes[1]: nodes[0]}.get(c[1], c[1]))
                    for c in rows])

    # a chain whose genesis is the only row of its chain in a node's first group,
    # moved to the node's next group: the first group's view misses that chain
    first = rows.index(next(
        c for c in rows if c[3] == "0" and c[0] == group_times[c[1]][0]
        and not any(o[:3] == c[:3] and o[3] != "0" for o in rows)
    ))
    genesis_moved = rows[:first] + [later(rows[first])] + rows[first + 1 :]
    assert _reference_verdict(genesis_moved) == 1
    mutants.append(genesis_moved)

    verdicts = []
    for mutant in mutants:
        snap.write_text("\n".join([head] + [",".join(c) for c in mutant]) + "\n")
        verdicts.append(_reference_verdict(mutant))
        assert main(["verify-order", str(out), "--out", str(tmp_path / "v")]) == verdicts[-1]
    assert "view covers" in capsys.readouterr().err.splitlines()[-1]
    assert verdicts.count(0) > 10 and verdicts.count(1) > 10, verdicts
    # some mutant links in every node's own view and is rejected as a fork alone
    assert any(_has_fork(m) and _per_node_verdict(m) == 0 for m in mutants)
