"""Command-line interface: run experiments, collect stats, verify outputs.

Subcommands:
  run           one full simulation; writes CSV metrics and a text summary
  beacon-stats  Monte Carlo of the randomness beacon vs. the closed forms
  scale         throughput at several chain counts, fixed per-chain load
  verify-order  recheck total-order consistency from a prior run's snapshots

Exit codes are a stable contract: 0 success, 1 property violation,
2 usage or configuration error.

Configuration files are flat `key = value` text; `#` starts a comment.
The keys are the fields of SimConfig, and each value is parsed by its
field's declared type: an integer, a float, or a `time:node` schedule.
Unknown and repeated keys are rejected, and every defaulted key is echoed so
a run's full parameterization is always visible in its output. Tracing is no
key: `run --trace` also writes `events.csv`.

Every CSV file goes through `sim.csv_bytes`; `beacon.csv` and `order.csv`
through `sim.beacon_csv` and `sim.order_csv`, as in a run's own outputs. The
one exception is a run's `snapshots.csv`, written by `sim.snapshots_csv`,
which formats each header once for all the nodes that hold it; a test pins
its bytes to those of `sim.csv_bytes`.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from itertools import groupby
from pathlib import Path
from typing import get_type_hints

from . import beacon as beacon_mod
# unused here, but perfbench/tracer.py wraps shadowraft.cli.invoke_beacon by name
from .beacon import invoke_beacon, make_beacon_nodes
from .ledger import HASH_LEN, BlockHeader, hash_header
from .ordering import (
    Frontier,
    GlobalView,
    OrderingError,
    UnknownChain,
    reference_total_order,
    total_order,
    validate_view,
)
from .sim import (
    ORDER_HEADER,
    SNAPSHOTS_HEADER,
    ConfigError,
    Lottery,
    SimConfig,
    SimError,
    SimTrace,
    beacon_csv,
    csv_bytes,
    measure_scaling,
    order_csv,
    run_simulation,
)

def _parse_schedule(text: str) -> tuple[tuple[int, int], ...]:
    """Parse 'time:node' pairs separated by commas, semicolons, or spaces."""
    pairs = []
    for item in re.split(r"[\s,;]+", text.strip()):
        if not item:
            continue
        when, _, nid = item.partition(":")
        if not _:
            raise ValueError(f"crash entry {item!r} is not time:node")
        pairs.append((int(when), int(nid)))
    return tuple(pairs)


# a SimConfig field's declared type picks the parser for its config key
_PARSE_TYPE = {
    int: int,
    float: float,
    tuple[tuple[int, int], ...]: _parse_schedule,
}


def read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raw: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if key in set_on:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} (first set on line {set_on[key]})"
            )
        set_on[key] = lineno
        raw[key] = value.strip()
    return raw


def build_config(
    raw: dict[str, str], seed_override: int | None = None
) -> tuple[SimConfig, list[str]]:
    """Materialize a SimConfig and the echo lines showing every key.

    The keys are SimConfig's fields, each parsed by its declared type.
    """
    types = get_type_hints(SimConfig)
    parsers = {f.name: _PARSE_TYPE[types[f.name]] for f in fields(SimConfig)}
    unknown = sorted(set(raw) - set(parsers))
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        try:
            kwargs[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    if seed_override is not None:
        kwargs["seed"] = seed_override
    config = SimConfig(**kwargs)
    config.validate()
    echo = []
    for f in fields(SimConfig):
        marker = "" if f.name in kwargs else "  (default)"
        echo.append(f"{f.name} = {getattr(config, f.name)}{marker}")
    return config, echo


def write_outputs(trace: SimTrace, out_dir: str, summary: str) -> list[str]:
    """Write the run's CSV files and `summary`, its summary_text, to out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, data in trace.csv_outputs().items():
        (out / name).write_bytes(data)
        written.append(name)
    (out / "summary.txt").write_text(summary)
    written.append("summary.txt")
    return written


# -- run ------------------------------------------------------------------


def cmd_run(args) -> int:
    raw = read_config_file(args.config) if args.config else {}
    config, echo = build_config(raw, args.seed)
    print("configuration:")
    for line in echo:
        print(f"  {line}")
    trace = run_simulation(config, trace=args.trace)
    summary = trace.summary_text()
    written = write_outputs(trace, args.out, summary)
    print(summary, end="")
    print(f"wrote {', '.join(written)} to {args.out}")
    return 1 if trace.safety_flags else 0


# -- beacon-stats ------------------------------------------------------------


def cmd_beacon_stats(args) -> int:
    n, bits, epochs = args.nodes, args.bits, args.epochs
    if n < 1 or not 1 <= bits <= 32 or epochs < 1 or not 0 <= args.seed < 2**64:
        print("beacon-stats: need nodes >= 1, 1 <= bits <= 32, epochs >= 1, "
              "0 <= seed < 2**64", file=sys.stderr)
        return 2
    lottery = Lottery(make_beacon_nodes(n, bits, args.seed))
    rows, forged = [], []
    for _ in range(epochs):
        row, bad = lottery.settle()
        rows.append(row)
        forged += bad
    repeat_rate = 1 - sum(row[1] for row in rows) / epochs
    closed = beacon_mod.repeat_probability(n, bits)
    mean_certs = sum(row[2] for row in rows) / epochs
    mean_msgs = sum(row[4] for row in rows) / epochs
    expect_certs = n * 2.0**-bits
    expect_msgs = beacon_mod.expected_messages(n, bits)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "beacon.csv").write_bytes(beacon_csv(rows))
    summary = (
        f"beacon stats: N={n} l={bits} epochs={epochs} seed={args.seed}\n"
        f"  empirical repeat rate: {repeat_rate:.6f}\n"
        f"  closed form (1-2^-l)^N: {closed:.6f}\n"
        f"  |difference|: {abs(repeat_rate - closed):.6f}\n"
        f"  mean certificates/epoch: {mean_certs:.4f} (expected {expect_certs:.4f})\n"
        f"  mean messages/epoch: {mean_msgs:.4f} (expected {expect_msgs:.4f})\n"
    )
    (out / "beacon_summary.txt").write_text(summary)
    print(summary, end="")
    if forged:
        first = forged[0]
        print(f"beacon-stats: {len(forged)} certificate(s) failed verification, "
              f"first epoch={first.epoch} node={first.node_id}", file=sys.stderr)
        return 1
    return 0


# -- scale -----------------------------------------------------------------


def cmd_scale(args) -> int:
    raw = read_config_file(args.config) if args.config else {}
    base, echo = build_config(raw, args.seed)
    try:
        counts = [int(c) for c in args.chains.split(",") if c]
    except ValueError:
        print(f"scale: chain counts must be integers: {args.chains!r}", file=sys.stderr)
        return 2
    if not counts or any(c < 1 for c in counts):
        print(f"scale: invalid chain counts {args.chains!r}", file=sys.stderr)
        return 2
    print("base configuration:")
    for line in echo:
        print(f"  {line}")
    points = measure_scaling(base, counts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scaling.csv").write_bytes(
        csv_bytes(
            "chains,nodes,committed_txs,window,txs_per_tick",
            [
                (p.chains, p.nodes, p.committed_txs, p.window, f"{p.throughput:.6f}")
                for p in points
            ],
        )
    )
    baseline = next((p for p in points if p.chains == 1), points[0])
    per_unit = baseline.throughput / baseline.chains
    committee = base.num_nodes // base.num_chains
    lines = [f"scaling (committee size {committee}, per-chain load fixed):"]
    for p in points:
        ideal = per_unit * p.chains
        # no deviation from an ideal of 0: the baseline committed nothing
        dev = f"{(p.throughput - ideal) / ideal:+.1%}" if ideal else "undefined"
        lines.append(
            f"  C={p.chains}: {p.throughput:.4f} tx/tick "
            f"(ideal {ideal:.4f}, deviation {dev})"
        )
    summary = "\n".join(lines) + "\n"
    (out / "scaling_summary.txt").write_text(summary)
    print(summary, end="")
    return 0


# -- verify-order --------------------------------------------------------


class _Rejected(Exception):
    """verify-order stops; args are (exit code, diagnostic)."""


def _parse_cells(cells: list[str], kinds: str) -> list:
    """Each cell read by its kind: "Q" a u64, "I" a u32, "H" a hash of 64 hex digits.

    Raises ValueError if a cell is malformed.
    """
    values = []
    for cell, kind in zip(cells, kinds):
        if kind == "H":
            value = bytes.fromhex(cell)
            if len(value) != HASH_LEN:
                raise ValueError("hash fields must be 64 hex digits")
        else:
            value = int(cell)
            if not 0 <= value < 1 << (32 if kind == "I" else 64):
                raise ValueError("integer field out of range")
        values.append(value)
    return values


def _parse_header(cells: list[str], time: int, node_id: int) -> tuple[BlockHeader, bytes]:
    """(header, stored hash) from one snapshots.csv row.

    Raises ValueError if a field is malformed, and _Rejected (exit 1) if the
    stored hash does not match the header fields.
    """
    chain_id, height, rank, next_rank, term, parent, root, stored = _parse_cells(
        cells[2:], "IQQQQHHH"
    )
    header = BlockHeader(chain_id, height, parent, rank, next_rank, root, term)
    if hash_header(header) != stored:
        raise _Rejected(
            1,
            f"snapshot t={time} node={node_id} chain={chain_id} height={height}: "
            f"stored hash does not match the header fields",
        )
    return header, stored


def _csv_rows(path: Path, header: str):
    """(line number, cells) for each data row of a CSV file whose first line is header."""
    width = header.count(",") + 1
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != header.encode():
            raise _Rejected(2, f'{path}:1: expected header "{header}"')
        for lineno, line in enumerate(fh, 2):
            try:
                cells = line.decode().rstrip("\r\n").split(",")
            except UnicodeDecodeError as exc:
                raise _Rejected(2, f"{path}:{lineno}: {exc}") from None
            if len(cells) != width:
                why = f"expected {width} fields, found {len(cells)}"
                raise _Rejected(2, f"{path}:{lineno}: {why}")
            yield lineno, cells


def _load_snapshots(path: Path) -> list[tuple[int, int, BlockHeader, bytes]]:
    """snapshots.csv -> [(time, node, header, stored hash)] in (time, node,
    chain, height) order.

    A header recurs in the rows of every node that holds it, so each
    distinct header row is parsed, and its stored hash checked, once. A
    malformed row raises _Rejected with exit 2.
    """
    rows = []
    known: dict[str, tuple[BlockHeader, bytes]] = {}
    for lineno, cells in _csv_rows(path, SNAPSHOTS_HEADER):
        try:
            time, node_id = _parse_cells(cells[:2], "QQ")
            key = ",".join(cells[2:])
            entry = known.get(key)
            if entry is None:
                entry = known[key] = _parse_header(cells, time, node_id)
        except ValueError as exc:
            raise _Rejected(2, f"{path}:{lineno}: {exc}") from None
        rows.append((time, node_id, *entry))
    rows.sort(key=lambda row: (row[0], row[1], row[2].chain_id, row[2].height))
    return rows


def _load_tx_counts(path: Path) -> dict[bytes, int]:
    """A run's order.csv -> {block hash: tx_count}; empty if absent.

    Every cell is checked; a malformed row raises _Rejected with exit 2.
    """
    tx_counts: dict[bytes, int] = {}
    if path.is_file():
        for lineno, cells in _csv_rows(path, ORDER_HEADER):
            try:
                *_, block_hash, tx_count = _parse_cells(cells, "QQIQHQ")
                tx_counts[block_hash] = tx_count
            except ValueError as exc:
                raise _Rejected(2, f"{path}:{lineno}: {exc}") from None
    return tx_counts


def cmd_verify_order(args) -> int:
    trace_dir = Path(args.trace_dir)
    if not trace_dir.is_dir():
        print(f"verify-order: {trace_dir} is not a directory", file=sys.stderr)
        return 2
    try:
        return _verify_order(trace_dir, Path(args.out))
    except _Rejected as exc:
        code, message = exc.args
        print(f"verify-order: {message}", file=sys.stderr)
        return code


def _verify_order(trace_dir: Path, out: Path) -> int:
    """Rebuild every node's view from its snapshot rows over one header store.

    A snapshot holds only the headers new to the node since its previous
    one, so each row must sit at the node's frontier on its chain, or a row
    is missing, repeated or misplaced. A header new to the store is linked
    into it by GlobalView.add; one at a height the store already holds must
    be the store's header there (GlobalView.holds), so two nodes that hold
    different headers at one (chain, height) are rejected even where no
    order reaches the fork. Every node's order is then a prefix of the
    store's by construction. After each (time, node) group the view must
    cover every chain. The whole-view oracles run once: validate_view and
    the brute-force reference over the store. Each node's last order must
    be the reference's refs that lie below that node's heights and below its
    bar, the lowest next_rank among its chains' last headers. The longest
    node order is written out.
    """
    snapshots = trace_dir / "snapshots.csv"
    rows = _load_snapshots(snapshots) if snapshots.is_file() else None
    if not rows:
        raise _Rejected(2, f"no snapshots found in {trace_dir}")
    tx_counts = _load_tx_counts(trace_dir / "order.csv")

    num_chains = len({header.chain_id for _, _, header, _ in rows})
    store = GlobalView(num_chains)
    views: dict[int, Frontier] = {}
    checked = 0
    for (time, node_id), group in groupby(rows, key=lambda row: row[:2]):
        view = views.get(node_id)
        if view is None:
            view = views[node_id] = Frontier(store)
        try:
            for _, _, header, stored in group:
                chain, height = header.chain_id, header.height
                if chain >= num_chains:
                    raise UnknownChain(f"chain {chain} not in view")
                held = view.heights[chain]
                if height != held:  # a row missing, repeated or misplaced
                    raise OrderingError(f"chain {chain} height {height}: expected height {held}")
                if height == len(store.chains[chain]):
                    store.add(header, stored)
                elif not store.holds(header):
                    raise OrderingError(
                        f"chain {chain} height {height}: another node holds a different header"
                    )
                view.advance(chain, header.next_rank)
            total_order(view)  # raises IncompleteView unless every chain is covered
        except OrderingError as exc:
            raise _Rejected(1, f"t={time} node={node_id}: {exc}") from None
        checked += 1

    try:
        validate_view(store)
    except OrderingError as exc:
        raise _Rejected(1, str(exc)) from None
    reference = reference_total_order(store)
    for node_id, view in views.items():
        heights = view.heights
        bar = min(store.chains[c][n - 1].next_rank for c, n in enumerate(heights))
        mine = [r for r in reference if r.rank < bar and r.height < heights[r.chain_id]]
        if view.order != mine:
            why = "total_order disagrees with the brute-force reference"
            raise _Rejected(1, f"node={node_id}: {why}")

    out.mkdir(parents=True, exist_ok=True)
    longest = max((view.order for view in views.values()), key=len)
    final = []
    for ref in longest:
        tx_count = tx_counts.get(ref.block_hash, 0)
        final.append((ref.rank, ref.chain_id, ref.height, ref.block_hash.hex(), tx_count))
    (out / "order.csv").write_bytes(order_csv(final))
    print(
        f"verify-order: {checked} snapshot orders consistent; "
        f"final order has {len(longest)} blocks"
    )
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowraft",
        description="Sharded Raft ledger simulator with a randomness beacon "
        "and cross-chain total ordering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation and export metrics")
    run.add_argument("--config", help="key = value configuration file")
    run.add_argument("--out", default="shadowraft-out", help="output directory")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--trace", action="store_true", help="also write events.csv")
    run.set_defaults(func=cmd_run)

    stats = sub.add_parser("beacon-stats", help="Monte Carlo beacon statistics")
    stats.add_argument("--nodes", type=int, default=64)
    stats.add_argument("--bits", type=int, default=6, help="lottery bit length l")
    stats.add_argument("--epochs", type=int, default=20000)
    stats.add_argument("--seed", type=int, default=42)
    stats.add_argument("--out", default="shadowraft-out")
    stats.set_defaults(func=cmd_beacon_stats)

    scale = sub.add_parser("scale", help="throughput scaling across chain counts")
    scale.add_argument(
        "--config", help="base configuration file; committee size num_nodes / num_chains"
    )
    scale.add_argument("--chains", default="1,2,4,8", help="comma-separated counts")
    scale.add_argument("--seed", type=int, help="override the config seed")
    scale.add_argument("--out", default="shadowraft-out")
    scale.set_defaults(func=cmd_scale)

    verify = sub.add_parser(
        "verify-order", help="recheck ordering from a prior run's snapshots"
    )
    verify.add_argument("trace_dir", help="output directory of a previous run")
    verify.add_argument("--out", default="shadowraft-out")
    verify.set_defaults(func=cmd_verify_order)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SimError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
