"""Section 3.4 overhead accounting, measured.

Three claims are checked against implementation-measured numbers rather
than restated:

* beacons grow 56 -> 92 bytes and 4 -> 7 slot times, with the beacon
  *count* unchanged (one per BP either way);
* a hash chain can be served from O(log2 n) resident elements at
  O(log2 n) amortised hash work (the fractal traversal of [6]);
* receivers buffer at most 2 BPs of beacons (~300-500 bytes).
"""

from __future__ import annotations

import argparse

from repro.analysis.overhead import (
    beacon_overhead,
    chain_storage_report,
    fractal_storage_bound,
    receiver_buffer_bytes,
    traffic_overhead,
)
from repro.crypto.primitives import HASH_BYTES
from repro.experiments.report import format_table
from repro.phy.params import OFDM_54MBPS
from repro.sweep import parse_ignoring_sweep_arguments


def run(chain_length: int = 10_000, samples: int = 256):
    """Collect all measured overhead numbers."""
    return {
        "tsf": beacon_overhead(secure=False, phy=OFDM_54MBPS),
        "sstsp": beacon_overhead(secure=True, phy=OFDM_54MBPS),
        "traffic_1000s": traffic_overhead(duration_s=1000.0),
        "chain": chain_storage_report(chain_length, samples=samples),
        "chain_length": chain_length,
        "chain_samples": samples,
        "buffer_bytes": receiver_buffer_bytes(2),
    }


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = argparse.ArgumentParser(prog="repro overhead", description=__doc__)
    parser.add_argument("--chain-length", type=int, default=10_000)
    parser.add_argument("--quick", action="store_true",
                        help="shorter chain (1024) for smoke runs")
    args = parse_ignoring_sweep_arguments(parser, argv)
    chain_length = 1024 if args.quick else args.chain_length

    data = run(chain_length=chain_length, samples=min(256, chain_length))
    print("=== Section 3.4: traffic & storage overhead ===")
    print()
    rows = []
    for name in ("tsf", "sstsp"):
        o = data[name]
        rows.append(
            (
                name.upper(),
                o.beacon_bytes,
                f"{o.airtime_us_per_beacon:.0f} us",
                f"{o.bytes_per_second:.0f} B/s",
                f"{o.airtime_fraction * 100:.3f}%",
            )
        )
    print(
        format_table(
            ["protocol", "beacon bytes", "airtime", "bytes/s", "airtime share"],
            rows,
            title="Beacon overhead (paper: 56 -> 92 bytes, same beacon count)",
        )
    )
    print()
    traffic = data["traffic_1000s"]
    print(f"1000 s of beaconing: {traffic['beacons']:.0f} beacons either way; "
          f"bytes ratio SSTSP/TSF = {traffic['ratio']:.3f}")
    print()
    chain_rows = [
        (
            row.strategy,
            row.resident_elements,
            row.resident_bytes,
            row.hash_ops_for_traversal,
        )
        for row in data["chain"]
    ]
    print(
        format_table(
            ["strategy", "resident elements", "bytes", "hash ops "
             f"({data['chain_samples']} disclosures)"],
            chain_rows,
            title=f"Hash-chain storage, n = {data['chain_length']} "
            f"(paper/[6]: log2(n) = {fractal_storage_bound(data['chain_length'])} "
            "elements suffice)",
        )
    )
    print()
    print(f"receiver beacon buffer for 2 BPs: {data['buffer_bytes']} bytes "
          "(paper: 300-500 bytes); one chain element/tag is "
          f"{HASH_BYTES} bytes")


if __name__ == "__main__":
    main()
