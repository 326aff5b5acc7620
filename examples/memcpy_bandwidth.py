"""Memory-system exploration: the Section III-A microbenchmark, hands on.

Sweeps copy sizes across the four implementations (HLS-style, Beethoven,
Beethoven without TLP, hand-written HDL) against the cycle-level DDR model
and prints throughputs plus the Figure-5 style transaction timeline for the
4 KB case.

Run:  python examples/memcpy_bandwidth.py
"""

from repro.baselines.copier import HLS, PURE_HDL
from repro.baselines.memcpy_experiment import (
    render_timeline,
    run_all,
    run_baseline_memcpy,
    run_beethoven_memcpy,
)


def main() -> None:
    print("== throughput sweep (GB/s of copied data) ==")
    print(f"{'size':>9} {'hls':>7} {'beethoven':>10} {'no-tlp':>8} {'pure-hdl':>9}")
    for size in (65536, 262144, 1048576):
        res = run_all(size)
        assert all(r.verified for r in res.values())
        print(
            f"{size:>9} {res['hls'].gbps:>7.2f} {res['beethoven'].gbps:>10.2f} "
            f"{res['beethoven-notlp'].gbps:>8.2f} {res['pure-hdl'].gbps:>9.2f}"
        )

    print()
    print("== 4KB transaction timelines (Figure 5) ==")
    for result in (
        run_baseline_memcpy(4096, HLS),
        run_beethoven_memcpy(4096, tlp=True, burst_beats=16),
        run_baseline_memcpy(4096, PURE_HDL),
    ):
        print(render_timeline(result))
        print()


if __name__ == "__main__":
    main()
