"""Timing table: one eigensolve and one full tracking per system variant.

Reproduces the comparison of the high-fidelity system (the full pencil's
physical modes, reported with the edge and with the cotree dimension) and
the two reduced bases at ~1.6e3 unknowns.

Usage: python scripts/bench_table.py [--config configs/bench_n24.cfg]
"""

import argparse
import time
import warnings

from cavityrb.bench import run_bench
from cavityrb.config import load_config


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default="configs/bench_n24.cfg")
    args = ap.parse_args()

    cfg = load_config(args.config)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_bench(cfg)
    print(f"total wall time {time.perf_counter()-t0:.0f}s "
          f"(repetitions={cfg.repetitions}, median reported)")
    header = f"{'variant':<22} {'dofs':>6} {'evp [s]':>10} {'speedup':>8} " \
             f"{'track [s]':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for r in report["rows"]:
        print(f"{r['label']:<22} {r['dof_count']:>6} "
              f"{r['evp_time_median']:>10.4f} {r['evp_speedup']:>8.2f} "
              f"{r['tracking_time_median']:>10.3f} {r['tracking_speedup']:>8.2f}")
    print("\nexcluded from timings:", report["protocol"]["excluded"])


if __name__ == "__main__":
    main()
