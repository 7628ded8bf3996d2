#!/usr/bin/env python3
"""Runs the traced run of every workload and states, for each contrast the
per-layer prediction table (perfbench/README.md) makes, whether it held.

Run from the repository root:

    python3 perfbench/contrasts.py [--seed N] [--seconds S]

Each traced run goes through perfbench/run.py --trace 1; the per-layer
values and run details it prints are compared across workloads.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hs_ca_1x4x1", "wave_orig_1x2x2")


def traced(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    info, result = [json.loads(ln) for ln in out.stdout.splitlines()[-2:]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, info["details"], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()

    m, d = {}, {}
    for w in WORKLOADS:
        m[w], d[w], result = traced(w, args.seed, args.seconds)
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"trace_overhead={m[w]['obs.trace_overhead_frac']:+.4f}")
    hs, wave = WORKLOADS

    def fft_ns_per_point(w, n):
        return 1e3 * m[w]["fft.real_line_us"] / n

    contrasts = [
        ("ops.F share of a serial step (A+C+L+F+S) higher on hs_ca than on wave_orig",
         d[hs]["ops_F_share_of_ACLFS"], d[wave]["ops_F_share_of_ACLFS"],
         d[hs]["ops_F_share_of_ACLFS"] > d[wave]["ops_F_share_of_ACLFS"]),
        ("fft ns per point: Bluestein n=96 (hs_ca) above radix-2 n=32 (wave_orig)",
         fft_ns_per_point(hs, 96), fft_ns_per_point(wave, 32),
         fft_ns_per_point(hs, 96) > fft_ns_per_point(wave, 32)),
        ("comm share of the busiest rank lower on hs_ca than on wave_orig",
         d[hs]["comm_frac_busiest_rank"], d[wave]["comm_frac_busiest_rank"],
         d[hs]["comm_frac_busiest_rank"] < d[wave]["comm_frac_busiest_rank"]),
        ("comm share of the busiest rank on hs_ca below 1%",
         d[hs]["comm_frac_busiest_rank"], 0.01,
         d[hs]["comm_frac_busiest_rank"] < 0.01),
        ("collective calls per step (summed over ranks): more on wave_orig than on hs_ca",
         m[hs]["comm.collectives_per_step"], m[wave]["comm.collectives_per_step"],
         m[wave]["comm.collectives_per_step"] > m[hs]["comm.collectives_per_step"]),
        ("core.busy_imbalance: hs_ca (polar filter) above wave_orig (balanced)",
         m[hs]["core.busy_imbalance"], m[wave]["core.busy_imbalance"],
         m[hs]["core.busy_imbalance"] > m[wave]["core.busy_imbalance"]),
        ("physics share of a step on hs_ca above 0 (wave_orig applies none)",
         d[hs]["hs_share_of_step"], 0.0, d[hs]["hs_share_of_step"] > 0.0),
        ("the service probe (wave_orig) preempts and restores long jobs (service, ckpt layers)",
         m[wave]["service.preemptions"], m[wave]["ckpt.service_restore_ms_p50"],
         m[wave]["service.preemptions"] >= 1 and m[wave]["ckpt.service_restore_ms_p50"] > 0),
    ]
    print()
    for text, a, b, held in contrasts:
        print(f"{'HELD' if held else 'NOT HELD':8s} {text}  ({a:.4g} vs {b:.4g})")


if __name__ == "__main__":
    main()
