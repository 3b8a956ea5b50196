"""teon benchmark: three closed-loop training workloads through the teon CLI.

Usage (from the root of a checkout; needs only python3 and numpy):

    python3 perfbench/run.py --workload shipped_sweep --seed 0 --seconds 30 --trace 0

Workloads: shipped_sweep, attn64_diag, attn128_train (see workloads.py).
`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics
(see spans.py). Human-readable lines, including the machine context and the
output-check verdict, come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

The benchmark measures the checkout's own `src/teon` and writes only under
`perfbench/_out/`. It exits with status 2, printing no result, when the
checkout holds no teon sources.
"""

from __future__ import annotations

import argparse
import json
import sys

import checkout


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        checkout.prepare()
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench  # imports numpy: only after the BLAS thread count is pinned
    import workloads

    try:
        result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.UnknownWorkload as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
