"""Record the expected outputs of every workload and input variant.

Usage: python3 perfbench/record_reference.py

Runs one pass of each (workload, variant) and writes each run's final loss
and the SHA-256 of its metrics.csv / alignment.csv to reference.json. The
benchmark gates on the final losses (relative tolerance
workloads.FINAL_LOSS_RTOL) and reports, without gating, whether the CSV
bytes still equal the digests. Re-record only when a change is meant to
alter the numbers, and say why in the change.
"""

import json
import sys

import checkout


def main() -> int:
    checkout.prepare()
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for variant in range(workloads.VARIANTS):
            wl = workloads.prepare(name, variant, checkout.WORK / "reference" / name)
            outcome = workloads.run_pass(wl)
            errors = [f"{r.key}: {r.error}" for r in outcome.runs if r.error is not None]
            if errors:
                print(f"error: {name} variant {variant}: {errors}", file=sys.stderr)
                return 1
            table[name][str(variant)] = {
                "final_loss": {r.key: r.final_loss for r in outcome.runs},
                "digests": {p: d for r in outcome.runs for p, d in sorted(r.digests.items())},
            }
            print(f"{name} variant {variant}: {outcome.wall_s:.3f} s", flush=True)
    doc = {"recorded_with": checkout.machine_context(), "workloads": table}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
