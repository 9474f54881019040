"""Benchmark entry point.

    python3 perfbench/run.py --workload predict_small --seed 1 --seconds 10 --trace 0

Runs one workload against the program built from this checkout's ``src``
and prints its metrics, one per line with units and sample counts, then a
last line of JSON: ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  Exits non-zero without a result when the checkout has no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import BLAS_ENV, BLAS_THREADS, fail, log  # noqa: E402

for _name in BLAS_ENV:  # before numpy loads; children inherit it
    os.environ[_name] = BLAS_THREADS

WORKLOADS = ("predict_small", "predict_bulk", "generate", "train_dp")
#: Workload-specific names of the generic throughput and latency metrics.
ALIASES = {"predict_small": ("rows_per_s", "request"),
           "predict_bulk": ("rows_per_s", "request"),
           "generate": ("tokens_per_s", "request"),
           "train_dp": ("samples_per_s", "step")}


def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no src/repro under {ROOT}: nothing to benchmark")
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        fail(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}")


def _report(workload: str, result: dict, label: str) -> None:
    throughput, latency = ALIASES[workload]
    log(f"[{label}] setup_s {result['setup_s']:.4f} s "
        f"(median of {len(result['setups'])}: "
        f"{', '.join(f'{value:.3f}' for value in result['setups'])})")
    log(f"[{label}] throughput_per_s ({throughput}) "
        f"{result['throughput_per_s']:.2f} 1/s")
    for name in ("latency_p50_ms", "latency_p90_ms"):
        log(f"[{label}] {name} ({latency}_{name.split('_')[1]}_ms) "
            f"{result[name]:.3f} ms (n={result['samples']})")
    log(f"[{label}] peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    log(f"[{label}] error_rate {result['failed'] / result['attempted']:.4f} "
        f"({result['failed']} of {result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_checkout()

    from perfbench import layers, serving, training
    from perfbench.common import environment, make_workdir, remove_workdir
    from perfbench.spans import load_spans

    threads = connections = serving.CONNECTIONS
    if args.workload == "train_dp":
        threads, connections = 1, 0
    log("environment " + json.dumps(environment(threads, connections)))
    workdir = make_workdir()
    try:
        if args.workload == "train_dp":
            def measure(span_dir=None):
                return training.measure(args.seed, args.seconds, workdir, span_dir)
        else:
            fixture = serving.fixture_for(args.workload, workdir, args.seed)

            def measure(span_dir=None):
                return serving.measure(fixture, args.seconds, workdir, span_dir)

        untraced = measure()
        _report(args.workload, untraced, "untraced")
        runs = [untraced]
        metrics = {name: {"value": untraced[name], "unit": unit}
                   for name, unit in layers.E2E_UNITS.items()}
        if args.trace:
            span_dir = workdir / "spans"
            span_dir.mkdir()
            traced = measure(span_dir)
            _report(args.workload, traced, "traced")
            runs.append(traced)
            values = layers.per_layer(args.workload, untraced, traced,
                                      load_spans(span_dir))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in layers.PER_LAYER}
            for name, entry in metrics.items():
                log(f"[layer] {name} {entry['value']:.4f} {entry['unit']}")
            share = values["attribution.covered_share"]
            log(f"[layer] attribution {'closes' if abs(share - 1) <= 0.1 else 'does not close'}: "
                f"spans cover {share:.3f} of the mean request or step time")
    finally:
        remove_workdir(workdir)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
