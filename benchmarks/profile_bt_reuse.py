"""Which stages one pass of the bt_timr workload ran, served or refused.

``make profile-bt`` prints this under the layer table: per TiMR job of
the benchmark's six-job chain, the stages that ran on the cluster, the
stages served from an earlier equal fragment (``TiMRResult.reused_stages``)
and every reuse resolution with its reason. Counts, not timings, so the
smoke size says the same as the full one.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e"))

import workloads  # noqa: E402


def main() -> None:
    bench = workloads.WORKLOADS["bt_timr"]()
    bench.setup(0, workloads.SIZES["smoke"]["bt_timr"])
    for name, result in bench.run_pass()["jobs"].items():
        print(
            f"job        {name:<8} stages ran {len(result.report.stages)}  "
            f"reused {result.reused_stages}"
        )
        for resolution, entry in sorted(result.resolutions.items()):
            print(f"resolved   {resolution} x {entry['count']}: {entry['reason']}")


if __name__ == "__main__":
    main()
