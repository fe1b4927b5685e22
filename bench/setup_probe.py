"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is everything ``run_experiment`` does before its first trial:
package import, config parse, ``build_problem`` and ``hardness_report``.
The probe stops ``run_experiment`` at its first ``trial_seed`` call and
prints one JSON line ``{"import_s": ..., "setup_s": ..., "cal_s": ...}``:
the first two measured from interpreter start-up of this script, the last
the mean of ``CHUNKS`` calibration chunks timed just before and ``CHUNKS``
just after set-up (see ``calibrate.py``).

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

CHUNKS = 3


class _FirstTrial(Exception):
    """Raised in place of the first trial to end the set-up phase."""


def _stop(master_seed: int, trial: int) -> int:
    raise _FirstTrial


def main() -> None:
    sys.dont_write_bytecode = True
    import calibrate

    chunks = [calibrate.chunk() for _ in range(CHUNKS)]
    start = time.perf_counter()
    import json

    import workloads

    workloads.use_source_tree()
    from coci import harness

    imported = time.perf_counter()
    name, seed = sys.argv[1], int(sys.argv[2])
    config = workloads.config_for(workloads.load(name), seed)
    harness.trial_seed = _stop
    try:
        harness.run_experiment(config, workers=1)
    except _FirstTrial:
        pass
    else:
        raise SystemExit("run_experiment returned without starting a trial")
    done = time.perf_counter()
    chunks += [calibrate.chunk() for _ in range(CHUNKS)]
    cal_s = sum(chunks) / len(chunks)
    print(json.dumps({"import_s": imported - start, "setup_s": done - start, "cal_s": cal_s}))


if __name__ == "__main__":
    main()
