"""Regenerate pins.json: the SHA-256 of every exact trace, per seed.

Run from the root of a checkout:

    python3 perfbench/make_pins.py FIRST_SEED LAST_SEED

Exact traces are the ground truth and must stay byte-identical across
refactors, so rerun this only when the benchmark's inputs change, never
to make a run pass.  A seed whose outputs fail any other check is not
pinned.
"""

import json
import os
import shutil
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import workloads  # noqa: E402


def pins_for(seed, workdir):
    pins = {}
    for cls, rounds in ((workloads.PipelineRotated, workloads.POOL),
                        (workloads.SweepRotated, workloads.SWEEP_POOL)):
        wl = cls(seed)
        wl.setup(os.path.join(workdir, cls.name))
        done = [run.run_round(wl, workloads, i) for i in range(rounds)]
        _, _, unexpected = run.tally(done)
        if unexpected:
            raise SystemExit("seed %d: %s fails (%s); not pinned" % (
                seed, unexpected[0].key, unexpected[0].failure))
        pins.update({k: v for k, v in wl.first.items() if k.endswith(":exact")})
    return pins


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    path = os.path.join(run.HERE, "pins.json")
    with open(path) as fh:
        table = json.load(fh)
    workdir = os.path.join(run.ROOT, ".perfbench_work", "pins-pid%d" % os.getpid())
    try:
        for seed in range(first, last + 1):
            table["seeds"][str(seed)] = pins_for(seed, workdir)
            print("seed %d: %d exact traces pinned" % (seed, len(table["seeds"][str(seed)])),
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
        with open(path, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
