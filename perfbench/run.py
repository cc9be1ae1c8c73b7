"""Benchmark entry point: one named workload in a fresh process.

    python3 perfbench/run.py --workload ghost-1d-shm --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``perfbench/measure.py``) in its own session, so that after it exits
this wrapper can account for what the run failed to release:

* ``resource_tracker`` "leaked ... objects" warnings on the child's
  standard error (the tracker prints them only when the child exits);
* processes of the child's session still alive after it exited (they
  are killed and reaped here);
* new ``/dev/shm`` entries, counted by the child after it closed its
  pools.

Their sum is ``parallel.leaked_objects``.  The child's report lines are
passed through; the last line printed is the result object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run.  Exits non-zero without a result if the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The whole run, the child's set-up included, must end within this.
DEADLINE_S = 170.0
LEAK_RE = re.compile(r"There appear to be (\d+) leaked (\S+) objects")
#: Grace for session members that are already exiting when the child ends.
EXIT_GRACE_S = 2.0


def declared_units(trace: int) -> dict:
    """``{metric: unit}`` that ``BENCHMARK.json`` declares for the mode."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def session_pids(sid: int) -> list:
    """Live processes whose session id is ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_session(sid: int) -> int:
    """Kill what is left of session ``sid`` after a short grace period;
    returns how many processes were left."""
    deadline = time.monotonic() + EXIT_GRACE_S
    while session_pids(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = session_pids(sid)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while session_pids(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return len(left)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="CAGNET reproduction benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, err = child.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        reap_session(child.pid)
        child.communicate()
        print(f"{args.workload}: timed out after {DEADLINE_S:.0f} s",
              file=sys.stderr)
        return 3
    survivors = reap_session(child.pid)
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print(f"{args.workload}: run failed (exit {child.returncode})",
              file=sys.stderr)
        return child.returncode or 4
    result = json.loads(lines[-1])
    warned = sum(int(m.group(1)) for m in LEAK_RE.finditer(err))
    leaked = result["leaked_shm"] + survivors + warned
    for line in lines[:-1]:
        print(line)
    print(f"resource release: {result['leaked_shm']} new /dev/shm entries, "
          f"{survivors} surviving processes, {warned} objects reported "
          f"leaked by resource_tracker")
    metrics = result["metrics"]
    if args.trace:
        metrics["parallel.leaked_objects"] = float(leaked)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 5
    print(f"fits: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
