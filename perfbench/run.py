"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {grid,proof,serve} --seed N \\
        --seconds S --trace {0,1}

Each workload runs in a fresh worker process (``perfbench/worker.py``), so
its peak memory is its own.  With ``--trace 0`` the result holds the
end-to-end metrics of ``perfbench/spec.py``; ``setup_s`` is the median of
five set-ups, each in its own process so that each pays the import.  With
``--trace 1`` a separate, traced run reports the per-layer metrics and
writes its spans under ``.perfbench_trace/``.

The last line of standard output is the result::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

The run fails (non-zero exit, no result line) when the sources it measures
are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import spec  # noqa: E402

#: Set-up samples per untraced run: the measured run plus set-up-only runs.
SETUP_SAMPLES = 5

#: Every run must end within this many seconds.
DEADLINE_S = 175.0


def worker(args: list[str], timeout: float) -> tuple[dict, list[str]]:
    """Run one worker process; returns its report and diagnostic lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        out, err = "", "worker timed out"
    finally:
        # The worker's session also holds any server it started.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{err[-4000:]}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: corrupt a layer's results, shrink every round.
    parser.add_argument("--inject", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated run still stops its worker and server (see ``worker``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = time.monotonic()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    setups: list[float] = []
    try:
        if not args.trace:
            for sample in range(SETUP_SAMPLES - 1):
                report, _lines = worker(
                    common + ["--workdir", str(workdir / f"setup{sample}"),
                              "--setup-only"],
                    DEADLINE_S - (time.monotonic() - started),
                )
                setups.append(report["setup_s"])
        extra = ["--inject", args.inject] if args.inject else []
        report, lines = worker(
            common + ["--workdir", str(workdir / "run")] + extra,
            DEADLINE_S - (time.monotonic() - started),
        )
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if args.trace:
        values = report["layers"]
        units = {name: entry[0] for name, entry in spec.PER_LAYER.items()}
    else:
        setups.append(report["setup_s"])
        values = {"setup_s": statistics.median(setups), **report["metrics"]}
        units = {name: unit for name, unit, _b, _bound in spec.END_TO_END}
    for line in lines:
        print(line)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
