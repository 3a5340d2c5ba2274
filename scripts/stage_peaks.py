"""Wall time and peak memory (ru_maxrss) of each pipeline stage, two ways.

one process   all seven stages run in order in one child process, as a
              script that calls `latentscope.cli.main` per stage does.
              After each stage the child reports the stage's wall time and
              its own ru_maxrss so far: a process's peak only grows, so a
              stage shows its own peak only where it raises the mark.
own process   each stage runs as its own `python -m latentscope <stage>`
              process, as the CLI runs them; its ru_maxrss comes from
              os.wait4 on that process alone, so every stage's peak,
              start-up and imports included, is its own.

The two modes write separate run directories under --out (`one-process/`
and `per-stage/`); --own-only runs the second mode alone, which halves
the time of a large probe such as scripts/paper_grid.cfg. BLAS threads
default to 1 in the children unless the environment sets them. Exits with
the first failing stage's exit code.

Usage:
    python3 scripts/stage_peaks.py --config CFG --out DIR [--own-only]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from latentscope.pipeline import STAGES  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def _stage_argv(stage: str, config: str, out: str) -> list[str]:
    return [stage, "--config", config, "--out", out]


def run_one_process(config: str, out: str) -> list[dict]:
    """Every stage in one child process (this script with --child)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", "--config", config, "--out", out],
        env=_child_env(), stdout=subprocess.PIPE, text=True, check=False)
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def run_own_processes(config: str, out: str) -> list[dict]:
    """Each stage in its own `python -m latentscope` process, measured with
    os.wait4; stops after the first failing stage."""
    rows = []
    for stage in STAGES:
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "latentscope",
             *_stage_argv(stage, config, out)],
            env=_child_env(), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        rows.append({"stage": stage, "s": perf_counter() - start,
                     "maxrss_kb": usage.ru_maxrss, "code": child.returncode})
        if child.returncode:
            break
    return rows


def _child(config: str, out: str) -> int:
    """The one-process mode's child: one JSON line per stage."""
    from latentscope.cli import main as run_stage

    for stage in STAGES:
        start = perf_counter()
        code = run_stage(_stage_argv(stage, config, out))
        print(json.dumps({
            "stage": stage, "s": perf_counter() - start, "code": code,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}),
            flush=True)
        if code:
            return code
    return 0


def _failure(rows: list[dict]) -> int:
    """The first failing stage's exit code; 1 if a stage never reported."""
    codes = [r["code"] for r in rows if r["code"]]
    return codes[0] if codes else int(len(rows) < len(STAGES))


def _print_table(title: str, rows: list[dict], peak_label: str) -> None:
    print(f"{title}\n  {'stage':<10} {'wall s':>8} {peak_label:>16}  exit")
    for r in rows:
        print(f"  {r['stage']:<10} {r['s']:>8.3f} "
              f"{r['maxrss_kb'] / 1024:>16.1f}  {r['code']}")
    print(f"  {'total':<10} {sum(r['s'] for r in rows):>8.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="pipeline config file")
    parser.add_argument("--out", required=True,
                        help="parent of the run directories (one per mode)")
    parser.add_argument("--own-only", action="store_true",
                        help="run each stage in its own process only")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return _child(args.config, args.out)

    one = []
    if not args.own_only:
        one = run_one_process(args.config, os.path.join(args.out, "one-process"))
        _print_table("all stages in one process", one, "peak so far MB")
    own = run_own_processes(args.config, os.path.join(args.out, "per-stage"))
    _print_table("each stage in its own process", own, "peak MB")
    return (_failure(one) if one else 0) or _failure(own)


if __name__ == "__main__":
    sys.exit(main())
