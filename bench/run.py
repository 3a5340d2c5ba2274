"""Benchmark runner for latentscope: time the seven-stage study end to end.

Usage (from the repository root):
    python3 bench/run.py --workload study --seed 0 --seconds 10 --trace 0

Each study runs in a fresh child process (bench/child.py), one at a time: a
closed loop with one client. The child sees only the generated config file
and calls `latentscope.cli.main` for every stage into a fresh run directory.
Studies repeat until --seconds have been measured (at least one). Set-up
time is sampled from several extra set-up-only launches plus every study
launch, and reported as a median. With --trace 1 the run adds one traced
study of the same seed and reports per-layer metrics from its spans.

The parent pins itself, and so every child, to the lowest CPU it may use.

Every study is checked: all stages exit 0, repeats and the traced study
give the same run-directory digest (also across runs of one seed and the
same code in one checkout), and on workloads that carry the LRCP gate NOR_AD has more
significant LRCP cells than NOR_MCI. Scratch files go to .bench_build/ in
the checkout; spans go to .bench_build/traces/, outside every run directory.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
sys.path.insert(0, str(BENCH))

from spans import layer_metrics, missing_spans, read_spans  # noqa: E402
from workloads import WORKLOADS, subjects_trained, voxels, working_set_mb  # noqa: E402

BLAS_THREADS = 1
SETUP_LAUNCHES = 3
RUN_DEADLINE_S = 170.0
E2E_STAGES = ("train", "embed", "shap")
LAYER_STAGES = ("generate", "correlate", "lrcp", "report")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed gate)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(args: list[str], result: Path, deadline: float) -> dict:
    """Run bench/child.py once; adds `setup_s`, launch to ready mark."""
    result.unlink(missing_ok=True)
    start = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args,
             "--result", str(result)],
            env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError("child process ran past the run deadline") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"child process exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    out["setup_s"] = out["ready"] - start
    out["stderr"] = proc.stderr
    return out


def tree_digest(root: Path) -> str:
    """sha256 over (relative path, contents) of every file, in path order:
    equal digests mean byte-identical trees, as test_12 compares them."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(ln for ln in f if not ln.startswith("#")))


def significant_cells(run_dir: Path) -> dict[str, int]:
    totals: dict[str, int] = {}
    for row in read_rows(run_dir / "report" / "lrcp_summary.csv"):
        name = row["comparison"]
        totals[name] = totals.get(name, 0) + int(row["significant"])
    return totals


def run_study(spec, args, index: int, deadline: float, traced: bool) -> dict:
    tag = f"{args.workload}-seed{args.seed}"
    run_dir = WORK / "runs" / f"{tag}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--config", str(WORK / "configs" / f"{tag}.cfg"),
                  "--out", str(run_dir)]
    if traced:
        trace_file = WORK / "traces" / f"{tag}.jsonl"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        child_args += ["--trace-file", str(trace_file)]
    study = launch(child_args, WORK / f"{tag}.result.json", deadline)
    study["traced"] = traced
    study["digest"] = tree_digest(run_dir)
    work = 0
    for name, n in subjects_trained(spec).items():
        log = run_dir / "train" / name / "training_log.csv"
        epochs = len(read_rows(log)) if log.exists() else 0
        work += n * epochs * voxels(spec)
    study["train_vox"] = work
    if spec["lrcp_gate"] and (run_dir / "report" / "lrcp_summary.csv").exists():
        study["lrcp_significant"] = significant_cells(run_dir)
    if traced:
        study["spans"] = read_spans(str(trace_file))
    shutil.rmtree(run_dir, ignore_errors=True)
    return study


def check_gates(spec, args, studies: list[dict]) -> list[tuple[str, bool, str]]:
    """(gate, passed, detail) for every correctness check of this run."""
    gates = []
    for i, s in enumerate(studies):
        bad = {k: v["code"] for k, v in s["stages"].items() if v["code"] != 0}
        gates.append((f"study {i}: all stages exit 0", not bad, str(bad or "")))
        if spec["lrcp_gate"]:
            sig = s.get("lrcp_significant", {})
            ad, mci = sig.get("NOR_AD", 0), sig.get("NOR_MCI", 0)
            gates.append((f"study {i}: NOR_AD > NOR_MCI significant LRCP cells",
                          ad > mci, f"{ad} vs {mci}"))
        if s["traced"]:
            missing = missing_spans(s["spans"], spec)
            gates.append((f"study {i}: traced run reached every layer",
                          not missing, ", ".join(missing)))
    digests = [s["digest"] for s in studies]
    if len(studies) > 1:
        gates.append(("repeats and traced run are byte-identical",
                      len(set(digests)) == 1, " ".join(d[:12] for d in digests)))
    record = digest_record(args.workload, args.seed)
    if record.exists():
        earlier = record.read_text(encoding="utf-8").strip()
        gates.append(("digest equals earlier runs of this seed and code",
                      earlier == digests[0], earlier[:12]))
    elif all(ok for _, ok, _ in gates):
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(digests[0] + "\n", encoding="utf-8")
    return gates


def digest_record(workload: str, seed: int) -> Path:
    """Where the run-directory digest of a workload and seed is kept, keyed
    also by the code that produced it: the latentscope sources and the
    workload definitions. A change that alters float summation order then
    starts a record of its own instead of failing against its parent's."""
    h = hashlib.sha256()
    for root in (ROOT / "src" / "latentscope", BENCH):
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return WORK / "digests" / f"{workload}-seed{seed}-{h.hexdigest()[:16]}.sha256"


def cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def e2e_metrics(studies, setups) -> dict[str, tuple[float, str]]:
    plain = [s for s in studies if not s["traced"]]
    med = statistics.median
    m = {"setup_s": (med(setups), "s"),
         "study_s": (med(s["study_s"] for s in plain), "s")}
    for stage in E2E_STAGES:
        m[f"{stage}_s"] = (med(s["stages"][stage]["s"] for s in plain), "s")
    m["train_vox_per_s"] = (
        med(s["train_vox"] / s["stages"]["train"]["s"] for s in plain), "vox/s")
    m["peak_rss_mb"] = (med(s["maxrss_kb"] / 1024 for s in plain), "MB")
    return m


def per_layer_metrics(studies, fail_ratio) -> dict[str, tuple[float, str]]:
    plain = [s for s in studies if not s["traced"]]
    traced = [s for s in studies if s["traced"]][0]
    m = layer_metrics(traced["spans"])
    for stage in LAYER_STAGES:
        m[f"stage.{stage}_s"] = (
            statistics.median(s["stages"][stage]["s"] for s in plain), "s")
    m["trace.overhead_s"] = (
        traced["study_s"] - statistics.median(s["study_s"] for s in plain), "s")
    m["stage_fail_ratio"] = (fail_ratio, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole studies until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latentscope" / "__init__.py").is_file():
        print(f"bench: no latentscope sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2

    # The vCPUs of a shared host can run at different speeds; pinning every
    # child to one of them keeps a run from depending on where it landed.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    spec = WORKLOADS[args.workload]
    deadline = monotonic() + RUN_DEADLINE_S
    for sub in ("runs", "configs"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    setup_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--config", str(WORK / "configs" / f"{tag}.cfg"),
                  "--setup-only"]
    try:
        launches = [launch(setup_args, WORK / f"{tag}.result.json", deadline)
                    for _ in range(SETUP_LAUNCHES)]
        studies = []
        measure_start = monotonic()
        while not studies or monotonic() - measure_start < args.seconds:
            studies.append(run_study(spec, args, len(studies), deadline, False))
        if args.trace:
            studies.append(run_study(spec, args, len(studies), deadline, True))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env = dict(launches[0]["env"], blas_threads=BLAS_THREADS,
               nproc=os.cpu_count(), pinned_cpu=cpu, cpu=cpu_model(),
               caches=cache_sizes(), workload=args.workload, seed=args.seed,
               working_set=working_set_mb(spec))
    print("env " + json.dumps(env, sort_keys=True))

    gates = check_gates(spec, args, studies)
    stage_calls = sum(len(s["stages"]) for s in studies)
    stage_failures = sum(v["code"] != 0 for s in studies
                         for v in s["stages"].values())
    attempted = stage_calls + len(gates)
    failed = stage_failures + sum(not ok for _, ok, _ in gates)
    for i, s in enumerate(studies):
        times = " ".join(f"{k}={v['s']:.3f}" for k, v in s["stages"].items())
        print(f"study {i}{' (traced)' if s['traced'] else ''}: "
              f"study_s={s['study_s']:.3f} {times} digest={s['digest']}")
        if any(v["code"] != 0 for v in s["stages"].values()):
            print(s["stderr"][-2000:], file=sys.stderr)
    for name, ok, detail in gates:
        print(f"gate {'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip())
    print(f"stage_fail_ratio {failed / attempted:.4f} "
          f"({failed} failed of {attempted} stage calls and gates)")

    setups = [r["setup_s"] for r in launches + studies]
    if args.trace:
        metrics = per_layer_metrics(studies, failed / attempted)
    else:
        metrics = e2e_metrics(studies, setups)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
