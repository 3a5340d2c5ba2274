"""Self-test of the benchmark runner on the seconds-long `tiny` workload.

    python3 bench/selftest.py

Checks that bench/run.py emits every end-to-end metric (--trace 0) and every
per-layer metric (--trace 1) that BENCHMARK.json names, each with its unit,
and that each correctness gate fails when its condition is broken. Exits 0
when every check passes.
"""

import json
import shutil
import subprocess
import sys
from time import monotonic
from types import SimpleNamespace

import run
from spans import missing_spans

SEED = 3
GATE_SEED = 10**9  # digest record of the fabricated studies below
failures = []
recorded = []  # whether each failed_gates call left a digest record


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench_result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "tiny",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"--trace {trace} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{label}: correct, nothing failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{label}: emits exactly the declared metrics with units"
          + ("" if got == want else f" (missing {sorted(set(want) - set(got))},"
             f" extra {sorted(set(got) - set(want))},"
             f" unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])})"))
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{label}: every value is a number")


def failed_gates(studies, spec, earlier_digest=None) -> list[str]:
    """Failed gate names; `earlier_digest` plays a previous run's record."""
    record = run.digest_record("tiny", GATE_SEED)
    record.parent.mkdir(parents=True, exist_ok=True)
    record.unlink(missing_ok=True)
    if earlier_digest:
        record.write_text(earlier_digest + "\n")
    args = SimpleNamespace(workload="tiny", seed=GATE_SEED)
    try:
        return [name for name, ok, _ in run.check_gates(spec, args, studies)
                if not ok]
    finally:
        recorded.append(record.exists())
        record.unlink(missing_ok=True)


def study(**overrides) -> dict:
    base = {"stages": {s: {"s": 0.1, "code": 0} for s in ("generate", "report")},
            "traced": False, "digest": "a" * 64,
            "lrcp_significant": {"NOR_AD": 10, "NOR_MCI": 2}}
    base.update(overrides)
    return base


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(bench_result(0), declared["end_to_end"], "--trace 0")
    check_metrics(bench_result(1), declared["per_layer"], "--trace 1")

    spec = dict(run.WORKLOADS["tiny"], lrcp_gate=True)
    check(failed_gates([study(), study(traced=True, spans=[])], spec)
          == ["study 1: traced run reached every layer"],
          "on fabricated studies only the missing-span gate fails")
    check(failed_gates([study()], spec, earlier_digest="a" * 64) == [],
          "digest gate passes on a digest equal to an earlier run's")
    check(failed_gates([study()], spec, earlier_digest="b" * 64)
          == ["digest equals earlier runs of this seed and code"],
          "digest gate fires on a digest that differs from an earlier run's")
    check(failed_gates([study()], spec) == [] and recorded[-1],
          "a passing run records its digest")

    # A real stage failure: every CLI call exits 3 on a locked run directory.
    run_dir = run.WORK / "runs" / "selftest-locked"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "lock").write_text("held\n")
    locked = run.launch(["--workload", "tiny", "--seed", str(SEED),
                         "--config", str(run.WORK / "configs" / "selftest.cfg"),
                         "--out", str(run_dir)],
                        run.WORK / "selftest.result.json",
                        deadline=monotonic() + run.RUN_DEADLINE_S)
    codes = {v["code"] for v in locked["stages"].values()}
    check(codes == {3}, f"stages on a locked run directory exit 3 (got {codes})")
    check(any("all stages exit 0" in g for g in failed_gates(
        [study(stages=locked["stages"])], spec)), "stage exit gate fires")
    check(not recorded[-1], "a run with a failed stage records no digest")
    shutil.rmtree(run_dir)

    check(any("LRCP" in g for g in failed_gates(
        [study(lrcp_significant={"NOR_AD": 3, "NOR_MCI": 3})], spec)),
        "LRCP gate fires when NOR_AD does not beat NOR_MCI")
    check(any("byte-identical" in g for g in failed_gates(
        [study(), study(digest="c" * 64)], spec)),
        "digest gate fires when repeats differ")
    no_ssim = [{"id": 0, "name": "stage.train", "parent": None,
                "start": 0.0, "end": 1.0}]
    check("ssim.ssim3d_with_grad" in missing_spans(no_ssim, spec),
          "traced-run gate names a layer that was never reached")
    check(any("reached every layer" in g for g in failed_gates(
        [study(traced=True, spans=no_ssim)], spec)), "traced-run gate fires")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
