"""One benchmark process: set up, then run the seven CLI stages in order.

Started by bench/run.py with BLAS threads pinned and `src` on PYTHONPATH.
It imports latentscope, writes the workload's config file, loads it back,
and marks the moment it is ready (CLOCK_MONOTONIC, comparable with the
parent's launch time). Then it calls `latentscope.cli.main` once per stage,
exactly as scripts/run_phantom_study.py does, and times each call. With
--setup-only it stops after the ready mark and reports the environment.
With --trace-file it wraps latentscope's public functions first (see
spans.py) and writes the spans to that file at the end.

The result is a JSON file written to --result.
"""

import argparse
import json
import resource
import sys
import traceback
from contextlib import nullcontext
from time import monotonic, perf_counter


def _call_stage(main, argv) -> int:
    """Exit code of one CLI call; an escaped exception counts as a failure."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '?')}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas_version(numpy),
            "scipy_blas": blas_version(scipy)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True, help="config file to write")
    parser.add_argument("--out", help="run directory")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    from latentscope.cli import main as run_stage
    from latentscope.config import load_config, write_config
    from latentscope.pipeline import STAGES
    from workloads import WORKLOADS, build_config

    write_config(build_config(WORKLOADS[args.workload], args.seed), args.config)
    load_config(args.config)
    result = {"ready": monotonic()}

    if args.setup_only:
        result["env"] = _environment()
    else:
        tracer = None
        if args.trace_file:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        stages = {}
        study_start = perf_counter()
        for stage in STAGES:
            argv = [stage, "--config", args.config, "--out", args.out,
                    "--seed", str(args.seed)]
            start = perf_counter()
            with tracer.span(f"stage.{stage}") if tracer else nullcontext():
                code = _call_stage(run_stage, argv)
            stages[stage] = {"s": perf_counter() - start, "code": code}
        result["study_s"] = perf_counter() - study_start
        result["stages"] = stages
        if tracer:
            tracer.write(args.trace_file)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
