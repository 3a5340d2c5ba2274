"""Traced peak memory of one training step, phase by phase.

Runs `autoencoder.loss_and_gradients` once on a random batch (train mode,
seeded model) under tracemalloc, which numpy reports its buffers to, and
prints for each phase of the step (forward, loss, backward) the highest
traced memory reached while that phase ran, and the `latentscope` line
that was running when it was reached, with its latentscope callers. The
model and the batch exist before tracing starts, so they are not counted;
every array the step makes is.

GRID is one side (64) or three sides (121x145x121); LOSS is mse, ssim or
combined. A line-level tracer finds the sites, so the step runs a little
slower than in training; the sizes it reports do not depend on that.

The step's peak is often a band of near-tied sites, so --sites MIB also
lists, per phase, every site that reached MIB or more, highest first:
lowering one of them lowers the step's peak only down to the next. A site
is a latentscope line, with its latentscope callers, that raised the
traced memory by at least MIB / 1024 above the level it started at (a
line that only runs at the level the lines before it left is not one);
its figure is the highest traced memory while it ran.

Usage:
    python3 scripts/step_peak.py GRID LOSS [--batch 8] [--seed 0] [--sites MIB]
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from latentscope import autoencoder as ae  # noqa: E402

PACKAGE = str(SRC / "latentscope")
# the function whose frame marks each phase of loss_and_gradients
PHASES = {"forward": "forward", "_loss_impl": "loss", "backward": "backward"}


def _grid(text: str) -> tuple[int, int, int]:
    sides = [int(s) for s in text.lower().split("x")]
    if len(sides) == 1:
        sides *= 3
    if len(sides) != 3:
        raise argparse.ArgumentTypeError(f"grid {text!r} is not N or XxYxZ")
    return tuple(sides)


def _stack(frame) -> tuple:
    """(code, line) of `frame` and its latentscope callers, innermost first."""
    stack = []
    while frame is not None and frame.f_code.co_filename.startswith(PACKAGE):
        stack.append((frame.f_code, frame.f_lineno))
        frame = frame.f_back
    return tuple(stack)


def _phase(stack) -> str | None:
    """The phase whose autoencoder function is innermost on `stack`."""
    for code, _ in stack:
        if code.co_filename.endswith("autoencoder.py") and code.co_name in PHASES:
            return PHASES[code.co_name]
    return None


def _describe(stack) -> str:
    return " < ".join(f"{Path(code.co_filename).name}:{line} {code.co_name}"
                      for code, line in stack)


class PeakSites:
    """A trace function that, at each line or return event in latentscope
    code, charges the traced peak since the previous event to the line
    that ran in between (with its callers), then resets the peak, so each
    line's figure is the highest it reached itself. `peaks` keeps each
    phase's highest line as (size, stack); `sites` each phase's sites (see
    the module docstring) that reached `floor` bytes, by stack."""

    def __init__(self, floor: float = float("inf")):
        self.floor = floor
        self.peaks: dict[str, tuple[int, tuple]] = {}
        self.sites: dict[str, dict[tuple, int]] = {}
        self._phase: str | None = None
        self._stack: tuple = ()
        self._level = 0

    def __call__(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        if event in ("line", "return"):
            level, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            phase = self._phase
            if phase is not None and peak > self.peaks.get(phase, (0,))[0]:
                self.peaks[phase] = (peak, self._stack)
            if phase is not None and peak >= self.floor and peak - self._level >= self.floor / 1024:
                sites = self.sites.setdefault(phase, {})
                sites[self._stack] = max(peak, sites.get(self._stack, 0))
            self._level = level
            # after a return, the caller's line is the one that runs on
            self._stack = _stack(frame if event == "line" else frame.f_back)
            self._phase = _phase(self._stack)
        return self


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grid", type=_grid, help="N or XxYxZ")
    parser.add_argument("loss", choices=("mse", "ssim", "combined"))
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sites", type=float, metavar="MIB",
                        help="also list every site of each phase at or above MIB")
    args = parser.parse_args()

    model = ae.init_params(seed=args.seed)
    # a first step makes the process's one-off allocations (imports, caches)
    warm = np.zeros((1, 1, 8, 8, 8))
    ae.loss_and_gradients(model, warm, warm, args.loss)
    batch = np.random.default_rng(args.seed).uniform(size=(args.batch, 1, *args.grid))
    sites = PeakSites(float("inf") if args.sites is None else args.sites * 2**20)
    tracemalloc.start()
    sys.settrace(sites)
    try:
        ae.loss_and_gradients(model, batch, batch, args.loss)
    finally:
        sys.settrace(None)
        tracemalloc.stop()

    step = max(size for size, _ in sites.peaks.values())
    print(f"grid {'x'.join(map(str, args.grid))}, batch {args.batch}, "
          f"loss {args.loss}: step peak {step / 2**20:.1f} MiB")
    for phase in PHASES.values():
        size, stack = sites.peaks.get(phase, (0, ()))
        print(f"  {phase:<9} {size / 2**20:>8.1f} MiB  at {_describe(stack)}")
    if args.sites is not None:
        for phase in PHASES.values():
            band = sorted(sites.sites.get(phase, {}).items(), key=lambda item: -item[1])
            print(f"{phase} sites at or above {args.sites:g} MiB: {len(band)}")
            for site, size in band:
                print(f"  {size / 2**20:>8.1f} MiB  at {_describe(site)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
