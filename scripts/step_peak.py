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

Usage:
    python3 scripts/step_peak.py GRID LOSS [--batch 8] [--seed 0]
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
    code, charges a rise of the traced peak to the line that ran since the
    previous event. The peak is reset whenever the phase changes, so each
    phase's figure is its own."""

    def __init__(self):
        self.peaks: dict[str, tuple[int, tuple]] = {}
        self._phase: str | None = None
        self._stack: tuple = ()

    def __call__(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        if event in ("line", "return"):
            peak = tracemalloc.get_traced_memory()[1]
            phase = self._phase
            if phase is not None and peak > self.peaks.get(phase, (0,))[0]:
                self.peaks[phase] = (peak, self._stack)
            # after a return, the caller's line is the one that runs on
            self._stack = _stack(frame if event == "line" else frame.f_back)
            self._phase = _phase(self._stack)
            if self._phase != phase:
                tracemalloc.reset_peak()
        return self


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grid", type=_grid, help="N or XxYxZ")
    parser.add_argument("loss", choices=("mse", "ssim", "combined"))
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    model = ae.init_params(seed=args.seed)
    # a first step makes the process's one-off allocations (imports, caches)
    warm = np.zeros((1, 1, 8, 8, 8))
    ae.loss_and_gradients(model, warm, warm, args.loss)
    batch = np.random.default_rng(args.seed).uniform(size=(args.batch, 1, *args.grid))
    sites = PeakSites()
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
