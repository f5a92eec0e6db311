"""Write ``reference.json``: the seed-0 values the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Records the first training-step losses of ``train-tiny`` and the batch-1
logits of the first pool image of the inference workloads. Re-record only
when the model's maths is meant to change, never to make a run pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, pin_blas_threads

pin_blas_threads()
sys.path.insert(0, str(ROOT / "src"))

from exmvit import train  # noqa: E402

import workloads  # noqa: E402

STEPS = 16


def main() -> int:
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        wl = workloads.TrainTiny(0, Path(tmp))
        wl.setup()
        model = wl.fresh_model()
        model.forward = workloads.StepClock(model.forward, max_steps=STEPS)
        losses: list[float] = []
        with workloads.recording_losses(losses):
            try:
                train.train_loop(model, wl.dataset, wl.config())
            except workloads.Stop:
                pass
        wl = workloads.Infer(1, 0, Path(tmp))
        wl.setup()
        logits = wl.request([0])[0][0]
    reference = {
        "train_losses": losses,
        "infer_logits": [float(v) for v in logits],
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}: {len(losses)} losses, {len(logits)} logits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
