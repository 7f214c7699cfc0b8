"""The three workloads: their configs, set-up, and one measured round each.

Every workload is a closed loop in one process: the next call starts when the
previous one returns. A round is a fixed amount of work, so its results (the
quality guards) repeat bit for bit from round to round and from run to run
of one seed; only the time it takes varies.

Entry points used: training.generate_datasets, load_split, train_loop,
eval_run and orientation_run. The round's timings come from the `Clock`
hooks, which see inside those calls.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from cvloc import evaluation, training
from cvloc.config import load_config
from cvloc.errors import CvlocError

WORKLOADS = ("train-dense", "train-cvr", "infer-orient")

# Each workload runs on the desk geometry of its acceptance config.
CONFIG_FILE = {
    "train-dense": "desk.cfg",
    "train-cvr": "desk_cvr.cfg",
    "infer-orient": "desk.cfg",
}

# The geometry of tests/conftest.py::mini_model_config, for the smoke test.
MINI_GEOMETRY = {
    "model.L": 16,
    "model.L_feat": 2,
    "model.N": 2,
    "model.C": 8,
    "model.K": 2,
    "model.ground_h": 8,
    "model.ground_w": 16,
    "model.decoder_stages": 3,
}

# Data sizes and epochs of one round. Desk sizes keep a round near one second
# on one core, so a run holds tens of rounds and thousands of per-sample
# timings. For infer-orient, train.epochs is
# the short set-up training that produces the evaluated checkpoint.
SIZES = {
    "desk": {
        "train-dense": {"data.train": 64, "data.val": 16, "data.test": 8, "train.epochs": 1},
        "train-cvr": {"data.train": 256, "data.val": 16, "data.test": 8, "train.epochs": 1},
        "infer-orient": {
            "data.train": 32,
            "data.val": 16,
            "data.test": 256,
            "train.epochs": 1,
            "eval.orient_samples": 8,
        },
    },
    "mini": {
        "train-dense": {"data.train": 8, "data.val": 4, "data.test": 4, "train.epochs": 1},
        "train-cvr": {"data.train": 16, "data.val": 4, "data.test": 4, "train.epochs": 1},
        "infer-orient": {
            "data.train": 8,
            "data.val": 4,
            "data.test": 8,
            "train.epochs": 1,
            "eval.orient_samples": 2,
        },
    },
}

SHIFTS_PER_SAMPLE = 5  # heading shifts of orientation_run's perturbation test


@dataclass
class Setup:
    cfg: object
    checkpoint: str
    setup_s: float
    gen_s: float
    n_generated: int
    fingerprint: str  # sha256 over the reloaded dataset and the checkpoint


@dataclass
class Round:
    guards: dict  # quality numbers that must repeat exactly
    attempted: int
    failed: int
    samples: int  # base of the per-sample per-layer metrics
    fb_samples: int = 0  # training samples through forward + backward
    epochs: int = 0
    per_sample_ms: list = field(default_factory=list)  # model time per sample
    # Start-to-start intervals of consecutive samples, one array per stretch
    # without other work in between (an epoch's training steps, an eval pass).
    intervals_ms: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)  # ungated per-round figures
    checks: list = field(default_factory=list)


def _intervals(forwards):
    """Start-to-start intervals (ms) of consecutive forwards; the last one
    runs to the end of its forward."""
    starts = [t for t, _ in forwards]
    return np.diff(starts + [forwards[-1][0] + forwards[-1][1] / 1e3]) * 1e3


def _fingerprint(cfg, ckpt_path) -> str:
    h = hashlib.sha256()
    for split in training.SPLITS:
        for s in training.load_split(cfg, split):
            h.update(s.ground.tobytes())
            h.update(s.satellite.tobytes())
            h.update(repr((s.gt_pixel, s.heading, s.kind)).encode())
    with open(ckpt_path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


class Workload:
    """One named workload at one seed and geometry."""

    def __init__(self, name: str, root: str, seed: int, geometry: str, clock):
        self.name = name
        self.clock = clock
        base = load_config(os.path.join(root, "configs", CONFIG_FILE[name]))
        overrides = {"seed": seed, **SIZES[geometry][name]}
        if geometry == "mini":
            overrides.update(MINI_GEOMETRY)
        self.cfg = base.with_overrides(overrides)
        self.stages = self.cfg["model.decoder_stages"]

    def setup(self, work_dir: str) -> Setup:
        """Generate, write and reload the dataset, then initialize the model
        and write the set-up checkpoint: the initial parameters for the
        training workloads, a short dense training run for infer-orient."""
        cfg = self.cfg.with_overrides(
            {"data.dir": os.path.join(work_dir, "data"), "run.dir": os.path.join(work_dir, "run")}
        )
        t0 = perf_counter()
        training.generate_datasets(cfg)
        gen_s = perf_counter() - t0
        splits = {split: training.load_split(cfg, split) for split in training.SPLITS}
        setup_cfg = cfg if self.name == "infer-orient" else cfg.with_overrides({"train.epochs": 0})
        ckpt = training.train_loop(setup_cfg, os.path.join(work_dir, "setup-run"))["best"]
        setup_s = perf_counter() - t0

        L, gh, gw = cfg["model.L"], cfg["model.ground_h"], cfg["model.ground_w"]
        for split, key in zip(training.SPLITS, ("data.train", "data.val", "data.test")):
            samples = splits[split]
            self.clock.check(f"{split} split reloads {cfg[key]} samples", len(samples) == cfg[key])
            self.clock.check(
                f"{split} split geometry",
                all(s.satellite.shape == (3, L, L) and s.ground.shape == (3, gh, gw) for s in samples),
            )
        n = sum(cfg[k] for k in ("data.train", "data.val", "data.test"))
        return Setup(cfg, ckpt, setup_s, gen_s, n, _fingerprint(cfg, ckpt))

    def run_round(self, setup: Setup, work_dir: str) -> Round:
        self.clock.reset()
        if self.name == "infer-orient":
            return self._infer_round(setup, work_dir)
        return self._train_round(setup, work_dir)

    def _train_round(self, setup: Setup, work_dir: str) -> Round:
        cfg, clock = setup.cfg, self.clock
        n_train, epochs = cfg["data.train"], cfg["train.epochs"]
        steps_per_epoch = math.ceil(n_train / max(1, cfg["train.batch"]))
        steps = steps_per_epoch * epochs
        t0 = perf_counter()
        try:
            result = training.train_loop(cfg, os.path.join(work_dir, "train"))
        except CvlocError as exc:
            # train_loop raises E_NUMERIC on a non-finite loss: the step it
            # was in and every later one failed.
            return Round(
                {}, steps, steps - len(clock.step_ends), n_train * epochs,
                checks=[(f"train_loop raised {exc.prefix}: {exc}", False)],
            )
        wall = perf_counter() - t0

        history = result["history"]
        checks = [
            ("every training loss is finite", not clock.bad_steps),
            ("every validation heat map is a probability map", clock.bad_val_maps == 0),
            ("one forward+backward per training sample", len(clock.fb_ms) == n_train * epochs),
            ("one adam_step per batch", len(clock.step_ends) == steps),
            ("epoch losses finite", all(math.isfinite(h[1]) for h in history)),
            ("validation medians finite", all(math.isfinite(h[2]) for h in history)),
        ]
        train_s = 0.0
        step_ms, intervals = [], []
        for e in range(epochs):
            ends = clock.step_ends[e * steps_per_epoch : (e + 1) * steps_per_epoch]
            starts = clock.sample_starts[e * n_train : (e + 1) * n_train]
            train_s += ends[-1] - starts[0]
            step_ms.extend(np.diff(ends) * 1e3)
            intervals.append(np.diff(starts + ends[-1:]) * 1e3)
        rate = n_train * epochs / train_s
        return Round(
            guards={"loss_last": history[-1][1], "val_median_px": history[-1][2]},
            attempted=steps,
            failed=len(clock.bad_steps),
            samples=n_train * epochs,
            fb_samples=n_train * epochs,
            epochs=epochs,
            per_sample_ms=list(clock.fb_ms),
            intervals_ms=intervals,
            detail={
                "epoch_s": wall / epochs,
                "train_samples_per_s": rate,
                "step_ms": step_ms,
                "fb_ms": list(clock.fb_ms),
            },
            checks=checks,
        )

    def _infer_round(self, setup: Setup, work_dir: str) -> Round:
        cfg, clock = setup.cfg, self.clock
        out_dir = os.path.join(work_dir, "eval")
        n_rot = cfg["eval.orient_n"]
        try:
            clock.phase = "eval"
            t0 = perf_counter()
            reports = training.eval_run(cfg, setup.checkpoint, out_dir)
            eval_s = perf_counter() - t0
            clock.phase = ""
            t1 = perf_counter()
            orient = training.orientation_run(cfg, setup.checkpoint, out_dir)
            orient_s = perf_counter() - t1
        except CvlocError as exc:
            clock.phase = ""
            attempted = max(1, len(clock.eval_forwards) + len(clock.orient_forwards))
            return Round(
                {}, attempted, attempted, 0,
                checks=[(f"eval/orientation raised {exc.prefix}: {exc}", False)],
            )
        evals, orients = clock.eval_forwards, clock.orient_forwards
        n_eval = len(reports["dense"].records)
        n_orient = min(cfg["eval.orient_samples"], n_eval)
        checks = [
            ("one forward per evaluated test sample", len(evals) == n_eval),
            (
                "orientation forwards: n_rot hypotheses + heading shifts per sample",
                len(orients) == n_orient * (n_rot + SHIFTS_PER_SAMPLE),
            ),
        ]
        for name, rep in reports.items():
            parsed = evaluation.parse_report(os.path.join(out_dir, f"{name}_report.txt"))
            expected = {
                "samples": len(rep.records),
                "mean_err_m": rep.mean_err_m,
                "median_err_m": rep.median_err_m,
            }
            if rep.prob_at_gt_mean is not None:
                expected["prob_at_gt_mean"] = rep.prob_at_gt_mean
                expected["prob_at_gt_median"] = rep.prob_at_gt_median
            checks.append(
                (
                    f"{name}_report.txt parses back to the returned numbers",
                    all(parsed.get(k) == v for k, v in expected.items()),
                )
            )
        return Round(
            guards={
                "test_median_m": reports["dense"].median_err_m,
                "orient_accuracy": orient["accuracy"],
            },
            attempted=len(evals) + len(orients),
            failed=clock.bad_eval_maps + clock.bad_orient,
            samples=n_eval + n_orient,
            per_sample_ms=[ms for _, ms in evals + orients],
            intervals_ms=[_intervals(evals), _intervals(orients)],
            detail={
                "eval_samples_per_s": n_eval / eval_s,
                "forward_ms": [ms for _, ms in evals],
                "orient_s": orient_s,
            },
            checks=checks,
        )
