"""Closed-loop benchmark of msrnas search and evaluation training.

One process calls the public training API (``train.run_search`` or
``train.run_eval`` on a config from ``config.config_from_text``) again and
again, each call starting after the previous one returned, until the run's
time is used up. Each call runs in a forked child, so that it starts from the
same process state as the first. The untraced loop reads the clock at two
places only: when the training batch generator is asked for a batch and when
the optimizer step returns. Those reads split each call into set-up, steps
and epoch ends.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import pickle
import platform
import signal
import shutil
import sys
import traceback
from dataclasses import dataclass
from statistics import median

import numpy as np

from msrnas import config, derive, train

import checks
from spans import Tracer, clock, layer_metrics, save_spans, spectral_rank_checkpoint_work

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"
MIN_CALLS = 2
# Traced steps must be covered by the data/adjust/forward/backward/SGD spans
# to within this share; the rest is loss, zero_grad and loop bookkeeping.
COVERAGE_TOL = 0.05


@dataclass(frozen=True)
class Workload:
    """One training shape. ``samples_per_class`` x 4 classes make the corpus;
    search splits 80/20 into train/validation, eval uses it all for training."""

    name: str
    kind: str  # "search" or "eval"
    cells: int
    nodes: int
    channels: int
    px: int
    batch: int
    samples_per_class: int
    test_samples_per_class: int = 2
    epochs: int = 1
    augment: bool = False
    genotype: str | None = None  # file next to this module, eval only

    def config_text(self, seed: int) -> str:
        return "\n".join([
            f"net.cells = {self.cells}",
            f"net.nodes = {self.nodes}",
            f"net.channels = {self.channels}",
            f"data.height = {self.px}",
            f"data.width = {self.px}",
            "data.classes = 4",
            f"data.samples_per_class = {self.samples_per_class}",
            f"data.test_samples_per_class = {self.test_samples_per_class}",
            f"data.augment = {'true' if self.augment else 'false'}",
            f"data.seed = {seed}",
            f"data.test_seed = {seed + 1}",
            f"split.seed = {seed}",
            f"spectral.seed = {seed}",
            f"run.seed = {seed}",
            f"train.batch_size = {self.batch}",
            f"train.epochs = {self.epochs}",
        ]) + "\n"

    def planned_steps(self, cfg) -> int:
        corpus = 4 * self.samples_per_class
        n_train = (int(float(cfg["split.train_fraction"]) * corpus)
                   if self.kind == "search" else corpus)
        return self.epochs * math.ceil(n_train / self.batch)


# Sizes are chosen so that a call takes 3-13 seconds on 2 cores, giving three
# or more set-ups per run, and so that short epochs spread step and epoch-end
# samples over the whole run; NOTES.md gives the why.
WORKLOADS = {
    "search-batch": Workload("search-batch", "search", cells=3, nodes=5, channels=8,
                             px=16, batch=64, samples_per_class=20, epochs=2),
    "eval-discrete": Workload("eval-discrete", "eval", cells=8, nodes=7, channels=16,
                              px=16, batch=16, samples_per_class=8,
                              test_samples_per_class=8, epochs=1, augment=True,
                              genotype="genotype_min_7node.json"),
}
# The smoke check's shape: the test suite's tiny config.
TINY = Workload("tiny", "search", cells=3, nodes=5, channels=4, px=10, batch=8,
                samples_per_class=5)


class Recorder:
    """Clock hooks on ``train.batches`` and ``train.sgd_momentum_step``."""

    def __init__(self):
        self.tracer: Tracer | None = None
        self.reset()

    def reset(self) -> None:
        self.step_starts: list[float] = []
        self.step_ends: list[float] = []
        self.samples: list[int] = []
        self.epoch_first_step: list[int] = []

    def install(self) -> None:
        self._batches_orig = train.batches
        self._sgd_orig = train.sgd_momentum_step
        train.batches = self._batches
        train.sgd_momentum_step = self._sgd

    def uninstall(self) -> None:
        train.batches = self._batches_orig
        train.sgd_momentum_step = self._sgd_orig

    def _batches(self, *args, **kwargs):
        it = self._batches_orig(*args, **kwargs)
        if kwargs.get("shuffle_seed") is None:  # validation or test pass
            yield from it
            return
        self.epoch_first_step.append(len(self.step_starts))
        tracer = self.tracer
        data_id = tracer.name_id("data.batches") if tracer else -1
        while True:
            t0 = clock()
            span = tracer.open(data_id) if tracer else -1
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if tracer:
                    tracer.close(span)
            self.step_starts.append(t0)
            self.samples.append(len(item[1]))
            yield item

    def _sgd(self, *args, **kwargs):
        out = self._sgd_orig(*args, **kwargs)
        self.step_ends.append(clock())
        return out

    def windows(self, t_call: float, t_return: float) -> dict:
        """Set-up time, step windows and epoch-end windows of one call."""
        steps = list(zip(self.step_starts, self.step_ends))
        firsts = [f for f in self.epoch_first_step if f < len(steps)]
        epoch_ends = []
        for k, first in enumerate(firsts):
            last = (firsts[k + 1] if k + 1 < len(firsts) else len(steps)) - 1
            end = self.step_starts[firsts[k + 1]] if k + 1 < len(firsts) else t_return
            epoch_ends.append((self.step_ends[last], end))
        return {
            "setup": (self.step_starts[0] - t_call) if steps else None,
            "steps": steps,
            "samples": sum(self.samples[:len(steps)]),
            "epoch_ends": epoch_ends,
        }


def _blas_threads() -> int | None:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "MSRNAS_THREADS": os.environ.get("MSRNAS_THREADS"),
    }


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def _search_genotype_text(run: train.RunDir, epochs: int) -> bytes:
    table = derive.load_rank_table(run.rank_table_path(epochs))
    return derive.derive_genotype(table).to_json_str().encode()


def _digest_check(digests: list[str]) -> checks.Check:
    """Artifacts agree across the calls of this run (at least MIN_CALLS)."""
    same = len(digests) >= MIN_CALLS and len(set(digests)) == 1
    return "deterministic_artifacts", same, f"{len(digests)} calls, {len(set(digests))} digests"


def _forked_call(wl: Workload, cfg, genotype, run_root: str, recorder: Recorder,
                 tracer: Tracer | None) -> tuple[dict, Tracer | None]:
    """Run one training call in a forked child and wait for it to end.

    Every call then starts from the same process state, as one ``msrnas``
    command would: no heap, garbage or allocator state left by earlier calls.
    The child sends back its step windows and, when traced, the tracer with
    its spans added. ``peak_rss_bytes`` is the child's ``ru_maxrss``.
    """
    out_path = run_root + ".result"
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            recorder.reset()
            recorder.tracer = tracer
            recorder.install()
            if tracer:
                tracer.install()
            error = None
            t_call = clock()
            try:
                if wl.kind == "search":
                    train.run_search(cfg, run_root)
                else:
                    train.run_eval(cfg, genotype, run_root)
            except Exception as exc:  # a failed call counts its unfinished steps
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            finally:
                t_return = clock()
                if tracer:
                    tracer.uninstall()
                recorder.uninstall()
            call = recorder.windows(t_call, t_return)
            call.update(error=error, duration=t_return - t_call)
            with open(out_path, "wb") as fh:
                pickle.dump((call, tracer), fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status == 0 and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            call, tracer = pickle.load(fh)
        os.remove(out_path)
    else:
        call = {"setup": None, "steps": [], "samples": 0, "epoch_ends": [], "duration": 0.0,
                "error": f"call process ended with wait status {status}"}
        tracer = None
    call["peak_rss_bytes"] = usage.ru_maxrss * 1024
    return call, tracer


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool,
                  root: str) -> dict:
    """Run ``wl`` for about ``seconds`` and return metrics, checks and details."""
    cfg = config.config_from_text(wl.config_text(seed))
    genotype = None
    extra = b""
    if wl.kind == "eval":
        with open(os.path.join(HERE, wl.genotype), encoding="utf-8") as fh:
            extra = fh.read().encode()
        genotype = derive.Genotype.from_json_str(extra.decode())
    env = environment()
    work_root = os.path.join(root, WORK_DIR)
    work = os.path.join(work_root, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    recorder = Recorder()
    tracer = Tracer() if trace else None
    planned = wl.planned_steps(cfg)
    calls: list[dict] = []
    run_checks: list[checks.Check] = []
    try:
        deadline = clock() + seconds
        last_ok: str | None = None
        while True:
            index = len(calls)
            traced = trace and index % 2 == 0
            run_root = os.path.join(work, f"call{index}")
            call, traced_state = _forked_call(wl, cfg, genotype, run_root, recorder,
                                              tracer if traced else None)
            if traced_state is not None:
                tracer = traced_state
            error = call["error"]
            call.update(traced=traced, planned=planned, run_dir_bytes=_dir_bytes(run_root))
            if error is None:
                run = train.RunDir(run_root)
                if wl.kind == "search":
                    extra = _search_genotype_text(run, wl.epochs)
                call["digest"] = checks.run_digest(run, extra)
                if last_ok is not None:
                    shutil.rmtree(last_ok, ignore_errors=True)
                last_ok = run_root
            else:
                shutil.rmtree(run_root, ignore_errors=True)
            calls.append(call)
            if len(calls) >= MIN_CALLS and clock() + call["duration"] > deadline:
                break
        warm_sigma_gap = 0.0  # eval-discrete has no spectral handles
        if last_ok is not None:
            run = train.RunDir(last_ok)
            if wl.kind == "search":
                search_checks, warm_sigma_gap = checks.search_checks(run, wl.epochs)
                run_checks += search_checks
            else:
                run_checks += checks.eval_checks(run)
        run_checks.append(_digest_check([c["digest"] for c in calls if "digest" in c]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [c for c in calls if not c["traced"]]
    traced_calls = [c for c in calls if c["traced"]]
    steps_attempted = sum(c["planned"] for c in calls)
    steps_done = sum(len(c["steps"]) for c in calls if c["error"] is None)
    step_times = [e - s for c in plain for s, e in c["steps"]]
    step_total = sum(step_times)
    end_to_end = {
        "setup_s": (median([c["setup"] for c in plain if c["setup"] is not None] or [0.0]), "s"),
        "step_s_p50": (median(step_times or [0.0]), "s"),
        "samples_per_s": ((sum(c["samples"] for c in plain) / step_total
                           if step_total else 0.0), "samples/s"),
        "epoch_end_s": (median([e - s for c in plain for s, e in c["epoch_ends"]] or [0.0]),
                        "s"),
        "peak_rss_mb": (median([c["peak_rss_bytes"] for c in plain]) / 1e6, "MB"),
        "run_dir_mb": (median([c["run_dir_bytes"] for c in plain]) / 1e6, "MB"),
        "step_fail_frac": ((steps_attempted - steps_done) / steps_attempted, "ratio"),
    }
    result = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "calls": len(calls),
        "steps_timed": len(step_times),
        "step_times": step_times,
        "setup_times": [c["setup"] for c in plain],
        "end_to_end": end_to_end,
        "warm_sigma_gap": warm_sigma_gap,
    }
    if trace:
        t_steps = [s for c in traced_calls for s in c["steps"]]
        t_epoch_ends = [w for c in traced_calls for w in c["epoch_ends"]]
        layers = layer_metrics(tracer, t_steps, t_epoch_ends)
        traced_p50 = median([e - s for s, e in t_steps] or [0.0])
        layers["trace.overhead_s"] = (traced_p50 - end_to_end["step_s_p50"][0], "s/step")
        layers["spectral.warm_sigma_gap"] = (warm_sigma_gap, "ratio")
        result["per_layer"] = layers
        coverage = layers["trace.step_coverage"][0]
        run_checks.append(("trace_step_coverage", abs(coverage - 1.0) <= COVERAGE_TOL,
                           f"top-level step spans cover {coverage:.4f} of step time"))
        if wl.kind == "eval":
            bypassed = spectral_rank_checkpoint_work(tracer)
            run_checks.append(("bypass_no_spectral_work", bypassed == 0.0,
                               f"{bypassed:.6f} s in spectral/rank/checkpoint spans"))
        traces = os.path.join(work_root, "traces")
        os.makedirs(traces, exist_ok=True)
        save_spans(tracer, os.path.join(traces, f"{wl.name}-seed{seed}.npz"))
    failed_checks = sum(1 for _, ok, _ in run_checks if not ok)
    result["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in run_checks]
    result["correct"] = failed_checks == 0 and steps_done == steps_attempted
    result["attempted"] = steps_attempted + len(run_checks)
    result["failed"] = (steps_attempted - steps_done) + failed_checks
    results = os.path.join(work_root, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{wl.name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result
