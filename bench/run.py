#!/usr/bin/env python3
"""Benchmark: seeded WAV -> transcript workloads through `sparse_rnnt.cli decode`.

Run from the root of a checkout:

    python3 bench/run.py --workload clips5s-dense-sat --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0

Each run builds its inputs from the seed in a scratch directory under
`bench/work/`, then starts every measured program as a fresh,
single-threaded process. `--trace 0` measures the end-to-end metrics
on untraced processes; `--trace 1` adds traced processes (see
`tracer.py`) and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See `bench/README.md` for the metric table and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import wave
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from tracer import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
TRACER = BENCH_DIR / "tracer.py"
REFERENCES = BENCH_DIR / "references.json"

SAMPLE_RATE = 16000
NOISE_SIGMA = 0.1
QUIET_GAIN = 1e-3
MODEL_SEED = 7
# +1.5 on the blank logit flips the desk-scale model from emitting the
# expansion cap on every frame to emitting nothing; the flip lies between
# +1.16 and +1.2, so both regimes are guarded by the transcript checks.
BLANK_BIAS = 1.5
MAX_SYMBOLS = 5  # the decoder's per-frame expansion cap
T_SIL = 15  # CLI default; SRS fires on the 16th consecutive all-blank frame
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_REPS = 9
CHILD_TIMEOUT_S = 120.0
MB = 1e6
# The CPUs of a shared host swing between a fast and a slow speed (up to
# 1.8x apart, on sub-second to minute time scales), which moves raw wall
# times of identical runs by 25 %. While a child runs, a thread of the
# benchmark on the same CPU times a fixed ~1 ms probe every PROBE_EVERY_S,
# and each time is scaled by PROBE_REF_S / (mean probe time): the time the
# child would take on a CPU where the probe takes exactly PROBE_REF_S.
PROBE_EVERY_S = 0.05
PROBE_REF_S = 1e-3
PROBE_ITERS = 200
PROBE_W = np.random.default_rng(0).normal(size=(16, 64)) * 0.1

# name, unit, better, bound
END_TO_END = [
    ("rtf", "s/s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
]

# name, unit
PER_LAYER = [
    ("frontend.read_s", "s"),
    ("frontend.logmel_s", "s"),
    ("frontend.frames", "count"),
    ("segmentation.time_s", "s"),
    ("segmentation.segments", "count"),
    ("encoder.time_s", "s"),
    ("encoder.subsample_s", "s"),
    ("encoder.block_self_s", "s"),
    ("encoder.frames", "count"),
    ("encoder.diag_mb", "MB"),
    ("attention.time_s", "s"),
    ("attention.calls", "count"),
    ("attention.rows", "count"),
    ("transducer.time_s", "s"),
    ("transducer.search_self_s", "s"),
    ("transducer.lstm_steps", "count"),
    ("transducer.lstm_s", "s"),
    ("transducer.joint_calls", "count"),
    ("transducer.joint_s", "s"),
    ("transducer.beam_steps", "count"),
    ("transducer.srs_resets", "count"),
    ("transducer.tokens", "count"),
    ("transducer.lstm_steps_per_frame", "1/frame"),
    ("transducer.joint_calls_per_frame", "1/frame"),
    ("transducer.tokens_per_frame", "1/frame"),
    ("pipeline.utt_s", "s"),
    ("pipeline.self_s", "s"),
    ("model_io.load_s", "s"),
    ("cli.wall_s", "s"),
    ("cli.cpu_s", "s"),
    ("cli.cpu_util", "ratio"),
    ("cli.probe_speed", "ratio"),
    ("trace.overhead", "ratio"),
]
UNITS = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
# per-layer metrics read from the trace; the rest come from process rusage
TRACED_METRICS = [n for n, _ in PER_LAYER if not n.startswith(("cli.", "trace."))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str  # "sat" or "blank"
    utterances: tuple[str, ...]
    seconds: float  # length of each utterance
    bursts: bool  # 3 s of noise then 1 s near-silence, repeated
    flags: tuple[str, ...]
    chars_per_utt: int  # transcript length the regime implies

    @property
    def audio_s(self) -> float:
        return self.seconds * len(self.utterances)


WORKLOADS = {w.name: w for w in [
    Workload(
        "clips5s-dense-sat",
        "four 5 s clips, dense beam 4, saturated model: beam search is ~95 % of "
        "wall and attention is nearly bypassed; the only multi-file workload",
        "sat", ("clip0", "clip1", "clip2", "clip3"), 5.0, False,
        ("--mask", "dense", "--beam", "4", "--no-srs", "--segmentation", "none"),
        MAX_SYMBOLS * 123,  # 123 encoder frames in a 5 s clip
    ),
    Workload(
        "long80s-local-blank",
        "one 80 s utterance, local beam 1 SRS, blank model: the long-form local "
        "case, with the T'xT' attention state and a decoder at its floor",
        "blank", ("long",), 80.0, False,
        ("--mask", "local", "--beam", "1", "--srs", "--segmentation", "none"),
        0,
    ),
    Workload(
        "doi60s-sgm3-blank",
        "60 s of noise bursts, local+sgm3 beam 4 SRS doi:20, blank model: "
        "re-encoded overlaps, global masks and prune-only beam rounds",
        "blank", ("bursts",), 60.0, True,
        ("--mask", "local+sgm3", "--beam", "4", "--srs", "--segmentation", "doi:20"),
        0,
    ),
]}


def spec() -> dict:
    """The contents of BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 40,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n in ("cli.cpu_util", "cli.probe_speed")
                       else "lower"}
                      for n, u in PER_LAYER],
    }


# ---------------------------------------------------------------- inputs

@dataclass
class Inputs:
    models: dict[str, Path]  # "sat" / "blank" -> model file
    wavs: list[Path]


def _write_pcm16(path: Path, samples: np.ndarray) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def _audio(wl: Workload, seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    x = rng.normal(0.0, NOISE_SIGMA, int(wl.seconds * SAMPLE_RATE))
    if wl.bursts:
        t = np.arange(x.size) / SAMPLE_RATE
        x[(t % 4.0) >= 3.0] *= QUIET_GAIN
    return x


def build_inputs(wl: Workload, seed: int, workdir: Path) -> Inputs:
    """Write both model files and the workload's WAVs; same seed, same bytes."""
    from sparse_rnnt.model_io import ModelConfig, random_model, save_model

    model = random_model(ModelConfig.desk_scale(), MODEL_SEED)
    models = {"sat": workdir / "sat.model", "blank": workdir / "blank.model"}
    save_model(model, models["sat"])
    model.joint.out_bias[model.config.vocab.blank_id] += BLANK_BIAS
    save_model(model, models["blank"])
    wavs = []
    for i, utt in enumerate(wl.utterances):
        path = workdir / f"{utt}.wav"
        _write_pcm16(path, _audio(wl, seed, i))
        wavs.append(path)
    return Inputs(models, wavs)


# ------------------------------------------------------------- processes

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_once() -> float:
    """Seconds for a fixed mix of interpreter and small-matrix work."""
    x = np.zeros(16)
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERS):
        z = np.tanh(x @ PROBE_W)
        x = 0.5 * (z[:16] + z[16:32])
    return time.perf_counter() - t0


class Probe:
    """Probe times taken on this CPU, every PROBE_EVERY_S, while in the block."""

    def __enter__(self):
        self.times = [probe_once()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self):
        while not self._stop.wait(PROBE_EVERY_S):
            self.times.append(probe_once())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        """PROBE_REF_S over the mean probe time, the slowest tenth dropped
        (a probe the child preempted)."""
        kept = sorted(self.times)[:max(1, len(self.times) * 9 // 10)]
        return PROBE_REF_S / (sum(kept) / len(kept))


@dataclass
class Proc:
    code: int
    wall_s: float  # as measured
    ref_s: float  # wall_s at the probe's reference speed
    cpu_s: float
    rss_mb: float
    stderr: str


def run_process(argv: list[str], workdir: Path) -> Proc:
    """Run one fresh process to completion; wall from the parent, rusage from wait4."""
    err_path = workdir / "stderr.txt"
    with open(err_path, "wb") as err, Probe() as probe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=workdir,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, wall * probe.speed(),
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB,
                err_path.read_text(encoding="utf-8", errors="replace"))


def decode_argv(wl: Workload, inputs: Inputs, out: Path,
                trace_out: Path | None = None) -> list[str]:
    head = ([sys.executable, "-m", "sparse_rnnt.cli"] if trace_out is None
            else [sys.executable, str(TRACER), str(trace_out)])
    return head + ["decode", "--model", str(inputs.models[wl.model]),
                   *map(str, inputs.wavs), *wl.flags, "--out", str(out)]


def setup_argv(model: Path) -> list[str]:
    code = ("import sys, sparse_rnnt.cli as cli; "
            "cli.load_model(sys.argv[1])")
    return [sys.executable, "-c", code, str(model)]


# ----------------------------------------------------------- output gate

def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def expected_sha(wl: Workload, seed: int, references: dict) -> str | None:
    """sha256 of the reference hyps.tsv, or None when no reference is recorded."""
    if wl.chars_per_utt == 0:
        return hashlib.sha256(
            "".join(f"{u}\t\n" for u in wl.utterances).encode()).hexdigest()
    return references.get(wl.name, {}).get(str(seed))


def read_hyps(path: Path) -> dict[str, str] | None:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    return dict(line.split("\t", 1) for line in text.splitlines() if "\t" in line)


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def check_decode(wl: Workload, proc: Proc, out: Path,
                 reference: str | None) -> tuple[list[str], str | None]:
    """Utterances that failed in one decode, and the sha256 of its hyps.tsv.

    Without a reference the transcript must have the regime's length; the
    caller then holds every later decode of the run to the first hash.
    """
    sha = sha256_file(out)
    hyps = read_hyps(out)
    if proc.code != 0 or hyps is None:
        return list(wl.utterances), sha
    if reference is not None:
        return ([] if sha == reference else list(wl.utterances)), sha
    bad = [u for u in wl.utterances
           if u not in hyps or len(hyps[u]) != wl.chars_per_utt]
    return bad, sha


# --------------------------------------------------------------- measure

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_sha: str | None = None

    def add(self, wl, proc, out, reference, label, log):
        bad, sha = check_decode(wl, proc, out, reference or self.first_sha)
        if not bad and self.first_sha is None:
            self.first_sha = sha
        self.attempted += len(wl.utterances)
        self.failed += len(bad)
        if bad:
            tail = proc.stderr.strip().splitlines()[-3:]
            log(f"FAILED {wl.name} {label}: {', '.join(bad)} (exit {proc.code}, "
                f"sha256 {sha}, expected {reference or self.first_sha}) "
                + " | ".join(tail))
        return sha


def measure_setup(model: Path, workdir: Path) -> list[float]:
    run_process(setup_argv(model), workdir)  # warm the bytecode and page caches
    walls = []
    for _ in range(SETUP_REPS):
        p = run_process(setup_argv(model), workdir)
        if p.code != 0:
            raise RuntimeError(f"setup process exited {p.code}: {p.stderr.strip()}")
        walls.append(p.ref_s)
    return walls


def regime_guard(wl: Workload, trace: dict, m: dict) -> list[str]:
    """Problems with the traced counters; empty when the workload's regime holds."""
    problems = []
    if not trace.get("restored", False):
        problems.append("tracer did not restore every wrapped attribute")
    if wl.chars_per_utt:
        if m["transducer.tokens_per_frame"] != float(MAX_SYMBOLS):
            problems.append(f"tokens_per_frame {m['transducer.tokens_per_frame']} "
                            f"!= {MAX_SYMBOLS} (saturated regime lost)")
    else:
        if m["transducer.tokens"] != 0:
            problems.append(f"{m['transducer.tokens']} tokens (blank regime lost)")
        # With beam 1 and no tokens every frame is all-blank, so SRS fires once
        # per T_SIL + 1 frames. A wider beam keeps lower-ranked hypotheses that
        # emitted, which holds SRS off, so their reset count is not fixed.
        beam1 = wl.flags[wl.flags.index("--beam") + 1] == "1"
        frames = [s["frames"] for s in trace["spans"]
                  if s["name"] == "pipeline.decode_with_srs"]
        want = sum(f // (T_SIL + 1) for f in frames)
        if beam1 and m["transducer.srs_resets"] != want:
            problems.append(f"{m['transducer.srs_resets']} SRS resets, expected "
                            f"{want} (one per {T_SIL + 1} frames)")
    return problems


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 log=print) -> dict:
    """Measure one workload; returns the result object of the last output line.

    The benchmark and its children share one CPU, so each probe runs where
    the child runs.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        inputs = build_inputs(wl, seed, workdir)
        reference = expected_sha(wl, seed, load_references())
        tally = Tally()
        problems: list[str] = []
        untraced: list[Proc] = []
        traced: list[Proc] = []
        layer_runs: list[dict] = []
        setup = [] if trace else measure_setup(inputs.models[wl.model], workdir)
        start = time.perf_counter()
        k, last = 0, 0.0
        # start a decode only if it should end within `seconds`
        while (not untraced or (trace and not traced)
               or time.perf_counter() - start + last <= seconds):
            out = workdir / f"hyps{k}.tsv"
            use_trace = trace and k % 2 == 1
            trace_out = workdir / f"trace{k}.json" if use_trace else None
            proc = run_process(decode_argv(wl, inputs, out, trace_out), workdir)
            label = f"{'traced' if use_trace else 'untraced'} decode {k}"
            sha = tally.add(wl, proc, out, reference, label, log)
            if use_trace:
                traced.append(proc)
                if proc.code == 0:
                    spans = json.loads(trace_out.read_text(encoding="utf-8"))
                    m = layer_metrics(spans)
                    problems += regime_guard(wl, spans, m)
                    speed = proc.ref_s / proc.wall_s
                    layer_runs.append({n: v * speed if UNITS[n] == "s" else v
                                       for n, v in m.items()})
                if sha != tally.first_sha:
                    problems.append(f"traced hyps.tsv sha256 {sha} != untraced "
                                    f"{tally.first_sha}")
            else:
                untraced.append(proc)
            out.unlink(missing_ok=True)
            k, last = k + 1, proc.wall_s
        if trace and not layer_runs:
            problems.append("no traced decode succeeded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sched_setaffinity(0, cpus)

    ok = [p for p in untraced if p.code == 0] or untraced
    if trace:
        metrics = {n: median([m[n] for m in layer_runs]) if layer_runs else 0.0
                   for n in TRACED_METRICS}
        metrics["cli.wall_s"] = median([p.wall_s for p in ok])
        metrics["cli.cpu_s"] = median([p.cpu_s for p in ok])
        metrics["cli.cpu_util"] = median([p.cpu_s / p.wall_s for p in ok])
        metrics["cli.probe_speed"] = median([p.ref_s / p.wall_s for p in ok])
        metrics["trace.overhead"] = (median([p.ref_s for p in traced])
                                     / median([p.ref_s for p in ok]) - 1.0)
        counts = f"{len(traced)} traced, {len(untraced)} untraced decodes"
    else:
        metrics = {
            "rtf": median([p.ref_s / wl.audio_s for p in ok]),
            "peak_rss_mb": median([p.rss_mb for p in ok]),
            "setup_s": median(setup),
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        }
        counts = (f"{len(untraced)} decodes, {len(setup)} setups, "
                  f"{tally.attempted} utterances")
    for p in problems:
        log(f"REGIME {wl.name}: {p}")
    log(f"# {wl.name} seed={seed} trace={int(trace)} {counts}; audio "
        f"{wl.audio_s:g} s; env " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    for name, value in metrics.items():
        log(f"{wl.name} {name} = {value:.6g} {UNITS[name]}")
    if not trace:
        log(f"{wl.name} failed_frac = {tally.failed / tally.attempted:.6g} ratio "
            f"({tally.failed} of {tally.attempted})")
        log(f"{wl.name} rtf_as_measured = "
            f"{median([p.wall_s / wl.audio_s for p in ok]):.6g} s/s "
            f"(probe speed {median([p.ref_s / p.wall_s for p in ok]):.4g})")
    return {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparse_rnnt" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'sparse_rnnt'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
