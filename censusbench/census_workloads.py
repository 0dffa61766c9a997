"""The three workloads: what each runs, times and checks.

Every workload builds its inputs from the seed alone and hands the
program nothing but the generated config.  Why each workload exists,
and which layers it stresses and bypasses, is in README.md.

Operations (each counts once in ``attempted``; an exception or a failed
output check counts it in ``failed``):

* study workloads (``haystack``, ``dense_vps``): one checkpointed
  measurement that writes the journals later restarts replay (also the
  warm-up), then cycles of a study run and a restart block (``worlds``
  times: a world build and ``restarts`` restarts on that world); the
  block comes first in even cycles and last in odd ones, so restart
  samples spread over the run as study runs do;
* ``daily_service``: cycles of [epoch 0 on a fresh archive, epochs
  1-11]; from the second cycle on, a restart of the previous cycle's
  finished archive follows each of epochs 1-11.

Cycles repeat while ``--seconds`` (counted from the start) last, and at
least twice, so that every run compares two results of one seed.  With
tracing on, odd cycles run with the span hooks installed and even cycles
without; the difference of their primary-operation medians is the
tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from census_layers import HOOKS
from span_recorder import Hooks, SpanRecorder

# Epochs of one daily_service timeline; a restart of the previous
# timeline's archive follows each of epochs 1-11.
EPOCHS = 12
MIN_CYCLES = 2


@dataclass(frozen=True)
class StudySpec:
    unicast: int
    vps: int
    censuses: int
    resilience: bool = False
    trust: bool = False
    #: World builds per cycle's restart block (``setup_s`` samples), and
    #: restarts back to back on each (``restart_s`` samples of the
    #: replay alone).  A block takes a good share of a cycle, so
    #: ``restart_s`` averages the host over seconds, as ``census_s`` does.
    worlds: int = 1
    restarts: int = 1


STUDIES = {
    # Probe/fold/sanitize cost per target dominates (see README.md).
    "haystack": StudySpec(unicast=100_000, vps=40, censuses=4, resilience=True,
                          restarts=6),
    # V x V detection, per-target overlap and trust scoring dominate.
    "dense_vps": StudySpec(unicast=2_000, vps=500, censuses=2, trust=True,
                           worlds=5, restarts=5),
}
WORKLOADS = list(STUDIES) + ["daily_service"]
#: One line per workload for BENCHMARK.json; README.md has the long form.
WHY = {
    "haystack": "large unicast haystack, 40 VPs, sanitizers on: measurement, combine and "
                "sanitize per target dominate; analysis is small",
    "dense_vps": "500 VPs with VP trust scoring: the VxV detection cube, per-target VxV "
                 "overlap in iGreedy and trust dominate; measurement is small",
    "daily_service": "12-epoch incremental service plus restarts: archive writes and reads, "
                     "per-epoch world rebuild and delta planning dominate",
}
TAIL_DEPLOYMENTS = 80


class Run:
    """Samples, checks and trace state of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.recorder = SpanRecorder(f"{workload}-{seed}-{int(time.time())}")
        self.hooks = Hooks(self.recorder, HOOKS)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Cycle of each untraced sample (-1: before the first cycle).
        self.sample_cycles: Dict[str, List[int]] = defaultdict(list)
        self.traced: Dict[str, List[float]] = defaultdict(list)
        self.checks: Dict[str, List[bool]] = defaultdict(list)
        self.failures: List[str] = []
        self.quality: Dict[str, float] = {}
        self.digests: List[str] = []
        self.attempted = 0
        self.failed = 0
        self._op_ok = True
        self.cycle = -1
        self.started = time.perf_counter()

    def attempt(self, name: str, fn: Callable[[], None]) -> bool:
        """Run one operation; count it; an exception or failed check fails it."""
        self.attempted += 1
        self._op_ok = True
        try:
            fn()
        except Exception:  # noqa: BLE001 - every failure is counted, run goes on
            self._op_ok = False
            self.failures.append(f"{name}: {traceback.format_exc(limit=4)}")
            print(f"error in {name}:\n{traceback.format_exc()}", file=sys.stderr)
        if not self._op_ok:
            self.failed += 1
        gc.collect()
        return self._op_ok

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name].append(bool(ok))
        if not ok:
            self._op_ok = False
            self.failures.append(f"check failed: {name} {detail}")
            print(f"check failed: {name} {detail}", file=sys.stderr)

    @contextmanager
    def timed(self, kind: str, traced: bool):
        """Time one operation; with ``traced`` it is also a span root."""
        with self.recorder.op(kind) if traced else nullcontext():
            start = time.perf_counter()
            yield
            elapsed = time.perf_counter() - start
        if traced:
            self.traced[kind].append(elapsed)
        else:
            self.samples[kind].append(elapsed)
            self.sample_cycles[kind].append(self.cycle)

    def batched_median(self, kind: str) -> Optional[float]:
        """Median over the run's cycles of each cycle's mean ``kind`` time.

        For setup: its samples switch between two speeds in streaks, as
        the host is contended or not.  A cycle's mean follows the share
        of slow samples smoothly, where a median over single samples
        jumps when that share crosses half.
        """
        by_cycle: Dict[int, List[float]] = defaultdict(list)
        for cycle, value in zip(self.sample_cycles[kind], self.samples[kind]):
            by_cycle[cycle].append(value)
        means = [statistics.fmean(values) for values in by_cycle.values()]
        return float(statistics.median(means)) if means else None

    def cycles(self):
        """Yield (cycle, traced) while the time budget lasts.

        The budget counts from the start of the run.  A cycle starts only
        if it would end no more than half a cycle past the budget, so a
        run lasts about ``seconds`` whatever the cycle length.
        """
        cycle = 0
        last = 0.0
        while cycle < MIN_CYCLES or self.elapsed() + last / 2 < self.seconds:
            traced = self.trace and cycle % 2 == 1
            self.cycle = cycle
            start = time.perf_counter()
            with self.hooks.installed() if traced else nullcontext():
                yield cycle, traced
            last = time.perf_counter() - start
            cycle += 1

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def record_result(self, digest: str, quality: Dict[str, float]) -> None:
        if self.digests:
            self.check("digest identical across runs of one seed",
                       digest == self.digests[0], f"{digest} != {self.digests[0]}")
            self.check("accuracy identical across runs of one seed",
                       quality == self.quality, f"{quality} != {self.quality}")
        else:
            self.quality = quality
        self.digests.append(digest)


# -- ground truth ---------------------------------------------------------


def check_truth(run: Run, detected: Dict[int, int], internet) -> Dict[str, float]:
    """The paper's guarantees against the synthetic world's ground truth.

    ``detected`` maps each /24 called anycast to its enumerated sites.
    Returns recall and the mean enumerated/true sites ratio.
    """
    from repro.internet.topology import RESP_REPLY

    anycast = internet.is_anycast
    truth = {int(p) for p in internet.prefixes[anycast]}
    responsive = {
        int(p) for p in internet.prefixes[anycast & (internet.responsiveness == RESP_REPLY)]
    }
    unicast_called = sorted(p for p in detected if p not in truth)
    run.check("zero unicast /24s called anycast (speed-of-light guarantee)",
              not unicast_called, f"{len(unicast_called)} e.g. {unicast_called[:5]}")
    ratios = []
    over = []
    for prefix in sorted(p for p in detected if p in truth):
        true_sites = len(internet.deployment_of(prefix).replicas)
        ratios.append(detected[prefix] / true_sites)
        if detected[prefix] > true_sites:
            over.append(prefix)
    run.check("no /24 enumerates more sites than it has (MIS lower bound)",
              not over, f"{len(over)} e.g. {over[:5]}")
    run.check("some anycast /24 detected", bool(ratios))
    return {
        "recall": len(responsive & set(detected)) / max(len(responsive), 1),
        "sites_ratio": sum(ratios) / max(len(ratios), 1),
    }


# -- study workloads --------------------------------------------------------


def study_config(spec: StudySpec, seed: int, checkpoint_dir: Optional[str] = None):
    from repro.internet.topology import InternetConfig
    from repro.resilience import ResiliencePolicy
    from repro.workflow import StudyConfig

    return StudyConfig(
        internet=InternetConfig(
            seed=seed, n_unicast_slash24=spec.unicast, tail_deployments=TAIL_DEPLOYMENTS
        ),
        n_vantage_points=spec.vps,
        n_censuses=spec.censuses,
        platform_seed=seed + 101,
        campaign_seed=seed + 202,
        resilience=ResiliencePolicy() if spec.resilience else None,
        trust=spec.trust,
        checkpoint_dir=checkpoint_dir,
    )


def census_fingerprint(censuses) -> str:
    digest = hashlib.sha256()
    for census in censuses:
        records = census.records
        digest.update(str(census.census_id).encode())
        for column in (records.vp_index, records.prefix, records.timestamp_ms,
                       records.rtt_ms, records.flag):
            digest.update(column.tobytes())
    return digest.hexdigest()


def analysis_digest(analysis, characterization) -> str:
    digest = hashlib.sha256()
    digest.update(analysis.prefixes.astype("<i8").tobytes())
    digest.update(analysis.anycast_mask.astype("u1").tobytes())
    for prefix in sorted(analysis.results):
        result = analysis.results[prefix]
        digest.update(repr((
            prefix, result.detection.witness, result.detection.sample_count,
            result.iterations,
            [(r.city.name, r.city.country, r.disk.radius_km, r.confidence)
             for r in result.replicas],
        )).encode())
    digest.update(repr(sorted(
        (asn, fp.n_ip24, fp.total_replicas) for asn, fp in characterization.footprints.items()
    )).encode())
    return digest.hexdigest()


def run_study(run: Run, spec: StudySpec) -> None:
    from repro.workflow import CensusStudy

    checkpoint = str(run.work / "checkpoint")
    journal: Dict[str, str] = {}
    world: Dict[str, object] = {}

    def write_journal() -> None:
        study = CensusStudy(study_config(spec, run.seed, checkpoint))
        with run.timed("setup", False):
            study.internet, study.platform
        journal["fingerprint"] = census_fingerprint(study.censuses)

    def study_run(traced: bool) -> None:
        study = CensusStudy(study_config(spec, run.seed))
        with run.timed("setup", traced):
            study.internet, study.platform
        with run.timed("census", traced):
            characterization = study.characterization
        analysis = study.analysis
        detected = {p: analysis.replica_count(p) for p in analysis.anycast_prefixes}
        quality = check_truth(run, detected, study.internet)
        run.record_result(analysis_digest(analysis, characterization), quality)

    def restart_world(traced: bool) -> None:
        study = CensusStudy(study_config(spec, run.seed, checkpoint))
        with run.timed("setup", traced):
            world["internet"], world["platform"] = study.internet, study.platform

    def restart(traced: bool) -> None:
        study = CensusStudy(study_config(spec, run.seed, checkpoint))
        # A fresh study on the cycle's built world: only the journal replay
        # is timed.  Should the study stop taking a world this way, it
        # builds its own here, still outside the timed replay.
        study._internet, study._platform = world["internet"], world["platform"]
        study.internet, study.platform
        with run.timed("restart", traced):
            censuses = study.censuses
        run.check("restart replays the journals bit-for-bit",
                  census_fingerprint(censuses) == journal.get("fingerprint"))
        run.check("restart rescans no vantage point",
                  all(c.health.n_vps_resumed == c.health.n_vps_planned for c in censuses))

    run.attempt("checkpointed measurement", write_journal)
    for cycle, traced in run.cycles():
        if cycle % 2 == 1:
            run.attempt(f"study run {cycle}", lambda: study_run(traced))
        for _ in range(spec.worlds):
            if run.attempt(f"restart world build {cycle}", lambda: restart_world(traced)):
                for _ in range(spec.restarts):
                    run.attempt(f"study restart {cycle}", lambda: restart(traced))
            world.clear()
        if cycle % 2 == 0:
            run.attempt(f"study run {cycle}", lambda: study_run(traced))


# -- daily service ----------------------------------------------------------


def service_config(seed: int, archive_root: str):
    from repro.census.longitudinal import EvolutionConfig
    from repro.service import ServiceConfig

    # Roster churn stays off: at 60 VPs a churn probability >= 0.05 sends
    # every epoch down the cold path, which is not a daily service's load.
    return ServiceConfig(
        archive_root=archive_root,
        internet_seed=seed,
        n_unicast=4_000,
        tail_deployments=TAIL_DEPLOYMENTS,
        evolution=EvolutionConfig(
            growth_prob=0.02, max_new_sites=1, shrink_prob=0.01, new_adopters=1
        ),
        evolution_seed=seed + 7,
        n_vps=60,
        vp_seed=seed + 101,
        campaign_seed=seed + 202,
        noise="keyed",
        incremental=True,
        telemetry=True,
    )


def run_service(run: Run) -> None:
    from repro.service import CensusService
    from repro.service.archive import canonical_json_bytes

    def restart(config, traced: bool) -> None:
        with run.timed("restart", traced):
            service = CensusService(config)
            report, outcomes = service.catch_up(EPOCHS - 1)
            history = service.history()
        run.check("restart fsck repairs nothing", report.clean,
                  "; ".join(report.summary_lines()))
        run.check("restart recomputes no epoch",
                  all(o.status == "already-present" for o in outcomes))
        run.check("history lists every epoch", len(history) == EPOCHS)

    def finish(service) -> None:
        digest = hashlib.sha256()
        for k in range(EPOCHS):
            digest.update(canonical_json_bytes(service.archive.read_results(k)))
        doc = service.archive.read_results(EPOCHS - 1)
        detected = {
            int(prefix): len(entry.get("replicas", ()))
            for prefix, entry in doc["targets"].items() if entry["anycast"]
        }
        quality = check_truth(run, detected, service.internet_for(EPOCHS - 1))
        run.record_result(digest.hexdigest(), quality)

    def timeline(cycle: int, traced: bool, finished) -> bool:
        """Epochs 0-11 on a fresh archive; restarts of ``finished`` (the
        previous cycle's archive) ride between the epochs, so restart
        samples are spread over the run like epoch samples."""
        config = service_config(run.seed, str(run.work / f"archive-{cycle}"))
        state: Dict[str, object] = {}

        def first_epoch() -> None:
            with run.timed("setup", traced):
                service = CensusService(config)
                outcome = service.run_epoch(0)
            run.check("every epoch is committed", outcome.status == "committed", "epoch 0")
            state["service"] = service

        def epoch(k: int) -> None:
            with run.timed("epoch", traced):
                outcome = state["service"].run_epoch(k)
            run.check("every epoch is committed", outcome.status == "committed", f"epoch {k}")
            run.check("epochs 1-11 are incremental", outcome.mode == "incremental",
                      f"epoch {k}: {outcome.mode} ({outcome.reason})")
            if k == EPOCHS - 1:
                finish(state["service"])

        if not run.attempt(f"epoch 0 (cycle {cycle})", first_epoch):
            return False
        for k in range(1, EPOCHS):
            if not run.attempt(f"epoch {k} (cycle {cycle})", lambda: epoch(k)):
                return False
            if finished is not None:
                run.attempt(f"restart after epoch {k} (cycle {cycle})",
                            lambda: restart(finished, traced))
        return True

    finished = None
    for cycle, traced in run.cycles():
        done = timeline(cycle, traced, finished)
        if finished is not None:
            shutil.rmtree(finished.archive_root, ignore_errors=True)
        finished = service_config(run.seed, str(run.work / f"archive-{cycle}")) if done else None


def run_workload(run: Run) -> None:
    if run.workload == "daily_service":
        run_service(run)
    else:
        run_study(run, STUDIES[run.workload])


def primary_kind(workload: str) -> str:
    return "epoch" if workload == "daily_service" else "census"
