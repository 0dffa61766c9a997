"""The layer table: which entry points are wrapped, what they count, and
how the traced operations become the per-layer metrics.

Layers use the program's module names.  A span's *key* is
``<layer>.<part>``; a layer's self time is the summed self time of its
keys, where a span's self time is its duration minus its child spans'.
Counts come from arguments, return values and public reports (file
sizes on disk for the archive), never from the program's own metrics
registry.
"""

from __future__ import annotations

import pathlib
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from span_recorder import CPU0, CPU1, END, KEY, OP, PARENT, START, SpanRecorder

# -- observers -------------------------------------------------------------
# before(recorder, args, kwargs) -> state
# after(recorder, args, kwargs, result, state)


def _internet(rec, args, kwargs, result, state):
    rec.count("internet.targets", args[0].n_targets)


def _probes_per_vp(rec, args, kwargs):
    campaign = args[0]
    return campaign.internet.n_targets - len(campaign.blacklist)


def _census(rec, args, kwargs, census, probes_per_vp):
    health = census.health
    fresh = census.n_vps if health is None else health.n_vps_planned - health.n_vps_resumed
    rec.count("measurement.probes", probes_per_vp * fresh)
    rec.count("measurement.replies", int(census.records.reply_mask.sum()))
    if health is not None:
        rec.count("measurement.vp_scans_failed", health.n_vps_failed)
        rec.count("measurement.retries", health.retries)


def _not_in_combine(rec, args, kwargs):
    # matrix_from_census delegates to combine_censuses: count once.
    return not (rec.current_key() or "").startswith("combine.")


def _count_matrix(rec, records_in, matrix):
    rec.count("combine.records_in", records_in)
    rec.count("combine.cells", int(matrix.rtt_ms.size))
    rec.count("combine.filled", int((matrix.rtt_ms == matrix.rtt_ms).sum()))


def _combine(rec, args, kwargs, matrix, outermost):
    if outermost:
        _count_matrix(rec, sum(len(c.records) for c in args[0]), matrix)


def _combine_one(rec, args, kwargs, matrix, outermost):
    if outermost:
        _count_matrix(rec, len(args[0].records), matrix)


def _sanitize_records(rec, args, kwargs, clean, state):
    rec.count("sanitize.records_checked", len(args[0]))
    rec.count("sanitize.quarantined", len(args[0]) - len(clean))


def _sanitize_matrix(rec, args, kwargs, result, state):
    removed = result[1]
    if removed is not None:
        rec.count("sanitize.quarantined", int(removed.sum()))


def _score_vps(rec, args, kwargs, report, state):
    rec.count("trust.vps_scored", args[0].n_vps)
    rec.count("trust.vps_excised", len(report.untrusted_names))


def _detection(rec, args, kwargs, mask, state):
    radii = args[1] if len(args) > 1 else kwargs["radii_km"]
    n_targets, n_vps = radii.shape
    chunk = kwargs.get("chunk", args[2] if len(args) > 2 else 256)
    rec.count("detection.targets", n_targets)
    rec.count("detection.flagged", int(mask.sum()))
    # Computed, not measured: the (chunk, V, V) float64 pair-sum block
    # plus its boolean comparison, the largest temporary of one call.
    rec.peak("detection.cube_bytes", min(chunk, n_targets) * n_vps * n_vps * 9)


def _igreedy(rec, args, kwargs, result, state):
    rec.count("igreedy.targets", 1)


def _overlap(rec, args, kwargs, result, state):
    rec.count("igreedy.overlap_cells", len(args[1]) ** 2)


def _geo_requested(rec, args, kwargs, result, state):
    rec.count("igreedy.disks_requested", len(args[1]))


def _inside_geolocate(rec, args, kwargs):
    return rec.current_key() == "igreedy.geolocate"


def _geo_classified(rec, args, kwargs, result, inside):
    if inside:
        rec.count("igreedy.disks_classified", len(args[0]))


def _plan_delta(rec, args, kwargs, plan, state):
    current = args[0]
    rec.count("delta.targets", len(current))
    if plan.mode == "incremental":
        rec.count("delta.reused", len(plan.unchanged) + len(plan.recovered))


def _archive_module():
    import repro.service.archive as archive

    return archive


def _dir_bytes(path: pathlib.Path, names=None) -> int:
    files = [path / n for n in names] if names is not None else path.iterdir()
    return sum(f.stat().st_size for f in files if f.is_file())


def _commit(rec, args, kwargs, manifest, state):
    archive, epoch = args[0], args[1]
    run_dir = archive.run_dir(epoch)
    rec.count("archive.bytes_written", _dir_bytes(run_dir))
    sidecars = getattr(_archive_module(), "TELEMETRY_FILES", ())
    rec.count("obs.sidecar_bytes", _dir_bytes(run_dir, sidecars))


def _read_results(rec, args, kwargs, doc, state):
    name = getattr(_archive_module(), "RESULTS_FILE", "results.json")
    rec.count("archive.bytes_read", _dir_bytes(args[0].run_dir(args[1]), [name]))


def _read_manifest(rec, args, kwargs, doc, state):
    name = getattr(_archive_module(), "MANIFEST_FILE", "manifest.json")
    rec.count("archive.bytes_read", _dir_bytes(args[0].run_dir(args[1]), [name]))


def _fsck(rec, args, kwargs, report, state):
    rec.count("fsck.runs_verified", len(report.ok_epochs))


@dataclass(frozen=True)
class Hook:
    key: str
    target: str
    after: Optional[Callable] = None
    before: Optional[Callable] = None
    cpu: bool = False


HOOKS: List[Hook] = [
    Hook("internet.build", "repro.internet.topology:SyntheticInternet.__init__", _internet),
    Hook("measurement.run", "repro.measurement.campaign:CensusCampaign.run", cpu=True),
    Hook("measurement.precensus",
         "repro.measurement.campaign:CensusCampaign.run_precensus", cpu=True),
    Hook("measurement.census", "repro.measurement.campaign:CensusCampaign.run_census",
         _census, _probes_per_vp, cpu=True),
    Hook("combine.combine", "repro.census.combine:combine_censuses", _combine, _not_in_combine),
    Hook("combine.combine", "repro.census.combine:matrix_from_census",
         _combine_one, _not_in_combine),
    Hook("sanitize.records", "repro.resilience.sanitize:sanitize_records", _sanitize_records),
    Hook("sanitize.matrix", "repro.resilience.sanitize:sanitize_matrix", _sanitize_matrix),
    Hook("trust.score", "repro.resilience.vptrust:score_vps", _score_vps),
    Hook("trust.apply", "repro.resilience.vptrust:apply_trust"),
    Hook("detection.mask", "repro.core.detection:detection_mask", _detection),
    Hook("analysis.matrix", "repro.census.analysis:analyze_matrix"),
    Hook("igreedy.row", "repro.census.fastpath:FastAnalysisEngine.analyze_row"),
    Hook("igreedy.arrays", "repro.census.fastpath:FastAnalysisEngine.igreedy_arrays", _igreedy),
    Hook("igreedy.overlap", "repro.census.fastpath:SharedGeometry.overlap_submatrix", _overlap),
    Hook("igreedy.mis", "repro.core.enumeration:greedy_mis"),
    Hook("igreedy.geolocate",
         "repro.census.fastpath:FastAnalysisEngine.classify_vp_disks", _geo_requested),
    Hook("igreedy.geolocate", "repro.core.geolocation:classify_disks",
         _geo_classified, _inside_geolocate),
    Hook("characterize.init", "repro.census.characterize:Characterization.__init__"),
    Hook("delta.signatures", "repro.service.delta:target_signatures"),
    Hook("delta.plan", "repro.service.delta:plan_delta", _plan_delta),
    Hook("archive.commit", "repro.service.archive:CensusArchive.commit_run", _commit),
    Hook("archive.read", "repro.service.archive:CensusArchive.read_results", _read_results),
    Hook("archive.read", "repro.service.archive:CensusArchive.read_manifest", _read_manifest),
    Hook("fsck.run", "repro.service.fsck:fsck_archive", _fsck),
]

LAYERS = [
    "internet", "measurement", "combine", "sanitize", "trust", "detection",
    "analysis", "igreedy", "characterize", "delta", "archive", "fsck",
]
#: Layers whose sum is "the analysis" in the share predictions.
ANALYSIS_LAYERS = ("analysis", "detection", "igreedy", "characterize")


# -- per-operation view ----------------------------------------------------


class OpView:
    """Self times, inclusive times, CPU and counters of one operation."""

    def __init__(self, recorder: SpanRecorder, op_index: int, self_times) -> None:
        kind, root, counters = recorder.ops[op_index]
        self.kind = kind
        self.counters = counters
        self.wall = recorder.spans[root][END] - recorder.spans[root][START]
        self.other = self_times[root]
        self.key_self: Dict[str, float] = {}
        self.key_incl: Dict[str, float] = {}
        self.layer_cpu: Dict[str, float] = {}
        self.n_spans = 0
        spans = recorder.spans
        for i in range(root + 1, len(spans)):
            span = spans[i]
            if span[OP] != op_index:
                continue
            self.n_spans += 1
            key = span[KEY]
            self.key_self[key] = self.key_self.get(key, 0.0) + self_times[i]
            self.key_incl[key] = self.key_incl.get(key, 0.0) + span[END] - span[START]
            layer = key.split(".")[0]
            parent = span[PARENT]
            if span[CPU1] and not spans[parent][KEY].startswith(layer + "."):
                self.layer_cpu[layer] = (
                    self.layer_cpu.get(layer, 0.0) + span[CPU1] - span[CPU0]
                )

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.key_self.items() if k.startswith(prefix))

    def ran(self, layer: str) -> bool:
        prefix = layer + "."
        return any(k.startswith(prefix) for k in self.key_self)

    def c(self, name: str) -> float:
        return self.counters.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, unit, layer that scopes it, value of one operation)
PER_LAYER_METRICS = [
    ("internet.build_s", "s", "internet", lambda o: o.layer_self("internet")),
    ("internet.targets", "count", "internet", lambda o: o.c("internet.targets")),
    ("measurement.busy_s", "s", "measurement", lambda o: o.layer_self("measurement")),
    ("measurement.cpu_s", "s", "measurement", lambda o: o.layer_cpu.get("measurement", 0.0)),
    ("measurement.probes", "count", "measurement", lambda o: o.c("measurement.probes")),
    ("measurement.replies", "count", "measurement", lambda o: o.c("measurement.replies")),
    ("measurement.reply_ratio", "ratio", "measurement",
     lambda o: _ratio(o.c("measurement.replies"), o.c("measurement.probes"))),
    ("measurement.vp_scans_failed", "count", "measurement",
     lambda o: o.c("measurement.vp_scans_failed")),
    ("measurement.retries", "count", "measurement", lambda o: o.c("measurement.retries")),
    ("combine.busy_s", "s", "combine", lambda o: o.layer_self("combine")),
    ("combine.records_in", "count", "combine", lambda o: o.c("combine.records_in")),
    ("combine.cells", "count", "combine", lambda o: o.c("combine.cells")),
    ("combine.filled_ratio", "ratio", "combine",
     lambda o: _ratio(o.c("combine.filled"), o.c("combine.cells"))),
    ("resilience.sanitize_s", "s", "sanitize", lambda o: o.layer_self("sanitize")),
    ("resilience.records_checked", "count", "sanitize",
     lambda o: o.c("sanitize.records_checked")),
    ("resilience.quarantined", "count", "sanitize", lambda o: o.c("sanitize.quarantined")),
    ("resilience.trust_s", "s", "trust", lambda o: o.layer_self("trust")),
    ("resilience.vps_scored", "count", "trust", lambda o: o.c("trust.vps_scored")),
    ("resilience.vps_excised", "count", "trust", lambda o: o.c("trust.vps_excised")),
    ("detection.busy_s", "s", "detection", lambda o: o.layer_self("detection")),
    ("detection.targets", "count", "detection", lambda o: o.c("detection.targets")),
    ("detection.flagged_ratio", "ratio", "detection",
     lambda o: _ratio(o.c("detection.flagged"), o.c("detection.targets"))),
    ("detection.cube_bytes", "bytes", "detection", lambda o: o.c("detection.cube_bytes")),
    ("analysis.busy_s", "s", "analysis", lambda o: o.layer_self("analysis")),
    ("igreedy.busy_s", "s", "igreedy", lambda o: o.layer_self("igreedy")),
    ("igreedy.targets", "count", "igreedy", lambda o: o.c("igreedy.targets")),
    ("igreedy.ms_per_target", "ms", "igreedy",
     lambda o: 1000.0 * _ratio(o.key_incl.get("igreedy.arrays", 0.0), o.c("igreedy.targets"))),
    ("igreedy.overlap_s", "s", "igreedy", lambda o: o.key_self.get("igreedy.overlap", 0.0)),
    ("igreedy.overlap_cells", "count", "igreedy", lambda o: o.c("igreedy.overlap_cells")),
    ("igreedy.mis_s", "s", "igreedy", lambda o: o.key_self.get("igreedy.mis", 0.0)),
    ("igreedy.geolocate_s", "s", "igreedy", lambda o: o.key_self.get("igreedy.geolocate", 0.0)),
    ("igreedy.geo_cache_hit_ratio", "ratio", "igreedy",
     lambda o: 1.0 - _ratio(o.c("igreedy.disks_classified"), o.c("igreedy.disks_requested"))
     if o.c("igreedy.disks_requested") else 0.0),
    ("characterize.busy_s", "s", "characterize", lambda o: o.layer_self("characterize")),
    ("delta.busy_s", "s", "delta", lambda o: o.layer_self("delta")),
    ("delta.reuse_ratio", "ratio", "delta",
     lambda o: _ratio(o.c("delta.reused"), o.c("delta.targets"))),
    ("archive.commit_s", "s", "archive", lambda o: o.key_self.get("archive.commit", 0.0)),
    ("archive.bytes_written", "bytes", "archive", lambda o: o.c("archive.bytes_written")),
    ("archive.read_s", "s", "archive", lambda o: o.key_self.get("archive.read", 0.0)),
    ("archive.bytes_read", "bytes", "archive", lambda o: o.c("archive.bytes_read")),
    ("fsck.busy_s", "s", "fsck", lambda o: o.layer_self("fsck")),
    ("fsck.runs_verified", "count", "fsck", lambda o: o.c("fsck.runs_verified")),
    ("obs.sidecar_bytes", "bytes", "archive", lambda o: o.c("obs.sidecar_bytes")),
]
SHARE_METRICS = [f"share.{layer}" for layer in LAYERS] + ["share.analysis_all", "share.other"]
TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
                 ("trace.spans", "count")]


#: Per-layer metrics where a larger value is better (useful ÷ attempted).
HIGHER_IS_BETTER = {
    "measurement.reply_ratio", "combine.filled_ratio", "igreedy.geo_cache_hit_ratio",
    "delta.reuse_ratio",
}


def per_layer_units() -> Dict[str, str]:
    units = {name: unit for name, unit, _, _ in PER_LAYER_METRICS}
    units.update({name: "ratio" for name in SHARE_METRICS})
    units.update(dict(TRACE_METRICS))
    return units


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(recorder: SpanRecorder, primary: str) -> dict:
    """Per-layer metrics, the scope each was taken from, and per-kind tables.

    A metric is the median over the traced operations of the layer's
    *scope*: the workload's primary operation (``census`` or ``epoch``)
    when the layer runs there, else the first of ``setup``/``restart``
    in which it runs.  A layer that runs nowhere reads 0 and is listed
    under ``not_run``.
    """
    self_times = recorder.self_times()
    views = [OpView(recorder, i, self_times) for i in range(len(recorder.ops))]
    by_kind: Dict[str, List[OpView]] = {}
    for view in views:
        by_kind.setdefault(view.kind, []).append(view)

    scope: Dict[str, str] = {}
    for layer in LAYERS:
        for kind in (primary, "setup", "restart"):
            if any(v.ran(layer) for v in by_kind.get(kind, [])):
                scope[layer] = kind
                break

    metrics: Dict[str, float] = {}
    for name, _, layer, fn in PER_LAYER_METRICS:
        kind = scope.get(layer)
        metrics[name] = _median([fn(v) for v in by_kind.get(kind, [])]) if kind else 0.0

    primary_ops = by_kind.get(primary, [])
    for layer in LAYERS:
        metrics[f"share.{layer}"] = _median(
            [_ratio(v.layer_self(layer), v.wall) for v in primary_ops]
        )
    metrics["share.analysis_all"] = _median(
        [_ratio(sum(v.layer_self(l) for l in ANALYSIS_LAYERS), v.wall) for v in primary_ops]
    )
    metrics["share.other"] = _median([_ratio(v.other, v.wall) for v in primary_ops])
    metrics["trace.spans"] = _median([v.n_spans for v in primary_ops])

    tables = {
        kind: {
            "ops": len(ops),
            "median_wall_s": _median([v.wall for v in ops]),
            "median_self_s": {
                layer: _median([v.layer_self(layer) for v in ops])
                for layer in LAYERS if any(v.ran(layer) for v in ops)
            },
            "median_other_s": _median([v.other for v in ops]),
        }
        for kind, ops in by_kind.items()
    }
    return {
        "metrics": metrics,
        "scope": scope,
        "not_run": [layer for layer in LAYERS if layer not in scope],
        "tables": tables,
    }
