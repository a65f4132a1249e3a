"""Workloads, ground-truth checks and metrics of the tlsreg benchmark.

A run is a closed loop with one client: one public call at a time, the
next one sent when the previous returns.  Inputs are generated in blocks
of BLOCK instances from the run's seed.  A run measures whole blocks, at
least MIN_BLOCKS of them, and stops at the block boundary nearest to its
time budget, so every run covers the same mix of instance kinds:

* register workloads sweep the true scale over a fixed grid of BLOCK
  points spanning the protocol's [1, 5] range (known-scale workloads fix
  it at 1), so the share of instances on each side of a scale-dependent
  behaviour is the same in every run;
* the certifier workload cycles the outlier rates of the acceptance
  suite's certifier protocol (criterion 8) and, on the first trial of a
  block, also certifies a corrupted candidate with three inliers flipped
  (criterion 8 does so on one trial in four; one in eight keeps a run
  near its time budget, each such call taking the full 200 iterations).
  A GNC candidate 1 degree or more from the truth has no known right
  verdict; it is counted but not certified, so the certifier's workload
  does not depend on GNC's failure rate.

Every output is checked against the generator's ground truth.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
import zlib
from dataclasses import dataclass

import numpy as np

import tlsreg
from tlsreg import certifier, clique, invariants, pipeline, rotation
from tlsreg.geometry import TlsConfig, geodesic_rotation_error, quat_to_matrix, random_unit_quaternion
from tlsreg.pipeline import InsufficientInliersError, RegistrationOptions
from tlsreg.rotation import RotationProblem
from tlsreg.synthetic import SyntheticSpec, generate
from tracer import Tracer

BLOCK = 8
# Two blocks halve the weight of one flipped outcome on the unknown-scale
# workload, where a pose sometimes comes out right below the usual scale.
MIN_BLOCKS = 2

# Success bars: the 3 degree rotation bar of acceptance criteria 5 and 11,
# plus translation and (at unknown scale) relative scale error.
ROT_BAR_DEG = 3.0
TRANS_BAR = 0.1
SCALE_REL_BAR = 0.05
# Certifier protocol (acceptance criterion 8): a GNC candidate is "good"
# when within 1 degree of the truth; it must certify below this eta.
GOOD_CANDIDATE_DEG = 1.0
ETA_TARGET = 1e-3
CERT_RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
CERT_SIGMA = 0.01
CERT_BETA = 0.055
CORRUPTED_SLOTS = (0,)


@dataclass(frozen=True)
class RegisterWorkload:
    name: str
    n_points: int
    outlier_rate: float
    known_scale: bool
    # Share of registrations that must meet the success bar for the run to
    # count as correct: the acceptance suite's share where it covers the
    # regime, 0 where it does not (the share is still reported).
    success_floor: float


@dataclass(frozen=True)
class CertifyWorkload:
    name: str
    k: int
    success_floor: float


WORKLOADS = {
    w.name: w
    for w in (
        RegisterWorkload("known99_n1000", 1000, 0.99, True, 0.9),
        RegisterWorkload("dense50_n150", 150, 0.5, False, 0.9),
        RegisterWorkload("unknown90_n1000", 1000, 0.9, False, 0.0),
        CertifyWorkload("certify_k100", 100, 0.9),
    )
}


def instance_seed(workload: str, seed: int, block: int, slot: int) -> int:
    ss = np.random.SeedSequence([zlib.crc32(workload.encode()), seed, block, slot])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class Outcome:
    kind: str  # "register", "accept" (GNC candidate) or "reject" (corrupted)
    seconds: float
    status: str  # "ok", "refused", "nonfinite" or "error"
    success: bool
    rot_err_deg: float = math.nan
    trans_err: float = math.nan
    unsound: bool = False  # a corrupted candidate was certified
    clique_precision: float = math.nan  # share of clique members that are true inliers
    iterations: int = 0  # certifier iterations
    eta: float = math.nan  # certifier sub-optimality bound

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def _timed(fn):
    t0 = time.perf_counter()
    try:
        value = fn()
    except InsufficientInliersError:
        return time.perf_counter() - t0, None, "refused"
    except Exception:
        # The loop must keep running: the failure is counted and reported.
        traceback.print_exc()
        return time.perf_counter() - t0, None, "error"
    return time.perf_counter() - t0, value, "ok"


# --- register workloads ---------------------------------------------------


@dataclass
class RegisterInstance:
    workload: RegisterWorkload
    corr: object
    truth: object
    labels: np.ndarray
    generate_s: float

    def calls(self):
        return [self.register]

    def register(self) -> Outcome:
        w = self.workload
        opts = RegistrationOptions(known_scale=1.0 if w.known_scale else None)
        seconds, res, status = _timed(lambda: tlsreg.register(self.corr, TlsConfig(), opts))
        if status != "ok":
            return Outcome("register", seconds, status, False)
        tf = res.transform
        if not (
            math.isfinite(tf.scale)
            and tf.scale > 0
            and np.all(np.isfinite(tf.matrix))
            and np.all(np.isfinite(tf.translation))
        ):
            return Outcome("register", seconds, "nonfinite", False)
        rot = math.degrees(geodesic_rotation_error(tf.matrix, self.truth.rotation.to_matrix()))
        trans = float(np.linalg.norm(tf.translation - self.truth.translation))
        scale_rel = abs(tf.scale - self.truth.scale) / self.truth.scale
        success = rot < ROT_BAR_DEG and trans < TRANS_BAR
        if not w.known_scale:
            success = success and scale_rel < SCALE_REL_BAR
        precision = float(np.mean(self.labels[res.clique.vertices])) if len(res.clique) else 0.0
        return Outcome("register", seconds, "ok", success, rot, trans, clique_precision=precision)


def register_block(w: RegisterWorkload, seed: int, block: int) -> list[RegisterInstance]:
    out = []
    for slot in range(BLOCK):
        s_true = 1.0 + 4.0 * (slot + 0.5) / BLOCK
        spec = SyntheticSpec(
            n_points=w.n_points,
            sigma=0.01,
            outlier_rate=w.outlier_rate,
            seed=instance_seed(w.name, seed, block, slot),
            known_scale=w.known_scale,
            scale_range=(s_true, s_true),
        )
        t0 = time.perf_counter()
        corr, truth, labels = generate(spec)
        out.append(RegisterInstance(w, corr, truth, labels, time.perf_counter() - t0))
    return out


# --- certifier workload ---------------------------------------------------


def rotation_instance(rng, k: int, rate: float):
    """Pairwise vectors under bounded noise plus uniform outliers (criterion 8)."""
    a = rng.uniform(-1.0, 1.0, size=(k, 3))
    R = quat_to_matrix(random_unit_quaternion(rng))
    noise = rng.normal(0.0, CERT_SIGMA, size=(k, 3))
    norms = np.linalg.norm(noise, axis=1)
    over = norms > CERT_BETA
    noise[over] *= (CERT_BETA / norms[over])[:, None] * 0.99
    b = a @ R.T + noise
    n_out = round(rate * k)
    if n_out:
        idx = rng.choice(k, size=n_out, replace=False)
        b[idx] = rng.uniform(-2.0, 2.0, size=(n_out, 3))
    return RotationProblem(a, b, np.full(k, 2.0 * CERT_BETA), cbar_sq=1.0), R


@dataclass
class CertifyInstance:
    problem: RotationProblem
    rotation: np.ndarray
    thetas: np.ndarray
    candidate_err_deg: float
    corrupted: np.ndarray | None
    generate_s: float

    @property
    def good(self) -> bool:
        return self.candidate_err_deg < GOOD_CANDIDATE_DEG

    def calls(self):
        calls = []
        if self.good:
            calls.append(self.accept)
        if self.corrupted is not None:
            calls.append(self.reject)
        return calls

    def _certify(self, thetas):
        def call():
            data = certifier.build_cost_matrix(self.problem)
            return certifier.certify(
                data, certifier.make_candidate(self.problem, self.rotation, thetas)
            )

        return _timed(call)

    def accept(self) -> Outcome:
        seconds, cert, status = self._certify(self.thetas)
        if status != "ok":
            return Outcome("accept", seconds, status, False)
        success = cert.certified and cert.eta < ETA_TARGET
        return Outcome(
            "accept", seconds, "ok", success, self.candidate_err_deg,
            iterations=cert.iterations_used, eta=cert.eta,
        )

    def reject(self) -> Outcome:
        seconds, cert, status = self._certify(self.corrupted)
        if status != "ok":
            return Outcome("reject", seconds, status, False)
        return Outcome(
            "reject", seconds, "ok", not cert.certified, unsound=cert.certified,
            iterations=cert.iterations_used, eta=cert.eta,
        )


def certify_block(w: CertifyWorkload, seed: int, block: int) -> list[CertifyInstance]:
    out = []
    for slot, rate in enumerate(CERT_RATES):
        t0 = time.perf_counter()
        rng = np.random.default_rng(instance_seed(w.name, seed, block, slot))
        problem, R = rotation_instance(rng, w.k, rate)
        generate_s = time.perf_counter() - t0
        sol = rotation.solve_gnc_tls(problem)
        err = math.degrees(geodesic_rotation_error(sol.matrix, R))
        corrupted = None
        if slot in CORRUPTED_SLOTS:
            corrupted = sol.theta.copy()
            corrupted[np.nonzero(corrupted > 0)[0][:3]] = -1
        out.append(
            CertifyInstance(problem, sol.rotation, sol.theta, err, corrupted, generate_s)
        )
    return out


def make_block(w, seed: int, block: int):
    if isinstance(w, CertifyWorkload):
        return certify_block(w, seed, block)
    return register_block(w, seed, block)


# --- tracing targets ------------------------------------------------------


def _graph_bytes(g) -> int:
    arrays = {}
    for part in (g.topology, g.tims, g.trims):
        for value in vars(part).values():
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value.nbytes
    return sum(arrays.values())


TRACE_TARGETS = [
    (invariants.GraphTopology, "complete", "invariants.topology", None),
    (pipeline, "build_measurement_graph", "invariants.build",
     lambda g, *a: {"tims": len(g.tims), "trims_skipped": len(g.trims.skipped_rows),
                    "bytes": _graph_bytes(g)}),
    (pipeline, "solve_scalar_tls", "scalar_tls.solve",
     lambda r, p, *a: {"measurements": p.measurements.size}),
    (pipeline, "prune_by_scale", "clique.prune", lambda r, *a: {"edges_kept": r.n_edges}),
    (clique, "max_clique", "clique.search",
     lambda r, *a: {"size": len(r), "completed": bool(r.is_certified_maximum)}),
    (pipeline, "solve_gnc_tls", "rotation.gnc",
     lambda r, p, *a: {"measurements": p.size, "converged": bool(r.converged)}),
    (rotation, "horn_weighted", "rotation.horn", None),
    (pipeline, "estimate_translation", "pipeline.translation", None),
    (pipeline, "build_cost_matrix", "certifier.build", lambda r, *a: {"dim": r.Q.shape[0]}),
    (certifier, "build_cost_matrix", "certifier.build", lambda r, *a: {"dim": r.Q.shape[0]}),
    (pipeline, "certify", "certifier.certify", None),
    (certifier, "certify", "certifier.certify", None),
    (certifier, "project_to_psd_cone", "certifier.psd", None),
    (certifier, "project_to_dual_subspace", "certifier.affine", None),
    (certifier, "min_eigenvalue", "certifier.min_eig", None),
]

# Per-layer self-time metrics and the span whose self time each reports.
SELF_TIME_METRICS = {
    "invariants.topology_s": "invariants.topology",
    "invariants.build_s": "invariants.build",
    "scalar_tls.solve_s": "scalar_tls.solve",
    "clique.prune_s": "clique.prune",
    "clique.search_s": "clique.search",
    "rotation.gnc_s": "rotation.gnc",
    "rotation.horn_s": "rotation.horn",
    "certifier.build_s": "certifier.build",
    "certifier.certify_s": "certifier.certify",
    "certifier.psd_s": "certifier.psd",
    "certifier.affine_s": "certifier.affine",
    "certifier.min_eig_s": "certifier.min_eig",
    "pipeline.translation_s": "pipeline.translation",
}


# --- measurement loop -----------------------------------------------------


@dataclass
class RunRecord:
    outcomes: list  # untraced calls
    traced: list  # (untraced outcome, traced outcome) pairs, trace mode only
    generate_s: list
    tracer: Tracer | None
    candidates_skipped: int = 0  # GNC candidates too far off to certify


def measure(w, seed: int, seconds: float, first_block, trace: bool) -> RunRecord:
    """Run at least MIN_BLOCKS whole blocks, stopping at the boundary nearest `seconds`."""
    tracer = Tracer() if trace else None
    rec = RunRecord([], [], [], tracer)
    start = time.perf_counter()
    block, instances = 0, first_block
    while True:
        for inst in instances:
            rec.generate_s.append(inst.generate_s)
            if isinstance(inst, CertifyInstance) and not inst.good:
                rec.candidates_skipped += 1
            for call in inst.calls():
                if not trace:
                    rec.outcomes.append(call())
                    continue
                # Alternate which side runs first so neither gets warmer caches.
                if len(rec.traced) % 2 == 0:
                    plain = call()
                    traced = _traced_call(tracer, call)
                else:
                    traced = _traced_call(tracer, call)
                    plain = call()
                rec.outcomes.append(plain)
                rec.traced.append((plain, traced))
        block += 1
        elapsed = time.perf_counter() - start
        if block >= MIN_BLOCKS and elapsed + 0.5 * elapsed / block >= seconds:
            return rec
        instances = make_block(w, seed, block)


def _traced_call(tracer: Tracer, call) -> Outcome:
    with tracer.installed(TRACE_TARGETS), tracer.operation(call.__name__) as root:
        out = call()
    out.seconds = root.end - root.start
    return out


# --- metrics --------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def primary_kind(w) -> str:
    return "accept" if isinstance(w, CertifyWorkload) else "register"


def summarize(w, rec: RunRecord) -> dict:
    """Counts and correctness shared by both modes."""
    calls = rec.outcomes + [t for _, t in rec.traced]
    attempted = len(calls)
    failed = sum(o.failed for o in calls)
    errors = sum(o.status in ("error", "nonfinite") for o in calls)
    unsound = sum(o.unsound for o in calls)
    success_rate = sum(o.success for o in calls) / attempted
    correct = errors == 0 and unsound == 0 and success_rate >= w.success_floor
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": bool(correct),
        "success_rate": success_rate,
    }


def end_to_end(w, rec: RunRecord, setup_s: float) -> dict:
    # Throughput over every call, with no per-call latency statistic: on
    # unknown90_n1000 a call takes ~1.3 s when the pose is wrong and ~3.5 s
    # when it is right, so the median sits on the fast group's upper edge;
    # on certify_k100 an accepted candidate takes 3 to 31 iterations.  So
    # per-call statistics moved by a fifth or more between seeds, throughput
    # by at most an eighth.  Medians are reported per layer.
    busy = sum(o.seconds for o in rec.outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (len(rec.outcomes) / busy, "1/s"),
        "success_rate": (summarize(w, rec)["success_rate"], "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(w, rec: RunRecord) -> dict:
    tracer = rec.tracer
    traced = [t for _, t in rec.traced]
    roots = [s for s in tracer.spans if s.parent_id is None]
    n_ops = len(roots)
    root_time = sum(s.duration for s in roots)
    self_times = tracer.self_times()
    m = {}
    for metric, span in SELF_TIME_METRICS.items():
        m[metric] = (self_times.get(span, 0.0) / n_ops, "s")
    root_self = sum(self_times.get(s, 0.0) for s in {r.name for r in roots})
    m["pipeline.self_s"] = (root_self / n_ops, "s")
    m["pipeline.call_s"] = (root_time / n_ops, "s")
    primary = [o.seconds for o in rec.outcomes if o.kind == primary_kind(w)]
    m["pipeline.call_p50_s"] = (_median(primary), "s")

    def attrs(span, key):
        return [s.attrs[key] for s in tracer.by_name(span) if key in s.attrs]

    def calls_per_op(span):
        return len(tracer.by_name(span)) / n_ops

    def sum_per_op(span, key):
        return sum(attrs(span, key)) / n_ops

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    m["invariants.tims"] = (sum_per_op("invariants.build", "tims"), "count")
    m["invariants.trims_skipped"] = (sum_per_op("invariants.build", "trims_skipped"), "count")
    m["invariants.bytes"] = (sum_per_op("invariants.build", "bytes"), "B")
    m["scalar_tls.calls"] = (calls_per_op("scalar_tls.solve"), "count")
    m["scalar_tls.measurements"] = (sum_per_op("scalar_tls.solve", "measurements"), "count")
    m["clique.max_clique_calls"] = (calls_per_op("clique.search"), "count")
    m["clique.edges_kept"] = (mean(attrs("clique.prune", "edges_kept")), "count")
    m["clique.size"] = (mean(attrs("clique.search", "size")), "count")
    m["clique.completed_rate"] = (mean(attrs("clique.search", "completed")), "share")
    registers = [o for o in traced if o.kind == "register"]
    returned = [o for o in registers if o.status == "ok"]
    m["clique.inlier_precision"] = (mean([o.clique_precision for o in returned]), "share")
    m["rotation.horn_calls"] = (calls_per_op("rotation.horn"), "count")
    m["rotation.measurements"] = (mean(attrs("rotation.gnc", "measurements")), "count")
    m["rotation.converged_rate"] = (mean(attrs("rotation.gnc", "converged")), "share")

    accepts = [o for o in traced if o.kind == "accept" and o.status == "ok"]
    rejects = [o for o in traced if o.kind == "reject" and o.status == "ok"]
    m["certifier.accept_iterations"] = (_median([o.iterations for o in accepts]), "count")
    m["certifier.reject_iterations"] = (_median([o.iterations for o in rejects]), "count")
    m["certifier.reject_eta"] = (_median([o.eta for o in rejects]), "ratio")
    m["certifier.dim"] = (max(attrs("certifier.build", "dim"), default=0), "count")
    plain = rec.outcomes
    m["certifier.accept_p50_s"] = (_median([o.seconds for o in plain if o.kind == "accept"]), "s")
    m["certifier.reject_p50_s"] = (_median([o.seconds for o in plain if o.kind == "reject"]), "s")
    m["certifier.accept_rate"] = (mean([o.success for o in accepts]), "share")
    m["certifier.reject_rate"] = (mean([o.success for o in rejects]), "share")

    m["pose.silent_wrong_rate"] = (
        sum(not o.success for o in returned) / len(registers) if registers else 0.0,
        "share",
    )
    m["pose.rot_err_p50_deg"] = (_median([o.rot_err_deg for o in returned]), "deg")
    m["pose.trans_err_p50"] = (_median([o.trans_err for o in returned]), "length")

    m["synthetic.generate_s"] = (_median(rec.generate_s), "s")
    plain_time = sum(p.seconds for p, _ in rec.traced)
    m["trace.overhead_frac"] = (root_time / plain_time - 1.0, "share")
    m["trace.coverage"] = (1.0 - root_self / root_time, "share")
    return m

