"""Command-line front end: generate / register / certify / bench.

Exit codes: 0 success, 2 insufficient inliers, 3 I/O or format error.
Benchmark workers come from --workers, capped at the CPU count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .certifier import CertifyOptions, build_cost_matrix, certify, make_candidate
from .geometry import (
    CorrespondenceSet,
    TlsConfig,
    geodesic_rotation_error,
)
from .pipeline import InsufficientInliersError, RegistrationOptions, register
from .plyio import (
    PlyError,
    format_result_json,
    read_ascii_ply,
    read_result_json,
    transform_to_dict,
    write_ascii_ply,
    write_labels,
    write_result_json,
)
from .ransac import ransac_baseline
from .rotation import RotationProblem
from .synthetic import SyntheticSpec, generate

EXIT_OK = 0
EXIT_INSUFFICIENT_INLIERS = 2
EXIT_IO_ERROR = 3


def _cmd_generate(args) -> int:
    try:
        spec = SyntheticSpec(
            n_points=args.n,
            sigma=args.sigma,
            outlier_rate=args.outlier_rate,
            seed=args.seed,
            known_scale=args.known_scale,
            all_to_all=args.all_to_all,
            overlap_fraction=args.overlap,
            beta=args.beta,
            use_reference_cloud=args.reference_cloud,
        )
        c, gt, labels = generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_ascii_ply(f"{prefix}_src.ply", c.source)
    write_ascii_ply(f"{prefix}_dst.ply", c.target)
    write_labels(f"{prefix}_labels.txt", labels)
    write_result_json(
        f"{prefix}_meta.json",
        {
            "ground_truth": transform_to_dict(gt),
            "noise_bound": float(c.noise_bounds[0]),
            "n_points": int(len(c)),
            "sigma": spec.sigma,
            "outlier_rate": spec.outlier_rate,
            "seed": spec.seed,
        },
    )
    print(f"wrote {prefix}_src.ply, {prefix}_dst.ply, {prefix}_labels.txt, {prefix}_meta.json")
    return EXIT_OK


def _result_payload(res) -> dict:
    return {
        "transform": transform_to_dict(res.transform),
        "inlier_indices": res.inlier_indices.tolist(),
        "trace": dataclasses.asdict(res.trace),
    }


def _emit_result(payload: dict, out) -> None:
    """Write the JSON result to `out`, or print it when no path is given."""
    if out:
        write_result_json(out, payload)
        print(f"wrote {out}")
    else:
        print(format_result_json(payload))


def _cmd_register(args) -> int:
    src = read_ascii_ply(args.src)
    dst = read_ascii_ply(args.dst)
    if src.shape != dst.shape:
        print("error: source and destination clouds differ in size", file=sys.stderr)
        return EXIT_IO_ERROR
    try:
        c = CorrespondenceSet(src, dst, np.full(src.shape[0], args.beta))
        cfg = TlsConfig(cbar_sq=args.cbar_sq)
        opts = RegistrationOptions(
            known_scale=args.known_scale,
            certify_rotation=not args.no_certify,
            certify_max_k=args.certify_max_k,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    res = register(c, cfg, opts)
    if res.trace.certify_skipped_k is not None:
        print(
            f"warning: {res.trace.certify_skipped_k} rotation measurements exceed "
            f"--certify-max-k={args.certify_max_k}; skipping certification",
            file=sys.stderr,
        )
    _emit_result(_result_payload(res), args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    doc = read_result_json(args.problem)
    try:
        problem = RotationProblem(
            a_bars=np.asarray(doc["a_bars"], dtype=float),
            b_bars=np.asarray(doc["b_bars"], dtype=float),
            beta_bars=np.asarray(doc["beta_bars"], dtype=float),
            cbar_sq=float(doc.get("cbar_sq", 1.0)),
        )
        cand = make_candidate(problem, doc["quaternion_xyzw"], doc["thetas"])
        opts = CertifyOptions(max_iters=args.max_iters, eta_target=args.eta_target)
        cert = certify(build_cost_matrix(problem), cand, opts)
    except KeyError as exc:
        print(f"error: problem file missing field {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except (ValueError, TypeError) as exc:
        print(f"error: malformed problem file or option: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    payload = {
        "eta": cert.eta,
        "verdict": cert.verdict.value,
        "iterations": cert.iterations_used,
        "mu_hat": cert.mu_hat,
        "stationarity_residual": cert.stationarity_residual,
    }
    _emit_result(payload, args.out)
    return EXIT_OK


def run_bench_trial(params: dict) -> dict:
    """One benchmark trial; importable so worker processes can run it."""
    spec = params["spec"]
    c, gt, labels = generate(spec)
    record = {
        "seed": spec.seed,
        "outlier_rate": spec.outlier_rate,
        "method": params["method"],
    }
    t0 = time.perf_counter()
    trace = None
    try:
        if params["method"] == "ransac":
            rr = ransac_baseline(
                c, max_iters=params["ransac_iters"],
                known_scale=1.0 if spec.known_scale else None,
                seed=spec.seed,
            )
            transform = rr.transform
            certified = None
        else:
            res = register(
                c,
                TlsConfig(),
                RegistrationOptions(
                    known_scale=1.0 if spec.known_scale else None,
                    certify_rotation=params["certify"],
                ),
            )
            transform = res.transform
            certified = (
                bool(res.certificate.certified) if res.certificate is not None else None
            )
            trace = dataclasses.asdict(res.trace)
    except InsufficientInliersError:
        record.update(failed=True, runtime_s=time.perf_counter() - t0)
        return record
    record.update(
        failed=False,
        rotation_error_rad=float(
            geodesic_rotation_error(transform.matrix, gt.rotation.to_matrix())
        ),
        translation_error=float(np.linalg.norm(transform.translation - gt.translation)),
        scale_error=float(abs(transform.scale - gt.scale)),
        certified=certified,
        runtime_s=time.perf_counter() - t0,
        trace=trace,
    )
    return record


def _worker_count(requested: int | None) -> int:
    """--workers capped at the CPU count; every CPU when it is not given."""
    limit = os.cpu_count() or 1
    return max(1, min(requested or limit, limit))


def _cmd_bench(args) -> int:
    # Every trial's instance is validated before any trial runs.
    try:
        rates = [float(r) for r in args.rates.split(",")]
        if args.trials < 1:
            raise ValueError("--trials must be at least 1")
        if args.ransac_iters < 1:
            raise ValueError("--ransac-iters must be at least 1")
        specs = [
            SyntheticSpec(
                n_points=args.n,
                sigma=args.sigma,
                outlier_rate=rate,
                seed=args.seed0 + trial,
                known_scale=args.known_scale,
            )
            for rate in rates
            for trial in range(args.trials)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    jobs = [
        {"spec": spec, "certify": args.certify, "method": args.method,
         "ransac_iters": args.ransac_iters}
        for spec in specs
    ]
    workers = _worker_count(args.workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_bench_trial, jobs))
    else:
        records = [run_bench_trial(j) for j in jobs]

    print(f"{'rate':>6} {'ok':>5} {'rot_med(deg)':>13} {'tr_med':>9} {'scale_med':>10} {'t_med(s)':>9}")
    aggregates = []
    for rate in rates:
        rows = [r for r in records if r["outlier_rate"] == rate and not r["failed"]]
        n_fail = sum(1 for r in records if r["outlier_rate"] == rate and r["failed"])

        def stats(key):
            values = [r[key] for r in rows]
            if not values:
                return {"median": math.nan, "q25": math.nan, "q75": math.nan, "q95": math.nan}
            q25, med, q75, q95 = np.quantile(values, [0.25, 0.5, 0.75, 0.95])
            return {
                "median": float(med), "q25": float(q25), "q75": float(q75), "q95": float(q95)
            }

        rot_stats = stats("rotation_error_rad")
        agg = {
            "outlier_rate": rate,
            "n_ok": len(rows),
            "n_failed": n_fail,
            "rotation_error_rad": rot_stats,
            "translation_error": stats("translation_error"),
            "scale_error": stats("scale_error"),
            "runtime_s": stats("runtime_s"),
        }
        aggregates.append(agg)
        print(
            f"{rate:>6.2f} {len(rows):>5} {math.degrees(rot_stats['median']):>13.4f} "
            f"{agg['translation_error']['median']:>9.5f} "
            f"{agg['scale_error']['median']:>10.5f} {agg['runtime_s']['median']:>9.4f}"
        )
    if args.out:
        write_result_json(args.out, {"records": records, "aggregates": aggregates})
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlsreg", description="Robust point-cloud registration toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance to PLY files")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--sigma", type=float, default=0.01)
    g.add_argument("--outlier-rate", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--known-scale", action="store_true", help="fix the scale to 1")
    g.add_argument("--all-to-all", action="store_true", help="emit every source/target pair")
    g.add_argument("--overlap", type=float, default=1.0)
    g.add_argument("--beta", type=float, default=None, help="override the noise bound")
    g.add_argument("--reference-cloud", action="store_true", help="use the bundled 40-point cloud")
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("register", help="register two point clouds from PLY files")
    r.add_argument("--src", required=True)
    r.add_argument("--dst", required=True)
    r.add_argument("--beta", type=float, required=True, help="per-point inlier noise bound")
    r.add_argument("--cbar-sq", type=float, default=1.0)
    r.add_argument("--known-scale", type=float, default=None)
    r.add_argument("--no-certify", action="store_true", help="skip rotation certification")
    r.add_argument(
        "--certify-max-k", type=int, default=RegistrationOptions.certify_max_k,
        help="skip certification above this many rotation measurements",
    )
    r.add_argument("--out", default=None, help="write the JSON result here instead of stdout")
    r.set_defaults(func=_cmd_register)

    c = sub.add_parser("certify", help="certify a saved rotation problem + candidate")
    c.add_argument("--problem", required=True, help="JSON with a_bars/b_bars/beta_bars/candidate")
    c.add_argument("--eta-target", type=float, default=1e-3)
    c.add_argument("--max-iters", type=int, default=200)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_certify)

    b = sub.add_parser("bench", help="Monte-Carlo outlier-rate sweep")
    b.add_argument("--rates", required=True, help="comma-separated outlier rates")
    b.add_argument("--n", type=int, default=100)
    b.add_argument("--trials", type=int, default=40)
    b.add_argument("--sigma", type=float, default=0.01)
    b.add_argument("--known-scale", action="store_true")
    b.add_argument("--certify", action="store_true")
    b.add_argument("--method", choices=["tls", "ransac"], default="tls")
    b.add_argument("--ransac-iters", type=int, default=1000)
    b.add_argument("--seed0", type=int, default=0)
    b.add_argument("--workers", type=int, default=None)
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InsufficientInliersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_INLIERS
    except (PlyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
