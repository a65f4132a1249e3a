"""Generator protocol, RANSAC baseline, file formats, and the CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tlsreg
from helpers import finite_trim_count, upper_trims
from tlsreg import synthetic
from tlsreg.geometry import TlsConfig, geodesic_rotation_error, quat_to_matrix
from tlsreg.invariants import build_measurement_graph
from tlsreg.pipeline import RegistrationOptions, RegistrationTrace, register
from tlsreg.plyio import (
    PlyError,
    read_ascii_ply,
    write_ascii_ply,
    write_labels,
)
from tlsreg.ransac import absolute_orientation, ransac_baseline
from tlsreg.synthetic import (
    BETA_SIGMA_FACTOR,
    MIN_BETA_OVER_SIGMA,
    SyntheticSpec,
    generate,
    load_reference_cloud,
)
from tlsreg.cli import main as cli_main


def chi2_3dof_density(t):
    return math.sqrt(t) * math.exp(-t / 2) / math.sqrt(2 * math.pi)


class TestGenerator:
    def test_noiseless_is_exact(self):
        c, gt, labels = generate(SyntheticSpec(n_points=30, sigma=0.0, seed=1))
        assert np.allclose(c.target, gt.apply(c.source), atol=0)
        assert labels.all()

    def test_outlier_count_is_deterministic(self):
        c, gt, labels = generate(
            SyntheticSpec(n_points=100, outlier_rate=0.9, seed=2)
        )
        assert int((~labels).sum()) == 90

    def test_reproducible_from_seed(self):
        a = generate(SyntheticSpec(n_points=50, outlier_rate=0.3, seed=33))
        b = generate(SyntheticSpec(n_points=50, outlier_rate=0.3, seed=33))
        assert np.array_equal(a[0].source, b[0].source)
        assert np.array_equal(a[0].target, b[0].target)
        assert np.array_equal(a[2], b[2])

    def test_noise_respects_bound(self):
        c, gt, labels = generate(SyntheticSpec(n_points=200, sigma=0.05, seed=3))
        res = np.linalg.norm(c.target - gt.apply(c.source), axis=1)
        assert np.all(res <= c.noise_bounds + 1e-12)

    def test_bounded_noise_replays_the_row_by_row_stream(self):
        # Oracle: one 3-vector per draw, kept when np.dot(e, e) <= beta^2.
        # The rows kept and the generator's state afterwards must match.
        def row_by_row(rng, n, sigma, beta):
            out = np.empty((n, 3))
            for i in range(n):
                e = rng.normal(0.0, sigma, size=3)
                while np.dot(e, e) > beta * beta:
                    e = rng.normal(0.0, sigma, size=3)
                out[i] = e
            return out

        for n, sigma, beta in ((1000, 0.01, 0.0554), (300, 1.0, 1.0),
                               (100, 1.0, MIN_BETA_OVER_SIGMA), (100, 0.01, 0.01)):
            for seed in (0, 1):
                ref, rng = synthetic._rng(seed), synthetic._rng(seed)
                expected = row_by_row(ref, n, sigma, beta)
                assert np.array_equal(synthetic._bounded_noise(rng, n, sigma, beta), expected)
                assert rng.random() == ref.random()

    def test_scale_measurement_bound_holds_empirically(self):
        # |s_ij - s| <= alpha_ij over inlier pairs, 10^4 samples.
        checked = 0
        seed = 0
        while checked < 10_000:
            seed += 1
            c, gt, labels = generate(SyntheticSpec(n_points=16, sigma=0.02, seed=seed))
            g = build_measurement_graph(c)
            s_meas, alpha = upper_trims(g.trims)
            assert s_meas.size == finite_trim_count(g.trims)
            assert np.all(np.abs(s_meas - gt.scale) <= alpha * (1 + 1e-9))
            checked += s_meas.size

    def test_default_bound_is_the_one_in_a_million_tail(self):
        # Independent oracle: quadrature of the chi2(3) density.  5.54 sigma
        # is the smallest two-decimal factor whose tail is within 1e-6.
        from scipy.integrate import quad

        def tail(factor):
            return quad(chi2_3dof_density, factor**2, math.inf)[0]

        assert tail(BETA_SIGMA_FACTOR) <= 1e-6 < tail(BETA_SIGMA_FACTOR - 0.01)
        assert SyntheticSpec(n_points=1, sigma=0.01).noise_bound == BETA_SIGMA_FACTOR * 0.01

    def test_bound_floor_keeps_the_redraws_finite(self):
        # Each row's noise is redrawn until it lands within beta; at the
        # floor a draw lands with probability >= 1.08e-3 (far below it the
        # redraws would not end, and the CLI exit-code test checks that
        # such a bound is refused).
        from scipy.integrate import quad

        assert quad(chi2_3dof_density, 0, MIN_BETA_OVER_SIGMA**2)[0] >= 1.08e-3
        c, gt, _ = generate(SyntheticSpec(n_points=3, sigma=1.0, beta=MIN_BETA_OVER_SIGMA))
        assert np.all(np.linalg.norm(c.target - gt.apply(c.source), axis=1) <= MIN_BETA_OVER_SIGMA)
        assert SyntheticSpec(n_points=3, sigma=0.0, beta=0.001).noise_bound == 0.001

    def test_known_scale_flag(self):
        c, gt, _ = generate(SyntheticSpec(n_points=10, known_scale=True, seed=4))
        assert gt.scale == 1.0

    def test_outliers_inside_radius(self):
        c, gt, labels = generate(
            SyntheticSpec(n_points=200, outlier_rate=0.5, seed=5)
        )
        assert np.all(np.linalg.norm(c.target[~labels], axis=1) <= 5.0)

    def test_all_to_all_mode(self):
        c, gt, labels = generate(
            SyntheticSpec(n_points=12, all_to_all=True, overlap_fraction=0.75, seed=6)
        )
        n_keep = round(0.75 * 12)
        assert len(c) == 12 * n_keep
        assert labels.sum() == n_keep
        # labeled pairs match the transform within the noise bound
        res = np.linalg.norm(c.target[labels] - gt.apply(c.source[labels]), axis=1)
        assert np.all(res <= c.noise_bounds[labels] + 1e-12)

    def test_reference_cloud(self):
        pts = load_reference_cloud()
        assert pts.shape == (40, 3)
        assert pts.min() >= 0 and pts.max() <= 1
        c, _, _ = generate(SyntheticSpec(n_points=40, use_reference_cloud=True, seed=7))
        assert np.array_equal(c.source, pts)


class TestRansac:
    def test_clean_data_near_exact(self):
        c, gt, _ = generate(SyntheticSpec(n_points=40, sigma=0.0, seed=8))
        rr = ransac_baseline(c, seed=1)
        assert geodesic_rotation_error(rr.transform.matrix, gt.rotation.to_matrix()) < 1e-6
        assert abs(rr.transform.scale - gt.scale) < 1e-6

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_rejects_fewer_than_one_iteration(self, max_iters):
        # No hypothesis is drawn: a pose fitted to every row would pass as
        # the sampler's answer.
        c, _, _ = generate(SyntheticSpec(n_points=20, outlier_rate=0.5, seed=8))
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            ransac_baseline(c, max_iters=max_iters)

    def test_fifty_percent_outliers(self):
        ok = 0
        for seed in range(100):
            c, gt, _ = generate(
                SyntheticSpec(n_points=50, sigma=0.01, outlier_rate=0.5, seed=seed)
            )
            rr = ransac_baseline(c, max_iters=1000, seed=seed)
            err = geodesic_rotation_error(rr.transform.matrix, gt.rotation.to_matrix())
            if math.degrees(err) < 3.0:
                ok += 1
        assert ok >= 95

    def test_ninetyfive_percent_outliers_often_fails(self):
        # Documented contrast case: the sampling baseline breaks down.
        ok = 0
        for seed in range(20):
            c, gt, _ = generate(
                SyntheticSpec(
                    n_points=100, sigma=0.01, outlier_rate=0.95, seed=seed, known_scale=True
                )
            )
            rr = ransac_baseline(c, max_iters=1000, seed=seed, known_scale=1.0)
            err = geodesic_rotation_error(rr.transform.matrix, gt.rotation.to_matrix())
            if math.degrees(err) < 3.0:
                ok += 1
        assert ok < 20

    def test_absolute_orientation_recovers_similarity(self):
        rng = np.random.default_rng(0)
        src = rng.uniform(0, 1, size=(10, 3))
        from tlsreg.geometry import random_unit_quaternion

        R = quat_to_matrix(random_unit_quaternion(rng))
        s_true, t_true = 2.5, np.array([0.3, -0.2, 0.7])
        dst = s_true * src @ R.T + t_true
        s, q, R_est, t = absolute_orientation(src, dst)
        assert abs(s - s_true) < 1e-10
        assert np.allclose(R_est, R, atol=1e-10)
        assert np.array_equal(quat_to_matrix(q), R_est)
        assert np.allclose(t, t_true, atol=1e-10)


class TestPlyIo:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, size=(17, 3))
        path = tmp_path / "cloud.ply"
        write_ascii_ply(path, pts)
        assert np.array_equal(read_ascii_ply(path), pts)

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([True, False, True, True])
        path = tmp_path / "labels.txt"
        write_labels(path, labels)
        assert path.read_text() == "1\n0\n1\n1\n"

    def test_extra_properties_are_skipped(self, tmp_path):
        path = tmp_path / "colored.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property uchar red\nend_header\n"
            "0 1 2 255\n3 4 5 0\n"
        )
        pts = read_ascii_ply(path)
        assert np.array_equal(pts, [[0, 1, 2], [3, 4, 5]])

    def test_malformed_file_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 1 2\n3 oops 5\n"
        )
        with pytest.raises(PlyError) as err:
            read_ascii_ply(path)
        assert err.value.line == 9

    def test_binary_format_rejected(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(PlyError):
            read_ascii_ply(path)


class TestCli:
    def test_generate_register_round_trip(self, tmp_path):
        prefix = tmp_path / "inst"
        rc = cli_main(
            [
                "generate", "--n", "40", "--sigma", "0.01", "--outlier-rate", "0.5",
                "--seed", "7", "--known-scale", "--out", str(prefix),
            ]
        )
        assert rc == 0
        out = tmp_path / "result.json"
        rc = cli_main(
            [
                "register", "--src", f"{prefix}_src.ply", "--dst", f"{prefix}_dst.ply",
                "--beta", "0.0554", "--known-scale", "1.0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "2"
        assert set(doc) == {"schema_version", "transform", "inlier_indices", "trace"}
        meta = json.loads(Path(f"{prefix}_meta.json").read_text())
        gt_q = np.array(meta["ground_truth"]["quaternion_xyzw"])
        est_q = np.array(doc["transform"]["quaternion_xyzw"])
        err = geodesic_rotation_error(quat_to_matrix(gt_q), quat_to_matrix(est_q))
        assert math.degrees(err) < 1.0
        assert doc["trace"]["certificate_verdict"] == "certified"

    @pytest.mark.parametrize(
        "flags, certificate",
        [([], "verdict"), (["--no-certify"], None), (["--certify-max-k", "3"], "skipped")],
    )
    def test_register_runs_the_cascade_once(self, tmp_path, monkeypatch, capsys, flags, certificate):
        import tlsreg.cli as cli

        prefix = tmp_path / "inst"
        cli_main(["generate", "--n", "12", "--seed", "7", "--known-scale", "--out", str(prefix)])
        calls = []
        real_register = cli.register

        def counting_register(*args, **kwargs):
            calls.append(args)
            return real_register(*args, **kwargs)

        monkeypatch.setattr(cli, "register", counting_register)
        capsys.readouterr()
        rc = cli_main(
            [
                "register", "--src", f"{prefix}_src.ply", "--dst", f"{prefix}_dst.ply",
                "--beta", "0.0554", "--known-scale", "1.0", *flags,
            ]
        )
        assert rc == 0 and len(calls) == 1
        out = capsys.readouterr()
        trace = json.loads(out.out)["trace"]
        assert (trace["certificate_verdict"] is not None) is (certificate == "verdict")
        if certificate == "skipped":
            k = trace["rotation_edges"]
            assert trace["certify_skipped_k"] == k
            assert f"{k} rotation measurements exceed --certify-max-k=3" in out.err
        else:
            assert trace["certify_skipped_k"] is None and out.err == ""

    @pytest.mark.parametrize("scale_flags", [[], ["--known-scale", "1.0"]])
    def test_register_json_carries_scale_hypotheses(self, tmp_path, scale_flags):
        prefix = tmp_path / "inst"
        cli_main(["generate", "--n", "30", "--outlier-rate", "0.4", "--seed", "9",
                  "--known-scale", "--out", str(prefix)])
        out = tmp_path / "result.json"
        rc = cli_main(
            [
                "register", "--src", f"{prefix}_src.ply", "--dst", f"{prefix}_dst.ply",
                "--beta", "0.0554", "--no-certify", *scale_flags, "--out", str(out),
            ]
        )
        assert rc == 0
        trace = json.loads(out.read_text())["trace"]
        tried = trace["scale_hypotheses"]
        assert tried and all(
            isinstance(scale, float) and isinstance(size, int) for scale, size in tried
        )
        assert max(size for _, size in tried) == trace["clique_size"]
        if scale_flags:
            assert tried == [[1.0, trace["clique_size"]]] and trace["vote_s"] == 0.0

    def test_generate_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            cli_main(
                [
                    "generate", "--n", "30", "--outlier-rate", "0.4", "--seed", "9",
                    "--out", str(tmp_path / sub),
                ]
            )
        for suffix in ("_src.ply", "_dst.ply", "_labels.txt"):
            a = (tmp_path / ("a" + suffix)).read_bytes()
            b = (tmp_path / ("b" + suffix)).read_bytes()
            assert a == b

    def test_register_insufficient_inliers_exit_code(self, tmp_path):
        rng = np.random.default_rng(0)
        write_ascii_ply(tmp_path / "s.ply", rng.uniform(0, 1, size=(10, 3)))
        write_ascii_ply(tmp_path / "d.ply", rng.uniform(-4, 4, size=(10, 3)))
        rc = cli_main(
            [
                "register", "--src", str(tmp_path / "s.ply"), "--dst", str(tmp_path / "d.ply"),
                "--beta", "1e-5", "--known-scale", "1.0",
            ]
        )
        assert rc == 2

    def test_register_missing_file_exit_code(self, tmp_path):
        rc = cli_main(
            [
                "register", "--src", str(tmp_path / "none.ply"), "--dst", str(tmp_path / "none.ply"),
                "--beta", "0.1",
            ]
        )
        assert rc == 3

    @staticmethod
    def _certify_problem(tmp_path, flipped=0):
        """Noise-free ground-truth candidate, the first `flipped` inliers
        marked as outliers, saved for `tlsreg certify`."""
        from tlsreg.synthetic import generate as gen

        c, gt, _ = gen(SyntheticSpec(n_points=12, sigma=0.0, seed=3, known_scale=True))
        g = build_measurement_graph(c)
        a_bars, b_bars, beta_bars = g.tims.at(np.column_stack(np.triu_indices(len(c), k=1)))
        thetas = [1] * len(g.tims)
        thetas[:flipped] = [-1] * flipped
        problem_doc = {
            "a_bars": a_bars.tolist(),
            "b_bars": b_bars.tolist(),
            "beta_bars": beta_bars.tolist(),
            "cbar_sq": 1.0,
            "quaternion_xyzw": gt.rotation.as_array().tolist(),
            "thetas": thetas,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_doc))
        return path

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: {**d, "a_bars": d["a_bars"][:1], "b_bars": d["b_bars"][:1],
                       "beta_bars": d["beta_bars"][:1], "thetas": d["thetas"][:1]},
            lambda d: [d],
            lambda d: {**d, "b_bars": d["b_bars"][:-1]},
            lambda d: {**d, "thetas": [0] * len(d["thetas"])},
            lambda d: {**d, "thetas": [1.7] * len(d["thetas"])},
            lambda d: {**d, "b_bars": [[math.nan, 0.0, 0.0]] + d["b_bars"][1:]},
            # certify's own check; numpy warns of the overflow on the way.
            pytest.param(
                lambda d: {**d, "a_bars": [[1e300] * 3] * len(d["a_bars"]),
                           "beta_bars": [1e-10] * len(d["beta_bars"])},
                marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
            ),
        ],
        ids=["one-measurement", "top-level-list", "mismatched-shapes", "thetas-not-signs",
             "thetas-not-integers", "nan", "cost-matrix-not-finite"],
    )
    def test_certify_malformed_problem_exit_code(self, tmp_path, capsys, edit):
        path = self._certify_problem(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        rc = cli_main(["certify", "--problem", str(path)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "flags",
        [["--known-scale", "-1"], ["--known-scale", "nan"], ["--beta", "inf"],
         ["--cbar-sq", "inf"], ["--certify-max-k", "-1"]],
        ids=["negative-scale", "nan-scale", "infinite-beta", "infinite-cbar-sq", "negative-max-k"],
    )
    def test_register_out_of_range_option_exit_code(self, tmp_path, capsys, flags):
        prefix = tmp_path / "inst"
        cli_main(["generate", "--n", "12", "--seed", "7", "--known-scale", "--out", str(prefix)])
        capsys.readouterr()
        rc = cli_main(
            ["register", "--src", f"{prefix}_src.ply", "--dst", f"{prefix}_dst.ply",
             "--beta", "0.0554", *flags]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "flags",
        [["--max-iters", "0"], ["--eta-target", "nan"], ["--eta-target", "-1"],
         ["--eta-target", "inf"]],
        ids=["zero-iters", "nan-eta", "negative-eta", "infinite-eta"],
    )
    def test_certify_out_of_range_option_exit_code(self, tmp_path, capsys, flags):
        path = self._certify_problem(tmp_path)
        out = tmp_path / "cert.json"
        rc = cli_main(["certify", "--problem", str(path), "--out", str(out), *flags])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["bench", "--rates", "0.5,abc"], ["bench", "--rates", "1.5"],
         ["bench", "--rates", "0.5", "--trials", "0"],
         ["bench", "--rates", "0.5", "--method", "ransac", "--ransac-iters", "0"],
         ["generate", "--n", "0"],
         ["generate", "--n", "12", "--outlier-rate", "1.5"],
         ["generate", "--n", "12", "--overlap", "0"],
         ["generate", "--n", "12", "--beta", "nan"],
         ["generate", "--n", "3", "--sigma", "1", "--beta", "0.001"],
         ["generate", "--n", "12", "--seed", "-1"]],
        ids=["bench-malformed-rate", "bench-rate-above-one", "bench-zero-trials",
             "bench-zero-ransac-iters",
             "generate-zero-points", "generate-rate-above-one", "generate-zero-overlap",
             "generate-nan-beta", "generate-beta-far-below-sigma", "generate-negative-seed"],
    )
    def test_generate_and_bench_out_of_range_option_exit_code(self, tmp_path, capsys, argv):
        rc = cli_main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not any(tmp_path.iterdir())

    def test_certify_subcommand(self, tmp_path):
        path = self._certify_problem(tmp_path)
        out = tmp_path / "cert.json"
        rc = cli_main(["certify", "--problem", str(path), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "certified"
        assert doc["eta"] < 1e-3

    def test_certify_subcommand_normalizes_the_quaternion(self, tmp_path):
        # The candidate's cost is positive (three inliers marked outliers),
        # so a cost check at the raw quaternion would not match mu_hat.
        path = self._certify_problem(tmp_path, flipped=3)
        doc = json.loads(path.read_text())
        docs = []
        for factor in (1.0, 2.0):
            q = [factor * x for x in doc["quaternion_xyzw"]]
            path.write_text(json.dumps({**doc, "quaternion_xyzw": q}))
            out = tmp_path / f"cert{factor}.json"
            assert cli_main(["certify", "--problem", str(path), "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        unit, scaled = docs
        assert unit["mu_hat"] > 0
        assert (scaled["verdict"], scaled["iterations"]) == (unit["verdict"], unit["iterations"])

    def test_certify_subcommand_rejects_corrupted_candidate_early(self, tmp_path):
        path = self._certify_problem(tmp_path, flipped=3)
        out = tmp_path / "cert.json"
        rc = cli_main(["certify", "--problem", str(path), "--max-iters", "200", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "suboptimal"
        assert doc["iterations"] < 200

    def test_bench_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = cli_main(
            [
                "bench", "--rates", "0,0.5", "--n", "40", "--trials", "3",
                "--known-scale", "--seed0", "5", "--workers", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 6
        assert len(doc["aggregates"]) == 2
        assert all(not r["failed"] for r in doc["records"])

    def test_worker_count_is_capped_at_the_cpu_count(self):
        from tlsreg.cli import _worker_count

        cpus = os.cpu_count() or 1
        assert _worker_count(None) == cpus
        assert _worker_count(1) == 1
        assert _worker_count(10 * cpus) == cpus
        assert _worker_count(-3) == 1

    @staticmethod
    def _run_python(*args):
        # The subprocess must import the same tlsreg as this test run.
        src = str(Path(tlsreg.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, path] if path else [src])}
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env,
        )

    def test_console_entry_point(self):
        proc = self._run_python("-m", "tlsreg.cli", "--help")
        assert proc.returncode == 0
        assert "generate" in proc.stdout

    def test_import_loads_no_heavy_scipy_module(self):
        # A fresh interpreter: other tests import scipy.integrate in-process.
        # scipy.spatial alone adds about 8 MB of RSS to every run, and
        # scipy.linalg, which only the certifier needs, about 27 MB.  Nor
        # does a register call that does not certify load scipy.linalg or
        # numpy.ma (numpy < 2 imports numpy.ma with itself).
        proc = self._run_python("-c", """
import sys
import numpy
before = set(sys.modules)
import tlsreg, tlsreg.cli
from tlsreg.synthetic import SyntheticSpec, generate
for known_scale in (True, False):
    c, gt, _ = generate(SyntheticSpec(n_points=40, outlier_rate=0.5, seed=2,
                                      known_scale=known_scale))
    scale = gt.scale if known_scale else None
    tlsreg.register(c, tlsreg.TlsConfig(), tlsreg.RegistrationOptions(known_scale=scale))
print(sorted(m for m in ('scipy.spatial', 'scipy.stats', 'scipy.integrate',
                         'scipy.optimize', 'scipy.linalg', 'numpy.ma')
             if m in sys.modules and m not in before))
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_first_certification_loads_scipy_linalg(self):
        # The same certificate as in this process, where scipy.linalg may
        # already have been loaded.
        spec = SyntheticSpec(n_points=30, outlier_rate=0.4, seed=9)
        options = RegistrationOptions(certify_rotation=True)
        cert = register(generate(spec)[0], TlsConfig(), options).certificate
        assert cert is not None and cert.verdict.value == "certified"

        proc = self._run_python("-c", """
import json, sys
import tlsreg
from tlsreg.synthetic import SyntheticSpec, generate
c, _, _ = generate(SyntheticSpec(n_points=30, outlier_rate=0.4, seed=9))
loaded = 'scipy.linalg' in sys.modules
options = tlsreg.RegistrationOptions(certify_rotation=True)
cert = tlsreg.register(c, tlsreg.TlsConfig(), options).certificate
print(json.dumps([loaded, 'scipy.linalg' in sys.modules, cert.verdict.value,
                  cert.eta, cert.iterations_used]))
""")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            False, True, cert.verdict.value, cert.eta, cert.iterations_used,
        ]

    def test_bench_sweep_matches_robustness_expectations(self, tmp_path):
        # Reduced-trial version of the headline sweep: median rotation
        # error stays under a degree through 90% outliers.
        out = tmp_path / "sweep.json"
        rc = cli_main(
            [
                "bench", "--rates", "0,0.5,0.9", "--n", "100", "--trials", "10",
                "--known-scale", "--seed0", "100", "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        for agg in doc["aggregates"]:
            assert agg["n_failed"] == 0
            assert math.degrees(agg["rotation_error_rad"]["median"]) < 1.0
            assert agg["translation_error"]["median"] < 0.05

    def test_bench_records_carry_the_trace(self, tmp_path):
        names = {f.name for f in dataclasses.fields(RegistrationTrace)}
        for method in ("tls", "ransac"):
            out = tmp_path / f"{method}.json"
            cli_main(
                [
                    "bench", "--rates", "0.5", "--n", "40", "--trials", "2", "--known-scale",
                    "--method", method, "--workers", "1", "--out", str(out),
                ]
            )
            for rec in json.loads(out.read_text())["records"]:
                if method == "tls":
                    assert set(rec["trace"]) == names
                else:
                    assert rec["trace"] is None

    def test_the_trace_is_one_record_everywhere(self, tmp_path):
        # One instance registered by the library, by `tlsreg register` and
        # by `tlsreg bench`: the same trace fields, holding the same values
        # but the times.
        def untimed(trace):
            # Read back as the CLI writes it: JSON has lists, not tuples.
            doc = json.loads(json.dumps(trace))
            return {k: v for k, v in doc.items() if not k.endswith("_s")}

        def plain(v):
            return v is None or type(v) in (bool, int, float, str) or (
                type(v) is tuple and all(map(plain, v))
            )

        c, _, _ = generate(SyntheticSpec(n_points=30, outlier_rate=0.4, seed=9))
        lib = register(c, TlsConfig(), RegistrationOptions(certify_rotation=True)).trace
        lib = dataclasses.asdict(lib)
        assert all(map(plain, lib.values()))
        assert lib["certificate_verdict"] == "certified"

        prefix, out = tmp_path / "inst", tmp_path / "result.json"
        cli_main(["generate", "--n", "30", "--outlier-rate", "0.4", "--seed", "9",
                  "--out", str(prefix)])
        beta = json.loads(Path(f"{prefix}_meta.json").read_text())["noise_bound"]
        assert np.all(c.noise_bounds == beta)
        cli_main(["register", "--src", f"{prefix}_src.ply", "--dst", f"{prefix}_dst.ply",
                  "--beta", repr(beta), "--out", str(out)])
        cli_trace = json.loads(out.read_text())["trace"]

        bench_out = tmp_path / "bench.json"
        cli_main(["bench", "--rates", "0.4", "--n", "30", "--trials", "1", "--seed0", "9",
                  "--certify", "--workers", "1", "--out", str(bench_out)])
        bench_trace = json.loads(bench_out.read_text())["records"][0]["trace"]

        names = {f.name for f in dataclasses.fields(RegistrationTrace)}
        assert set(cli_trace) == set(bench_trace) == set(lib) == names
        assert untimed(cli_trace) == untimed(bench_trace) == untimed(lib)
