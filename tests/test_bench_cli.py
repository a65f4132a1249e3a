"""Generator protocol, RANSAC baseline, file formats, and the CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tlsreg
from tlsreg.geometry import geodesic_rotation_error
from tlsreg.invariants import build_measurement_graph
from tlsreg.plyio import (
    PlyError,
    read_ascii_ply,
    read_labels,
    write_ascii_ply,
    write_labels,
)
from tlsreg.ransac import absolute_orientation, ransac_baseline
from tlsreg.synthetic import SyntheticSpec, generate, load_reference_cloud
from tlsreg.cli import main as cli_main


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

    def test_scale_measurement_bound_holds_empirically(self):
        # |s_ij - s| <= alpha_ij over inlier pairs, 10^4 samples.
        checked = 0
        seed = 0
        while checked < 10_000:
            seed += 1
            c, gt, labels = generate(SyntheticSpec(n_points=16, sigma=0.02, seed=seed))
            g = build_measurement_graph(c)
            assert np.all(
                np.abs(g.trims.s_meas - gt.scale) <= g.trims.alpha * (1 + 1e-9)
            )
            checked += len(g.trims)

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
        from tlsreg.geometry import quat_to_matrix, random_unit_quaternion

        R = quat_to_matrix(random_unit_quaternion(rng))
        s_true, t_true = 2.5, np.array([0.3, -0.2, 0.7])
        dst = s_true * src @ R.T + t_true
        s, R_est, t = absolute_orientation(src, dst)
        assert abs(s - s_true) < 1e-10
        assert np.allclose(R_est, R, atol=1e-10)
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
        assert np.array_equal(read_labels(path), labels)

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
        assert doc["schema_version"] == "1"
        meta = json.loads(Path(f"{prefix}_meta.json").read_text())
        gt_q = np.array(meta["ground_truth"]["quaternion_xyzw"])
        est_q = np.array(doc["transform"]["quaternion_xyzw"])
        from tlsreg.geometry import quat_to_matrix

        err = geodesic_rotation_error(quat_to_matrix(gt_q), quat_to_matrix(est_q))
        assert math.degrees(err) < 1.0
        assert doc["certificate"]["verdict"] == "certified"

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
        doc = json.loads(out.out)
        assert doc["schema_version"] == "1"
        if certificate is None:
            assert "certificate" not in doc
        else:
            assert certificate in doc["certificate"]
        if certificate == "skipped":
            k = doc["stage_stats"]["rotation_edges"]
            assert doc["certificate"] == {"skipped": f"{k} measurements exceed certify-max-k"}
            assert doc["stage_stats"]["certify_skipped_k"] == k
            assert f"{k} rotation measurements exceed --certify-max-k=3" in out.err

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

    def test_certify_subcommand(self, tmp_path):
        path = self._certify_problem(tmp_path)
        out = tmp_path / "cert.json"
        rc = cli_main(["certify", "--problem", str(path), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "certified"
        assert doc["eta"] < 1e-3

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

    def test_console_entry_point(self):
        # The subprocess must import the same tlsreg as this test run.
        src = str(Path(tlsreg.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, path] if path else [src])}
        proc = subprocess.run(
            [sys.executable, "-m", "tlsreg.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout

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

    def test_bench_records_carry_stage_timings(self, tmp_path):
        out = tmp_path / "b.json"
        cli_main(
            [
                "bench", "--rates", "0.5", "--n", "40", "--trials", "2",
                "--known-scale", "--workers", "1", "--out", str(out),
            ]
        )
        doc = json.loads(out.read_text())
        for rec in doc["records"]:
            assert set(rec["stage_timings"]) >= {"scale", "clique", "rotation", "translation"}
