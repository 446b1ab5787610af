"""Acceptance gate: one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL/SKIP
line per criterion. Criterion 1 needs the real 10000-row churn CSV (see
scripts/fetch_churn_data.py); it SKIPs explicitly when the file is absent.
All other criteria run unconditionally on fixtures.
"""

import math
import time

import numpy as np
import pytest

from edakit import assoc, cleanse, cluster, pca, stats, timeseries
from edakit.cli import main
from edakit.report import Verdict, churn_pipeline
from edakit.table import boolean_column, numeric_column, read_csv

from conftest import kaggle_csv
from _oracles import (
    o_average_ranks,
    o_kendall_tau_b,
    o_kurtosis_excess,
    o_mean,
    o_median,
    o_mode_smallest,
    o_pearson,
    o_quantile,
    o_skew_moment,
    o_skew_pearson2,
    o_std,
    o_variance,
)


def report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    assert not failures, f"{criterion}: {failures[:5]}"


def close(a, b, rel=1e-9, abs_tol=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


class TestCriterion1CaseStudy:
    def test_case_study_reproduction(self):
        path = kaggle_csv()
        if path is None:
            print("\nACCEPTANCE C1 case-study reproduction: SKIP "
                  "(Churn_Modelling.csv not present; see scripts/fetch_churn_data.py)")
            pytest.skip("criterion 1 SKIP: Kaggle Churn_Modelling.csv not present")
        failures = []
        start = time.perf_counter()
        t = read_csv(path)
        r = churn_pipeline(t)
        elapsed = time.perf_counter() - start
        if r.row_count != 10000:
            failures.append(f"row_count {r.row_count} != 10000")
        if not 0.70 <= r.hascrcard_rate <= 0.72:
            failures.append(f"hascrcard_rate {r.hascrcard_rate}")
        if not 0.19 <= r.churn_rate <= 0.21:
            failures.append(f"churn_rate {r.churn_rate}")
        if r.credit_score_stats.max != 850.0:
            failures.append(f"credit max {r.credit_score_stats.max}")
        by_id = {f.claim_id: f for f in r.findings}
        center = by_id["F2"].measured["modal_bin_center"]
        if not 600.0 <= center <= 700.0:
            failures.append(f"modal bin center {center}")
        if not abs(r.credit_age_pearson) < 0.1:
            failures.append(f"credit/age pearson {r.credit_age_pearson}")
        if r.geography_counts.rows[0].label != "France":
            failures.append(f"modal geography {r.geography_counts.rows[0].label}")
        if r.evaluated and any(
            by_id[i].verdict is Verdict.FAIL
            for i in ("F1", "F2", "F3", "F9", "F10", "F11")
        ):
            failures.append("anchored findings failed on the reference data")
        if elapsed >= 5.0:
            failures.append(f"runtime {elapsed:.2f}s >= 5s")
        report("C1 case-study reproduction", failures)


def _random_column(rng):
    n = int(rng.integers(5, 501))
    style = int(rng.integers(0, 4))
    if style == 0:
        values = rng.uniform(-100, 100, n)
    elif style == 1:
        values = rng.normal(rng.uniform(-50, 50), rng.uniform(0.5, 20), n)
    elif style == 2:
        values = rng.exponential(rng.uniform(0.5, 10), n) + rng.uniform(-5, 5)
    else:
        values = rng.integers(-30, 30, n).astype(float)
    return [float(v) for v in values]


class TestCriterion2StatisticsOracle:
    def test_thousand_columns_match_oracle(self):
        failures = []
        rng = np.random.default_rng(20240)
        start = time.perf_counter()
        checked = 0
        while checked < 1000:
            xs = _random_column(rng)
            if o_variance(xs) == 0:
                continue
            checked += 1
            c = numeric_column("v", xs)
            s = stats.summarize(c)
            pairs = [
                ("mean", s.mean, o_mean(xs)),
                ("median", s.median, o_median(xs)),
                ("min", s.min, min(xs)),
                ("max", s.max, max(xs)),
                ("range", s.range, max(xs) - min(xs)),
                ("variance", s.variance, o_variance(xs)),
                ("std", s.std, o_std(xs)),
                ("q1", s.q1, o_quantile(xs, 25)),
                ("q3", s.q3, o_quantile(xs, 75)),
                ("iqr", s.iqr, o_quantile(xs, 75) - o_quantile(xs, 25)),
                ("skew_pearson", s.skew_pearson, o_skew_pearson2(xs)),
                ("skew_pearson2_op", stats.skewness(c), o_skew_pearson2(xs)),
            ]
            if len(xs) >= 3:
                pairs.append(("skew_moment", s.skew_moment, o_skew_moment(xs)))
                pairs.append(
                    ("skew_moment_op", stats.skewness(c, stats.SkewMode.MOMENT), o_skew_moment(xs))
                )
            if len(xs) >= 4:
                pairs.append(("kurtosis", s.kurtosis_excess, o_kurtosis_excess(xs)))
                pairs.append(("kurtosis_op", stats.kurtosis(c)[0], o_kurtosis_excess(xs)))
            for p in (float(rng.uniform(0, 100)), 25.0, 97.5):
                pairs.append((f"percentile_{p:.3f}", stats.percentile(c, p), o_quantile(xs, p)))
            if s.mode != o_mode_smallest(xs):
                failures.append(f"mode mismatch on column {checked}")
            for name, got, want in pairs:
                if not close(got, want):
                    failures.append(f"{name}: {got} vs {want} (column {checked})")
            if failures:
                break
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.2f}s >= 10s")
        report("C2 statistics oracle suite (1000 columns)", failures)


class TestCriterion3CorrelationIdentities:
    def test_identities_and_kendall_oracle(self):
        failures = []
        rng = np.random.default_rng(777)
        for trial in range(500):
            n = int(rng.integers(5, 101))
            xs = [float(v) for v in rng.uniform(-10, 10, n)]
            ys = [float(v) for v in np.round(rng.uniform(-5, 5, n), 1)]  # ties likely
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            cx = numeric_column("x", xs)
            cy = numeric_column("y", ys)

            got = assoc.spearman(cx, cy)
            want = o_pearson(o_average_ranks(xs), o_average_ranks(ys))
            if abs(got - want) > 1e-12:
                failures.append(f"spearman trial {trial}: {got} vs {want}")

            b = [int(v) for v in rng.integers(0, 2, n)]
            if len(set(b)) == 2:
                got = assoc.point_biserial(boolean_column("b", b), cy)
                want = o_pearson([float(v) for v in b], ys)
                if abs(got - want) > 1e-12:
                    failures.append(f"point_biserial trial {trial}")

            b2 = [int(v) for v in rng.integers(0, 2, n)]
            if len(set(b)) == 2 and len(set(b2)) == 2:
                got = assoc.phi(boolean_column("a", b), boolean_column("b", b2))
                want = o_pearson([float(v) for v in b], [float(v) for v in b2])
                if abs(got - want) > 1e-12:
                    failures.append(f"phi trial {trial}")

            got = assoc.kendall_tau(cx, cy)
            want = o_kendall_tau_b(xs, ys)
            if got != want:
                failures.append(f"kendall trial {trial}: {got} != {want}")
            if failures:
                break
        report("C3 correlation identity suite (500 inputs)", failures)


class TestCriterion4Pca:
    def test_pca_contract(self):
        failures = []
        rng = np.random.default_rng(4)
        for trial in range(20):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(d + 2, 60))
            data = rng.normal(0, 1, (n, d)) @ np.diag(rng.uniform(0.5, 3, d))
            data = data + rng.uniform(-5, 5, d)
            k = d
            m = pca.fit_pca(data, min(k, n - 1))
            kk = m.components.shape[0]
            gram = m.components @ m.components.T
            if not np.allclose(gram, np.eye(kk), atol=1e-8):
                failures.append(f"orthonormality trial {trial}")
            cov = np.cov(data, rowvar=False, ddof=1)
            want = np.sort(np.linalg.eigvalsh(cov))[::-1][:kk]
            if not np.allclose(m.explained_variance, want, atol=1e-8):
                failures.append(f"eigenvalue oracle trial {trial}")
            if kk == d:
                back = pca.reconstruct(m, pca.transform_pca(m, data))
                if not np.allclose(back, data, atol=1e-8):
                    failures.append(f"round trip trial {trial}")
        rank1 = np.outer(np.arange(1.0, 7.0), np.array([0.6, -0.8]))
        m = pca.fit_pca(rank1, 1)
        if not math.isclose(float(m.explained_ratio[0]), 1.0, abs_tol=1e-12):
            failures.append(f"rank-1 ratio {m.explained_ratio[0]}")
        report("C4 PCA orthonormality/oracle/round-trip/rank-1", failures)


class TestCriterion5Clustering:
    def test_kmeans_gmm_dbscan_contracts(self):
        failures = []
        rng = np.random.default_rng(5)

        for trial in range(100):
            centers = rng.uniform(-10, 10, (int(rng.integers(2, 5)), 2))
            data = np.vstack(
                [rng.normal(c, rng.uniform(0.2, 1.5), (int(rng.integers(8, 25)), 2)) for c in centers]
            )
            k = int(rng.integers(1, min(6, len(data))))
            r = cluster.kmeans(data, k, seed=trial)
            h = r.inertia_history
            if not all(h[i] >= h[i + 1] - 1e-9 for i in range(len(h) - 1)):
                failures.append(f"kmeans inertia not monotone, trial {trial}")
            d2 = ((data[:, None, :] - r.centroids[None, :, :]) ** 2).sum(axis=2)
            if not np.array_equal(tuple(int(v) for v in np.argmin(d2, axis=1)), r.labels):
                failures.append(f"kmeans fixed point violated, trial {trial}")
            if failures:
                break

        toy = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        inertia = cluster.kmeans(toy, 2, seed=0).inertia
        if not math.isclose(inertia, 1.0, abs_tol=1e-12):
            failures.append(f"toy inertia {inertia}")

        for trial in range(20):
            data = np.vstack(
                [rng.normal((0, 0), 1.0, (30, 2)), rng.normal((6, 3), 1.0, (30, 2))]
            )
            m = cluster.gmm(data, 2, seed=trial)
            h = m.log_likelihood_history
            if not all(h[i + 1] >= h[i] - 1e-10 for i in range(len(h) - 1)):
                failures.append(f"gmm log-likelihood decreased, trial {trial}")
                break

        for trial in range(50):
            data = np.vstack(
                [rng.normal(c, 0.4, (12, 2)) for c in ((0, 0), (5, 5), (10, 0))]
            )
            base = cluster.dbscan(data, eps=1.0, min_pts=3)
            perm = rng.permutation(len(data))
            permuted = cluster.dbscan(data[perm], eps=1.0, min_pts=3)
            inv = np.empty(len(perm), dtype=int)
            inv[perm] = np.arange(len(perm))
            mapped = tuple(permuted.labels[inv[i]] for i in range(len(data)))

            def partition(labels):
                groups = {}
                for idx, lab in enumerate(labels):
                    groups.setdefault(lab, set()).add(idx)
                noise = groups.pop(-1, set())
                return set(frozenset(g) for g in groups.values()), noise

            if partition(base.labels) != partition(mapped):
                failures.append(f"dbscan partition changed under permutation, trial {trial}")
                break

        report("C5 clustering contracts", failures)


class TestCriterion6TimeSeries:
    def test_time_series_contract(self):
        failures = []
        rng = np.random.default_rng(6)

        for period in (4, 7, 12):
            base = [0.3 * t + 4 * math.sin(2 * math.pi * t / period) for t in range(6 * period)]
            s = timeseries.series(
                [b + float(e) for b, e in zip(base, rng.normal(0, 0.3, len(base)))]
            )
            d = timeseries.decompose_additive(s, period)
            for t, (tr, res) in enumerate(zip(d.trend, d.residual)):
                if math.isnan(tr):
                    continue
                if abs(tr + d.seasonal[t] + res - s.values[t]) > 1e-9:
                    failures.append(f"decompose identity broke at period {period} index {t}")
                    break

        noise = timeseries.series(list(rng.normal(0, 1, 100)))
        if timeseries.acf(noise, 5)[0] != 1.0:
            failures.append("acf(0) != 1")

        alt = timeseries.series([1.0, -1.0] * 3)
        if not math.isclose(timeseries.acf(alt, 1)[1], -5 / 6, abs_tol=1e-12):
            failures.append(f"alternating acf(1) {timeseries.acf(alt, 1)[1]}")

        e = rng.normal(0, 1, 400)
        x = np.zeros(400)
        for t in range(2, 400):
            x[t] = 0.5 * x[t - 1] - 0.25 * x[t - 2] + e[t]
        s = timeseries.series(list(x))
        r = timeseries.acf(s, 5)
        got = timeseries.pacf(s, 5)
        for h in range(1, 6):
            toeplitz = np.array([[r[abs(i - j)] for j in range(h)] for i in range(h)])
            want = float(np.linalg.solve(toeplitz, np.array(r[1 : h + 1]))[-1])
            if abs(got[h] - want) > 1e-6:
                failures.append(f"pacf lag {h}: {got[h]} vs {want}")

        report("C6 time series contracts", failures)


class TestCriterion7Determinism:
    def test_seeded_cli_and_svg_stability(self, capsys, fixture_csv, tmp_path):
        failures = []
        seeded_cmds = [
            ["cluster", str(fixture_csv), "--algo", "kmeans", "--k", "3",
             "--seed", "11", "--columns", "CreditScore,Age,Balance"],
            ["cluster", str(fixture_csv), "--algo", "gmm", "--k", "2",
             "--seed", "11", "--columns", "CreditScore,Age"],
        ]
        unseeded_cmds = [
            ["describe", str(fixture_csv)],
            ["corr", str(fixture_csv), "--method", "spearman"],
            ["pca", str(fixture_csv), "--components", "2", "--columns", "CreditScore,Age,Balance"],
            ["timeseries", str(fixture_csv), "--column", "EstimatedSalary", "--op", "acf",
             "--max-lag", "5"],
        ]
        for argv in seeded_cmds + unseeded_cmds:
            outs = []
            for _ in range(2):
                code = main(argv)
                captured = capsys.readouterr()
                outs.append((code, captured.out))
            if outs[0] != outs[1]:
                failures.append(f"stdout differs for {argv[0]}")

        for name, argv in [
            ("hist", ["plot", str(fixture_csv), "--kind", "hist", "--column", "CreditScore"]),
            ("heatmap", ["plot", str(fixture_csv), "--kind", "heatmap"]),
            ("scatter", ["plot", str(fixture_csv), "--kind", "scatter", "--x", "CreditScore",
                         "--y", "Age"]),
        ]:
            p1 = tmp_path / f"{name}_1.svg"
            p2 = tmp_path / f"{name}_2.svg"
            main(argv + ["--out", str(p1)])
            main(argv + ["--out", str(p2)])
            capsys.readouterr()
            if p1.read_bytes() != p2.read_bytes():
                failures.append(f"SVG bytes differ for {name}")

        d1, d2 = tmp_path / "rep1", tmp_path / "rep2"
        for d in (d1, d2):
            main(["churn-report", str(fixture_csv), "--out", str(d)])
            capsys.readouterr()
        for rel in sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file()):
            if (d1 / rel).read_bytes() != (d2 / rel).read_bytes():
                failures.append(f"artifact differs: {rel}")

        report("C7 determinism (seeded CLI + SVG bytes)", failures)


class TestCriterion8Cleansing:
    def test_iqr_example_and_impute_property(self):
        failures = []
        rep = cleanse.detect_outliers(numeric_column("v", [1, 2, 3, 4, 100]), cleanse.Iqr())
        if rep.outlier_row_indices != (4,):
            failures.append(f"IQR example flagged {rep.outlier_row_indices}")

        rng = np.random.default_rng(8)
        for trial in range(200):
            n = int(rng.integers(2, 60))
            cells = [
                None if rng.random() < 0.3 else float(v)
                for v in rng.normal(0, 10, n)
            ]
            c = numeric_column("v", cells)
            if c.null_count == len(c):
                continue
            for strategy in (cleanse.Mean(), cleanse.Median(), cleanse.Mode(), cleanse.Constant(1.5)):
                out = cleanse.impute(c, strategy)
                if out.null_count != 0:
                    failures.append(f"nulls remain, trial {trial}")
                for v, m, w in zip(c.values, c.missing, out.values):
                    if not m and v != w:
                        failures.append(f"non-missing changed, trial {trial}")
                        break
            if failures:
                break
        report("C8 cleansing (IQR example + impute property)", failures)
