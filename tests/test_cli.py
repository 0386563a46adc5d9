import csv
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import mpmath
import pytest

from symhardy import cli


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestConstantsCommand:
    def test_spot_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run(
            ["constants", "--d", "2..5", "--p", "2", "--gamma", "0",
             "--out", str(out)]
        )
        assert code == 0
        rows = {
            (r["d"], r["p"], r["gamma"], r["class"], r["functional"]): r
            for r in read_csv(out)
        }
        assert float(rows[("3", "2", "0", "antisym", "hardy")]["value"]) == 12.25
        assert float(rows[("3", "2", "0", "odd", "rellich")]["value"]) == 1.5625
        assert rows[("3", "2", "0", "antisym", "hardy")]["admissible"] == "true"
        # manifest sidecar exists for CSV output
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "constants"
        assert manifest["schema_version"] == 1

    def test_coincidence_row_d2_p4(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["constants", "--d", "2", "--p", "4", "--gamma", "0",
                    "--out", str(out)]) == 0
        rows = read_csv(out)
        vals = {
            (r["class"], r["functional"]): float(r["value"]) for r in rows
        }
        assert vals[("antisym", "hardy")] == pytest.approx(0.25, rel=1e-15)
        assert vals[("odd", "hardy")] == pytest.approx(0.25, rel=1e-15)

    def test_json_embeds_manifest(self, tmp_path, capsys):
        code = run(["constants", "--d", "3", "--p", "2", "--gamma", "0",
                    "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["command"] == "constants"
        assert any(
            row["formula_id"] == "hardy_antisymmetric" and row["value"] == 12.25
            for row in doc["rows"]
        )

    def test_weighted_general_rows(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["constants", "--d", "3", "--p", "2", "--gamma", "1",
                    "--out", str(out)]) == 0
        rows = {(r["class"], r["functional"]): r for r in read_csv(out)}
        general = rows[("general", "hardy")]
        # (|d - p - gamma| / p)^p = 0 at d = 3, p = 2, gamma = 1
        assert float(general["value"]) == 0.0
        assert general["admissible"] == "true"
        for klass, value in (("antisym", 12.0), ("odd", 2.0)):
            row = rows[(klass, "hardy")]
            assert float(row["value"]) == value
            assert float(row["classical_baseline"]) == 0.0
            assert float(row["improvement_ratio"]) == math.inf
        # The weighted Rellich baseline has f1 = d - gamma - 2p = -2 here:
        # it does not hold, so no class row takes a ratio against it.
        assert rows[("general", "rellich")]["admissible"] == "false"
        for klass in ("antisym", "odd", "general"):
            assert rows[(klass, "rellich")]["improvement_ratio"] == "nan"

    @pytest.mark.parametrize("d, p, gamma, rellich_ratio", [
        # Inadmissible baselines: f1 = -2.5, and f1 = 0 at the endpoint.
        (2, "2", "-0.5", "nan"),
        (4, "2", "0", "nan"),
        # Admissible: the class constant over the baseline, 27.5625 / 1.5625.
        (5, "2", "0", "17.640000000000001"),
    ])
    def test_ratio_only_against_an_admissible_baseline(
            self, tmp_path, d, p, gamma, rellich_ratio):
        out = tmp_path / "r.csv"
        assert run(["constants", "--d", str(d), "--p", p, "--gamma", gamma,
                    "--out", str(out)]) == 0
        rows = {(r["class"], r["functional"]): r for r in read_csv(out)}
        assert rows[("odd", "rellich")]["improvement_ratio"] == rellich_ratio
        admissible = rellich_ratio != "nan"
        assert rows[("general", "rellich")]["admissible"] == (
            "true" if admissible else "false")
        assert rows[("general", "rellich")]["improvement_ratio"] == (
            "1" if admissible else "nan")
        # The classical Hardy baseline always holds: its ratios stand.
        assert rows[("general", "hardy")]["improvement_ratio"] in ("1", "inf")
        assert rows[("odd", "hardy")]["improvement_ratio"] != "nan"

    def test_empty_grid_usage_error(self, tmp_path):
        assert run(["constants", "--d", "", "--p", "2", "--gamma", "0"]) == 2

    def test_short_writes_keep_every_byte(self, tmp_path, monkeypatch):
        # os.write may write fewer bytes than it was given; every output
        # file still gets all of them, the CSV's \r\n line ends included.
        argv = ["constants", "--d", "2..3", "--p", "2,3"]
        assert run(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        write = os.write
        monkeypatch.setattr(cli.os, "write", lambda fd, data: write(fd, data[:7]))
        assert run(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert b"\r\n" in b.read_bytes() and a.read_bytes() == b.read_bytes()
        for suffix in (".manifest.json", ".run.json"):
            assert (tmp_path / f"b.csv{suffix}").read_bytes().endswith(b"}\n")
        assert ((tmp_path / "a.csv.manifest.json").read_bytes()
                == (tmp_path / "b.csv.manifest.json").read_bytes())

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "t.csv"
        run(["constants", "--d", "3", "--p", "3", "--gamma", "0", "--out", str(out)])
        row = next(
            r for r in read_csv(out)
            if r["class"] == "antisym" and r["functional"] == "hardy"
        )
        assert float(row["value"]) == pytest.approx((16.0 / 3.0) ** 1.5, rel=1e-16)
        assert len(row["value"].replace(".", "").lstrip("0")) >= 15


class TestVerifyCommand:
    def test_hardy_run_passes(self, tmp_path):
        out = tmp_path / "v.csv"
        code = run(
            ["verify", "--d", "2", "--p", "2", "--class", "antisym",
             "--trial", "gaussian", "--samples", "5e4", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        (row,) = read_csv(out)
        assert float(row["margin_sigma"]) > 2.0
        assert float(row["reference"]) == 1.0
        run_report = json.loads((tmp_path / "v.csv.run.json").read_text())
        assert run_report["checks"][0]["pass"] is True
        assert run_report["exit_code"] == 0

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["verify", "--d", "2", "--p", "2.5", "--class", "odd",
                "--samples", "2e4", "--seed", "11"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "klass, functional, grid, pinned",
        [
            ("antisym", "hardy", ["--d", "3,5", "--p", "2"], [
                ("3", "15.630262606468921", "0.15958459260852603"),
                ("5", "141.30346330610769", "2.2954129726286494"),
            ]),
            ("odd", "rellich", ["--d", "3,5", "--p", "2"], [
                ("3", "6.4648505264760958", "0.045281972803612965"),
                ("5", "58.472135637949506", "0.4175592438288398"),
            ]),
            ("antisym", "hardy", ["--d", "5", "--p", "3", "--gamma", "1"], [
                ("5", "1033.1195719796328", "27.013252107625149"),
            ]),
            ("odd", "rellich", ["--d", "3", "--p", "3", "--gamma=-1"], [
                ("3", "16.235958205254899", "0.14719966508741147"),
            ]),
            # 160,003 samples: the last stream is a partial block.
            ("antisym", "hardy", ["--d", "4", "--p", "3",
                                  "--samples", "160003"], [
                ("4", "275.70827610127566", "1.7803120493693194"),
            ]),
            # F = 1: the Laplacian of a general-class trial.
            ("general", "rellich", ["--d", "3,5", "--p", "2", "--gamma=-2"], [
                ("3", "2.0500255762705404", "0.023168271480485916"),
                ("5", "21.399752976213726", "0.15652198228937581"),
            ]),
            # From d = 8 on the row sums add left to right, not pairwise.
            ("antisym", "hardy", ["--d", "8", "--p", "2"], [
                ("8", "1042.8618334876492", "39.745102212568028"),
            ]),
            ("odd", "rellich", ["--d", "9", "--p", "2"], [
                ("9", "560.52857673829669", "3.9873524541003995"),
            ]),
        ],
        ids=["antisym-hardy-pinned0", "odd-rellich-pinned1",
             "antisym-hardy-pinned2", "odd-rellich-pinned3",
             "antisym-hardy-pinned4", "general-rellich-pinned5",
             "antisym-hardy-pinned6", "odd-rellich-pinned7"],
    )
    def test_mc_quotients_pinned(self, tmp_path, klass, functional, grid,
                                 pinned):
        # Exact 17-digit quotients and error bars at a fixed seed: they move
        # if any integrand kernel rounds a single sample differently, or if
        # the numerator and denominator stop drawing the points of two
        # separate integrations.
        out = tmp_path / "v.csv"
        assert run(["verify", "--class", klass, "--functional", functional,
                    "--samples", "2e4", *grid, "--seed", "1",
                    "--out", str(out)]) == 0
        assert [(r["d"], r["quotient"], r["quotient_err"])
                for r in read_csv(out)] == pinned

    def test_zero_variance_error_bar_is_rounding(self, tmp_path):
        # At p = 1 the Gaussian attains d - 1 with variance 0; the one-pass
        # variance printed quotient_err 1.55e-9 at d = 4 and 1.15e-9 at
        # d = 5, where the sums round near 1e-14.  The closed-form mass
        # misses the share P((d-1)/2, r_min^2/2) inside r_min, 8.0e-7 at
        # d = 2 and 5.0e-13 at d = 3, and its bar covers it.
        out = tmp_path / "v.csv"
        assert run(["verify", "--class", "general", "--p", "1", "--d", "2..5",
                    "--samples", "2000", "--seed", "0", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["d"] for r in rows] == ["2", "3", "4", "5"]
        for r in rows:
            d = int(r["d"])
            cut = float(mpmath.gammainc((d - 1) / 2.0, 0.0, 0.5e-12,
                                        regularized=True))
            assert (float(r["quotient_err"])
                    < max(1e-13, 2.0 * cut) * float(r["quotient"]))
            assert r["conclusive"] == "false"

    @pytest.mark.parametrize(
        "functional, grid, pinned",
        [
            ("rellich", ["--d", "3", "--gamma=-2"], [
                ("3", "2.0625023272846557", "2.3554362760204273e-06"),
            ]),
            ("hardy", ["--d", "2,3", "--gamma=-1"], [
                ("2", "0.7500008462853297", "8.4630048432428149e-07"),
                ("3", "2.000000000001998", "1.0044926134388298e-08"),
            ]),
        ],
        ids=["general-rellich", "general-hardy"],
    )
    def test_product_general_quotients_pinned(self, tmp_path, functional,
                                              grid, pinned):
        # Exact 17-digit product-rule quotients of F = 1 trials: the
        # Rellich row moves if the factored Laplacian of u = psi(|x|),
        # psi'' + (d - 1) psi'/r, rounds a node differently.
        out = tmp_path / "v.csv"
        assert run(["verify", "--method", "product", "--class", "general",
                    "--functional", functional, "--p", "2", *grid,
                    "--seed", "1", "--out", str(out)]) == 0
        assert [(r["d"], r["quotient"], r["quotient_err"])
                for r in read_csv(out)] == pinned

    @pytest.mark.parametrize(
        "args, pinned",
        [
            ("--class antisym --functional hardy --d 2", (
                "6.283185307173305", "3.1415926535866547",
                "1.9999999999999987", "1.4625068743113978e-08")),
            ("--class antisym --functional hardy --d 3", (
                "37.586213978614012", "2.3864262843564465",
                "15.749999999999991", "1.1338772527235289e-05")),
            ("--class odd --functional hardy --d 2", (
                "6.2831853071733041", "3.1415926535866547",
                "1.9999999999999982", "1.4625069873972057e-08")),
            ("--class odd --functional hardy --d 3", (
                "20.881229988118903", "5.5683279968317123",
                "3.7499999999999969", "1.619050186015785e-07")),
            ("--class antisym --functional rellich --d 3", (
                "206.72417688237709", "0.95457051374257873",
                "216.56249999999989", "6.6965801253104671e-05")),
            ("--class odd --functional rellich --d 3", (
                "73.084304958416226", "11.136643427292809",
                "6.5625074049966408", "7.405103906186886e-06")),
            ("--class odd --functional hardy --d 3 --p 3", (
                "15.364367496677412", "3.9374016876649205",
                "3.9021590163916611", "5.1352066551470747e-05")),
            ("--class antisym --functional rellich --d 4 --p 3 --gamma=1", (
                "6965.1968852217788", "0.04573038478284365",
                "152310.04327422284", "553.97751530905759")),
        ],
        ids=["antisym-hardy-d2", "antisym-hardy-d3", "odd-hardy-d2",
             "odd-hardy-d3", "antisym-rellich-d3", "odd-rellich-d3",
             "odd-hardy-d3-p3", "antisym-rellich-d4-p3-gamma1"],
    )
    def test_product_quotients_pinned(self, tmp_path, args, pinned):
        # Exact 17-digit product-rule estimates of the antisymmetric and
        # odd classes: they move if a factored integrand rounds a node
        # differently, a radius's sphere sum changes its order or the
        # Gauss-Legendre rule moves a node or a weight.
        out = tmp_path / "v.csv"
        assert run(["verify", "--method", "product", *args.split(),
                    "--seed", "7", "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert (row["numerator"], row["denominator"], row["quotient"],
                row["quotient_err"]) == pinned

    def test_antisym_runs_past_d8(self, tmp_path):
        # The class comes from the Vandermonde factor, so no d! check
        # bounds the dimension.
        out = tmp_path / "v.csv"
        assert run(["verify", "--method", "mc", "--class", "antisym",
                    "--d", "9", "--samples", "2e4", "--seed", "3",
                    "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert math.isfinite(float(row["quotient"]))
        assert float(row["quotient"]) > 0.0

    def test_product_ignores_sample_count(self, tmp_path):
        # The product rule never reads --samples, so 1 is no error; the
        # CSV still records the value given.
        rows = {}
        for samples in ("1", None):
            out = tmp_path / f"p{samples}.csv"
            argv = ["verify", "--method", "product", "--d", "2", "--p", "2",
                    "--out", str(out)]
            assert run(argv + (["--samples", samples] if samples else [])) == 0
            (rows[samples],) = read_csv(out)
        assert rows["1"]["samples"] == "1"
        assert rows[None]["samples"] == "200000"
        assert rows["1"]["quotient"] == rows[None]["quotient"]
        assert rows["1"]["quotient_err"] == rows[None]["quotient_err"]

    def test_weighted_general_reference(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run(
            ["verify", "--d", "4", "--p", "2", "--gamma", "1", "--class",
             "general", "--samples", "2e4", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        (row,) = read_csv(out)
        # (|d - p - gamma| / p)^p = (1/2)^2
        assert float(row["reference"]) == 0.25
        assert float(row["quotient"]) >= 0.25

    def test_inadmissible_params_refused(self, tmp_path):
        code = run(
            ["verify", "--d", "3", "--p", "2", "--class", "general",
             "--functional", "rellich", "--samples", "1e4"]
        )
        assert code == 2

    def test_rellich_odd_run(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(
            ["verify", "--d", "3", "--p", "2", "--class", "odd",
             "--functional", "rellich", "--samples", "1e5", "--out", str(out)]
        )
        assert code == 0
        (row,) = read_csv(out)
        assert float(row["reference"]) == 1.5625
        assert float(row["quotient"]) > 1.5625


class TestMinimaxCommand:
    def test_d2_p4(self, tmp_path, capsys):
        code = run(["minimax", "--d", "2", "--p", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        (row,) = doc["rows"]
        assert row["value_numeric"] == pytest.approx(0.25, abs=1e-6)
        assert row["gap"] < 1e-6

    def test_p2_analytic_path(self, tmp_path, capsys):
        code = run(["minimax", "--d", "3", "--p", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["value_numeric"] == pytest.approx(12.25, rel=1e-12)

    def test_gap_tolerance_exit(self, capsys):
        code = run(["minimax", "--d", "3", "--p", "3", "--gap-tol", "1e-30"])
        assert code == 1


class TestSharpnessCommand:
    def test_rows_in_bracket(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            ["sharpness", "--d", "3", "--epsilon", "0.2,0.1",
             "--delta", "0.05,0.01", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert row["in_bracket"] == "true"
            assert float(row["bracket_low"]) <= float(row["quotient"])
            assert float(row["quotient"]) <= float(row["bracket_high"])
            assert float(row["limit_constant"]) == pytest.approx(126.5625)

    def test_bracket_width_halves_with_epsilon(self, tmp_path):
        out = tmp_path / "s.csv"
        run(["sharpness", "--d", "3", "--epsilon", "0.2,0.1",
             "--delta", "0.02", "--out", str(out)])
        rows = read_csv(out)
        widths = {
            float(r["epsilon"]): float(r["bracket_high"]) - float(r["bracket_low"])
            for r in rows
        }
        ratio = widths[0.1] / widths[0.2]
        assert abs(ratio - 0.5) < 0.1

    def test_odd_class_trend(self, tmp_path):
        # The odd constant is small, so the collar must stay wide relative
        # to epsilon for the smoothing cost to stay inside the bracket.
        out = tmp_path / "s.csv"
        code = run(["sharpness", "--d", "3", "--class", "odd",
                    "--epsilon", "0.2,0.1,0.05", "--delta", "0.05",
                    "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert all(float(r["limit_constant"]) == 1.5625 for r in rows)
        assert all(r["in_bracket"] == "true" for r in rows)
        quotients = [float(r["quotient"]) for r in rows]
        assert quotients == sorted(quotients, reverse=True)

    def test_over_smoothed_rows_are_flagged(self, tmp_path):
        # A too-thin collar at large epsilon pushes the odd-family quotient
        # above the bracket; the run must say so and exit nonzero.
        out = tmp_path / "s.csv"
        code = run(["sharpness", "--d", "3", "--class", "odd",
                    "--epsilon", "0.2", "--delta", "0.01", "--out", str(out)])
        assert code == 1
        (row,) = read_csv(out)
        assert row["in_bracket"] == "false"

    def test_hardy_family_is_flagged_heuristic(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["sharpness", "--d", "3", "--functional", "hardy",
                    "--epsilon", "0.1,0.05", "--delta", "0.01",
                    "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        for row in rows:
            assert row["heuristic"] == "true"
            assert row["bracket_high"] == "inf"
            assert float(row["quotient"]) >= float(row["bracket_low"])

    def test_odd_hardy_d4_quotients_pinned(self, tmp_path):
        # Exact 17-digit quotients: cancelling the angular moment instead of
        # computing it must not move a single bit.  mpmath gives
        # 4.01001282269599792, 4.01000516854969416 and 4.01000259084097359.
        out = tmp_path / "s.csv"
        assert run(["sharpness", "--d", "4", "--class", "odd",
                    "--functional", "hardy", "--epsilon", "0.1",
                    "--out", str(out)]) == 0
        assert [(r["delta"], r["quotient"]) for r in read_csv(out)] == [
            ("0.050000000000000003", "4.0100128226959981"),
            ("0.02", "4.0100051685496947"),
            ("0.01", "4.0100025908409744"),
        ]

    def test_antisym_rellich_d3_bytes_pinned(self, tmp_path):
        # mpmath gives 128.992737846846263, 131.048143665527385 and
        # 134.476124898920538 at eps 0.2 (delta 0.05, 0.02, 0.01), and
        # 126.999043865127683, 127.255964338950859 and
        # 127.684460933634200 at eps 0.1.  Every row agrees to 1e-15
        # relative: the power segments' closed forms divide by
        # q + 1 = +-2 eps, and q is formed without rounding rho + 2.
        out = tmp_path / "s.csv"
        assert run(["sharpness", "--class", "antisym", "--functional",
                    "rellich", "--d", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8f369474e69dcb4067586d12d1649af48daa85ba3be730525ceb34500b2d0fd0")
        manifest = (tmp_path / "s.csv.manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == (
            "aceb9d627fa5c8a63981e44a53bd0ba3a33c334a41b7072ae650b56f3bd65e76")

    def test_antisym_rellich_d3_small_epsilon_quotient(self, tmp_path):
        # mpmath gives 126.5625266718036456.  The power segments divide by
        # q + 1 = -+0.002 here, so q must be formed without rounding rho + 2.
        out = tmp_path / "s.csv"
        assert run(["sharpness", "--class", "antisym", "--functional",
                    "rellich", "--d", "3", "--epsilon", "0.001",
                    "--delta", "0.05", "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["quotient"] == "126.56252667180364"

    def test_odd_hardy_d4_bytes_pinned(self, tmp_path):
        # The separable Hardy quotient end to end.
        out = tmp_path / "s.csv"
        assert run(["sharpness", "--class", "odd", "--functional", "hardy",
                    "--d", "4", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ecfa847dbf6c3a7658a7751a754f61bcbe19f00705cc41c4169eddcac4fb421a")
        manifest = (tmp_path / "s.csv.manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == (
            "4d16b5f3f6f45e9b17cd09aba91d16e9644ccad075d406f4c3f98f91a0ed2980")

    @pytest.mark.parametrize("functional", ["rellich", "hardy"])
    @pytest.mark.parametrize("d", ["4", "5"])
    def test_antisym_small_epsilon_rows_in_bracket(self, tmp_path, d,
                                                   functional):
        # The outer power runs to infinity, so nothing overflows and no
        # epsilon is too small.
        out = tmp_path / "s.csv"
        assert run(["sharpness", "--class", "antisym", "--functional",
                    functional, "--d", d, "--epsilon", "0.1,0.05,0.001",
                    "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 9
        assert all(r["in_bracket"] == "true" for r in rows)

    def test_dimension_in_float_notation(self, tmp_path):
        argv = ["sharpness", "--class", "odd", "--epsilon", "0.2",
                "--delta", "0.05", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv + [str(a), "--d", "3"]) == 0
        assert run(argv + [str(b), "--d", "3.0"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ((tmp_path / "a.csv.manifest.json").read_bytes()
                == (tmp_path / "b.csv.manifest.json").read_bytes())

    def test_degenerate_smoothing_is_usage_error(self):
        assert run(["sharpness", "--d", "3", "--epsilon", "0.1",
                    "--delta", "0"]) == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, error_class",
        [
            (["constants", "--p", "1"], "OutOfRangeError"),
            (["constants", "--d", "2..x"], "UsageError"),
            (["constants", "--p", "abc"], "UsageError"),
            (["constants", "--p", "inf"], "UsageError"),
            (["verify", "--p", "nan"], "UsageError"),
            (["constants", "--class", "antisym", "--d", "1"], "UsageError"),
            (["verify", "--samples", "abc"], "UsageError"),
            (["verify", "--samples", "0"], "DomainError"),
            (["verify", "--samples=-3"], "DomainError"),
            # Over the limit of 2^30 direction draws per call: refused
            # before anything is drawn, not left to run for hours.
            (["verify", "--samples", "1e30"], "DomainError"),
            (["verify", "--samples", "1e19"], "DomainError"),
            (["verify", "--samples", "1e12"], "DomainError"),
            (["verify", "--samples", "1e10"], "DomainError"),
            (["verify", "--seed=-1"], "DomainError"),
            (["verify", "--method", "product", "--seed=-1"], "DomainError"),
            (["verify", "--sigma", "0"], "DomainError"),
            (["verify", "--d", ""], "UsageError"),
            (["minimax", "--p", ""], "UsageError"),
            (["sharpness", "--d", "1"], "InvalidDimensionError"),
            (["sharpness", "--epsilon", ""], "UsageError"),
            (["verify", "--r-max=-1"], "DomainError"),
            # |u|^2 |x|^-4 is not integrable at the origin (radial shape 0).
            (["verify", "--method", "product", "--class", "antisym",
              "--functional", "rellich", "--d", "2"], "DomainError"),
            (["verify", "--method", "product", "--class", "odd",
              "--functional", "rellich", "--d", "2"], "DomainError"),
            # One sample has variance 0, which would read as an exact value.
            (["verify", "--samples", "1", "--d", "3"], "DomainError"),
            (["verify", "--sigma", "nan"], "DomainError"),
            (["verify", "--sigma", "inf"], "DomainError"),
            (["minimax", "--gap-tol", "nan"], "UsageError"),
            (["minimax", "--gap-tol=-1"], "UsageError"),
            (["minimax", "--gap-tol", "0"], "UsageError"),
            (["minimax", "--gap-tol", "abc"], "UsageError"),
            # Constants that overflow a float: a power at p = 400, p**2 at
            # p = 1e200.
            (["constants", "--p", "400", "--class", "antisym", "--d", "5"],
             "OutOfRangeError"),
            (["constants", "--p", "1e200", "--class", "odd", "--d", "5"],
             "OutOfRangeError"),
            (["verify", "--p", "400", "--d", "5", "--functional", "rellich"],
             "OutOfRangeError"),
            # Not truncated to 2 samples, nor to 0.
            (["verify", "--samples", "2.5"], "UsageError"),
            (["verify", "--samples", "0.9"], "UsageError"),
            (["verify", "--method", "product", "--samples", "2.5"],
             "UsageError"),
            # A fractional dimension is not parsed as "not a finite number".
            (["constants", "--d", "2.5"], "UsageError"),
            (["constants", "--d", "2..3.5"], "UsageError"),
            (["verify", "--d", "2.5"], "UsageError"),
            (["sharpness", "--d", "2.5"], "UsageError"),
            # sigma^2 underflows to 0 or overflows to inf.
            (["verify", "--functional", "rellich", "--class", "antisym",
              "--d", "3", "--sigma", "1e-200"], "DomainError"),
            (["verify", "--method", "product", "--functional", "rellich",
              "--class", "antisym", "--d", "3", "--sigma", "1e-200"],
             "DomainError"),
            (["verify", "--method", "product", "--functional", "rellich",
              "--class", "antisym", "--d", "3", "--sigma", "1e200"],
             "DomainError"),
            # r^d overflows out to r = 1e300: every node of such a radius
            # is non-finite, not a NaN quotient or a check failure with
            # margin -inf.
            (["verify", "--method", "product", "--class", "odd",
              "--functional", "hardy", "--r-max", "1e300"],
             "DegenerateSampleError"),
        ],
    )
    def test_named_error_exit_2_with_run_report(self, tmp_path, capsys,
                                                argv, error_class):
        out = tmp_path / "bad.csv"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len([ln for ln in err.splitlines() if ln.startswith("error:")]) == 1
        assert not out.exists()
        report = json.loads((tmp_path / "bad.csv.run.json").read_text())
        assert report["exit_code"] == 2
        assert report["error"]["class"] == error_class

    def test_overflow_names_the_point(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["constants", "--p", "400", "--class", "antisym",
                    "--d", "5", "--out", str(out)]) == 2
        report = json.loads((tmp_path / "c.csv.run.json").read_text())
        assert report["error"] == {
            "class": "OutOfRangeError",
            "message": "rellich_antisymmetric overflows a float at d=5, "
                       "p=400.0, gamma=0.0",
        }
        assert "error: rellich_antisymmetric overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["2.5", "0.9"])
    def test_fractional_sample_count_is_named(self, capsys, text):
        assert run(["verify", "--samples", text]) == 2
        assert f"error: not a whole number: '{text}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text",
        [(["constants", "--d", "2.5"], "2.5"),
         (["constants", "--d", "2..3.5"], "3.5"),
         (["verify", "--d", "2.5"], "2.5"),
         (["sharpness", "--d", "2.5"], "2.5")],
        ids=["constants", "constants-range", "verify", "sharpness"],
    )
    def test_fractional_dimension_is_named(self, capsys, argv, text):
        assert run(argv) == 2
        assert f"error: not a whole number: '{text}'" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["0", "0.5", "0.6"])
    def test_bad_delta_names_the_flag(self, capsys, delta):
        assert run(["sharpness", "--delta", delta]) == 2
        (line,) = [ln for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("error:")]
        assert line.startswith("error: delta must lie in (0, 0.5)")

    def test_bad_cutoff_is_named(self, capsys):
        # Not the symptom "denominator estimate is not positive".
        assert run(["verify", "--r-max=-1"]) == 2
        assert "0 <= r_min < r_max" in capsys.readouterr().err

    def test_unknown_trial_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--trial", "foo"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("where, code", [
        ("missing/c.csv", errno.ENOENT), ("dir", errno.EISDIR)])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, fmt, where, code):
        # The report goes to stderr only: one error line and the run line.
        (tmp_path / "dir").mkdir()
        out = tmp_path / where
        assert run(["constants", "--d", "2", "--format", fmt,
                    "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == f"error: cannot write {out}: {os.strerror(code)}"
        assert len(lines) == 2 and lines[1].startswith("run: constants ")
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "dir"]

    def test_unwritable_run_report_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        (tmp_path / "c.csv.run.json").mkdir()
        assert run(["constants", "--d", "2", "--out", str(out)]) == 2
        (line,) = [ln for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("error:")]
        assert line == (f"error: cannot write {out}.run.json: "
                        f"{os.strerror(errno.EISDIR)}")
        assert read_csv(out)[0]["d"] == "2"

    def test_successful_run_report_has_no_error(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["constants", "--d", "3", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "t.csv.run.json").read_text())
        assert report["error"] is None
        assert report["checks"] == [{"name": "constants", "pass": True}]


class TestManifestBytes:
    """The manifest sidecar, byte for byte, and the same object in the run
    report; the key order is schema_version, version, command, seed,
    params, quadrature."""

    CONSTANTS = textwrap.dedent("""\
        {
          "schema_version": 1,
          "version": "0.1.0",
          "command": "constants",
          "seed": null,
          "params": {
            "d": [
              2,
              3
            ],
            "p": [
              2.0,
              3.0
            ],
            "gamma": [
              -1.0
            ],
            "class": "odd"
          },
          "quadrature": null
        }
        """)

    VERIFY_PRODUCT = textwrap.dedent("""\
        {
          "schema_version": 1,
          "version": "0.1.0",
          "command": "verify",
          "seed": 3,
          "params": {
            "d": [
              2
            ],
            "p": [
              2.0
            ],
            "gamma": [
              0.0
            ],
            "class": "odd",
            "functional": "hardy",
            "trial": "gaussian",
            "sigma": 1.0
          },
          "quadrature": {
            "method": "product",
            "samples": 200000,
            "seed": 3,
            "r_min": 1e-06,
            "r_max": 40.0,
            "radial_nodes": 200,
            "angular_nodes": 48
          }
        }
        """)

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (["constants", "--d", "2,3", "--p", "2,3", "--gamma=-1",
              "--class", "odd"], CONSTANTS),
            (["verify", "--method", "product", "--d", "2", "--class", "odd",
              "--seed", "3"], VERIFY_PRODUCT),
        ],
        ids=["constants", "verify-product"],
    )
    def test_manifest_text_pinned(self, tmp_path, capsys, argv, pinned):
        out = tmp_path / "t.csv"
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        sidecar = (tmp_path / "t.csv.manifest.json").read_text(encoding="utf-8")
        assert sidecar == pinned
        report = json.loads((tmp_path / "t.csv.run.json").read_text())
        assert json.dumps(report["manifest"], indent=2) + "\n" == pinned

    def test_constants_table_bytes_pinned(self, tmp_path, capsys):
        """Every class, functional and formula branch on a dyadic grid,
        including the signed zeros at d = 1, p = 3, gamma = -2, byte for
        byte."""
        out = tmp_path / "t.csv"
        assert run(["constants", "--class", "all", "--d", "1..8",
                    "--p", "1.25,1.5,2,2.5,3,3.5,4,5,6,8",
                    "--gamma=-3,-2,-1,-0.5,0,0.5,1,2,4",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        table = out.read_bytes()
        assert table.count(b"\n") == 3601
        assert [row for row in table.splitlines() if b",-0," in row] == [
            b"1,3,-2,odd,rellich,rellich_odd,0,true,-0,nan",
            b"1,3,-2,general,rellich,rellich_mitidieri,-0,false,-0,nan",
        ]
        assert hashlib.sha256(table).hexdigest() == (
            "c31f8752c1e59c76e185ef4290eb50ce94dc4f5bd12e1907e2ee71f54d25caa2")
        manifest = (tmp_path / "t.csv.manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == (
            "bb81916d065fb56c5535a1493420adeee9879a4daddfbf9918ce882cdb17f0a7")


class TestRepeatedMain:
    """``main`` reuses one parser; no option may carry over between calls."""

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["verify", "--d", "2", "--samples", "2e4"]
        assert run(argv + ["--seed", "5", "--out", str(a)]) == 0
        assert run(["minimax", "--d", "2", "--p", "4"]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        seeds = [
            json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())
            ["seed"]
            for name in ("a", "b")
        ]
        assert seeds == [5, 0]
        assert [r["seed"] for r in read_csv(b)] == ["0"]

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestParsing:
    def test_int_grid(self):
        assert cli._parse_int_grid("2..5") == [2, 3, 4, 5]
        assert cli._parse_int_grid("2,4,6") == [2, 4, 6]
        assert cli._parse_int_grid("2.0..4,1e1") == [2, 3, 4, 10]

    def test_float_grid(self):
        assert cli._parse_float_grid("2,2.5") == [2.0, 2.5]

    def test_negative_gamma_equals_syntax(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["constants", "--d", "3", "--p", "2", "--gamma=-1",
                    "--out", str(out)]) == 0
        assert any(r["gamma"] == "-1" for r in read_csv(out))


# Run in a fresh interpreter: the test session has already imported scipy,
# sympy and mpmath.
_LOADED_MODULES_SCRIPT = textwrap.dedent("""
    import io, sys
    from contextlib import redirect_stderr, redirect_stdout

    def loaded(*also):
        # numpy is the only runtime dependency: scipy, sympy and mpmath
        # serve the tests and the benchmark alone.
        return sorted(m for m in sys.modules
                      if m.split(".")[0] in ("scipy", "sympy", "mpmath")
                      or m in also)

    def main(*argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) in (0, 1), argv
        return loaded()

    import symhardy.cli as cli
    print("import", loaded("symhardy.fields"))
    print("constants", main("constants", "--d", "2..4", "--p", "2,3"))
    print("minimax", main("minimax", "--d", "3", "--p", "3"))
    import numpy as np
    from symhardy import fields, minimax
    from symhardy.constants import FunctionClass, Params
    params = Params(3, 3.0, 0.0, FunctionClass.ANTISYMMETRIC)
    domain = fields.SectorDomain.for_params(params)
    X = domain.sample_interior(50, np.random.default_rng(0))
    opt = minimax.closed_form_optimum(params)
    fields.certificate_many(X, opt.alpha, opt.beta, params, domain.factor)
    print("certificate", loaded())
    print("sharpness", main("sharpness", "--d", "3", "--epsilon", "0.2",
                            "--delta", "0.05"))
    print("sharpness-hardy", main("sharpness", "--functional", "hardy"))
    print("verify-product", main("verify", "--method", "product", "--d",
                                 "2", "--functional", "hardy"))
    print("verify-mc", main("verify", "--method", "mc", "--d", "3", "--p",
                            "3", "--samples", "2000"))
""")


def test_only_numpy_loaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES_SCRIPT],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    steps = dict(line.split(" ", 1) for line in done.stdout.splitlines())
    assert steps == dict.fromkeys(
        ["import", "constants", "minimax", "certificate", "sharpness",
         "sharpness-hardy", "verify-product", "verify-mc"], "[]")
