import csv
import json
import math
import os
import subprocess
import sys
import textwrap

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
        # the Rellich baseline was already weighted
        assert float(rows[("antisym", "rellich")]["improvement_ratio"]) == 25.0

    def test_empty_grid_usage_error(self, tmp_path):
        assert run(["constants", "--d", "", "--p", "2", "--gamma", "0"]) == 2

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
                ("3", "15.587727356076398", "0.17141388919460038"),
                ("5", "140.59336641757702", "3.0302766551586111"),
            ]),
            ("odd", "rellich", ["--d", "3,5", "--p", "2"], [
                ("3", "6.5918285525990612", "0.077100640404172804"),
                ("5", "59.381198598648389", "0.76839762526309741"),
            ]),
            ("antisym", "hardy", ["--d", "5", "--p", "3", "--gamma", "1"], [
                ("5", "1034.5059199838895", "30.728878797583938"),
            ]),
            ("odd", "rellich", ["--d", "3", "--p", "3", "--gamma=-1"], [
                ("3", "16.211934732244327", "0.23802584308017116"),
            ]),
            # 160,003 samples: each stream ends in a partial block.
            ("antisym", "hardy", ["--d", "4", "--p", "3",
                                  "--samples", "160003"], [
                ("4", "277.08432722177537", "1.9820010484176376"),
            ]),
            # F = 1: the Laplacian of a general-class trial.
            ("general", "rellich", ["--d", "3,5", "--p", "2", "--gamma=-2"], [
                ("3", "2.07549817473457", "0.02507810676120412"),
                ("5", "21.700227083998939", "0.15637283782345135"),
            ]),
        ],
        ids=["antisym-hardy-pinned0", "odd-rellich-pinned1",
             "antisym-hardy-pinned2", "odd-rellich-pinned3",
             "antisym-hardy-pinned4", "general-rellich-pinned5"],
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

    @pytest.mark.parametrize(
        "functional, grid, pinned",
        [
            ("rellich", ["--d", "3", "--gamma=-2"], [
                ("3", "2.0625023272846552", "2.355436271393744e-06"),
            ]),
            ("hardy", ["--d", "2,3", "--gamma=-1"], [
                ("2", "0.75000084628533015", "8.463004793286672e-07"),
                ("3", "2.0000000000019993", "1.0044914273638488e-08"),
            ]),
        ],
        ids=["general-rellich", "general-hardy"],
    )
    def test_product_general_quotients_pinned(self, tmp_path, functional,
                                              grid, pinned):
        # Exact 17-digit product-rule quotients of F = 1 trials: the
        # Rellich row moves if the Laplacian of u = psi(|x|) rounds a node
        # differently.
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
                "6.2831853071733406", "3.1415926535866707",
                "1.9999999999999998", "1.4625046747565169e-08")),
            ("--class antisym --functional hardy --d 3", (
                "37.586213978614062", "2.3864262843564497",
                "15.749999999999991", "1.1338772628617142e-05")),
            ("--class odd --functional hardy --d 2", (
                "6.2831853071733397", "3.1415926535866707",
                "1.9999999999999993", "1.4625047880235974e-08")),
            ("--class odd --functional hardy --d 3", (
                "20.881229988118935", "5.5683279968317168",
                "3.7499999999999996", "1.6190499700281049e-07")),
            ("--class antisym --functional rellich --d 3", (
                "206.72417688237752", "0.95457051374257995",
                "216.56250000000006", "6.696579977337942e-05")),
            ("--class odd --functional rellich --d 3", (
                "73.084304958416254", "11.136643427292819",
                "6.5625074049966372", "7.405103893611391e-06")),
            ("--class odd --functional hardy --d 3 --p 3", (
                "15.364367496677438", "3.9374016876649254",
                "3.9021590163916628", "5.1352066571994058e-05")),
            ("--class antisym --functional rellich --d 4 --p 3 --gamma=1", (
                "6965.196885221746", "0.045730384782843483",
                "152310.0432742227", "553.9775153089372")),
        ],
        ids=["antisym-hardy-d2", "antisym-hardy-d3", "odd-hardy-d2",
             "odd-hardy-d3", "antisym-rellich-d3", "odd-rellich-d3",
             "odd-hardy-d3-p3", "antisym-rellich-d4-p3-gamma1"],
    )
    def test_product_quotients_pinned(self, tmp_path, args, pinned):
        # Exact 17-digit product-rule estimates of the antisymmetric and
        # odd classes: they move if the numerator and denominator stop
        # summing the nodes of two separate integrations in node order.
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
        # computing it must not move a single bit.
        out = tmp_path / "s.csv"
        assert run(["sharpness", "--d", "4", "--class", "odd",
                    "--functional", "hardy", "--epsilon", "0.1",
                    "--out", str(out)]) == 0
        assert [(r["delta"], r["quotient"]) for r in read_csv(out)] == [
            ("0.050000000000000003", "4.0104268361343411"),
            ("0.02", "4.0104191772861926"),
            ("0.01", "4.0104165975135553"),
        ]

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
            # numpy refuses these before allocating anything.
            (["verify", "--samples", "1e30"], "DomainError"),
            (["verify", "--samples", "1e19"], "DomainError"),
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
            # r**m overflows on the cutoff segment of the eps = 0.05 trial.
            (["sharpness", "--d", "4", "--epsilon", "0.05"], "DomainError"),
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

    def test_bad_cutoff_is_named(self, capsys):
        # Not the symptom "denominator estimate is not positive".
        assert run(["verify", "--r-max=-1"]) == 2
        assert "0 <= r_min < r_max" in capsys.readouterr().err

    def test_unknown_trial_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--trial", "foo"])
        assert exc.value.code == 2

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
            "n_streams": 8,
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

    def test_float_grid(self):
        assert cli._parse_float_grid("2,2.5") == [2.0, 2.5]

    def test_negative_gamma_equals_syntax(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["constants", "--d", "3", "--p", "2", "--gamma=-1",
                    "--out", str(out)]) == 0
        assert any(r["gamma"] == "-1" for r in read_csv(out))


# Run in a fresh interpreter: the test session has already imported scipy.
_LOADED_MODULES_SCRIPT = textwrap.dedent("""
    import io, sys
    from contextlib import redirect_stderr, redirect_stdout

    def loaded():
        return sorted(m for m in ("scipy", "scipy.special", "scipy.integrate")
                      if m in sys.modules)

    def main(*argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) in (0, 1), argv
        return loaded()

    import symhardy.cli as cli
    print("import", loaded())
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
    print("verify-mc", main("verify", "--d", "3", "--p", "3",
                            "--samples", "2000"))
    print("sharpness", main("sharpness", "--d", "3", "--epsilon", "0.2",
                            "--delta", "0.05"))
""")


def test_scipy_loaded_only_where_used():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES_SCRIPT],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    steps = dict(line.split(" ", 1) for line in done.stdout.splitlines())
    none = "[]"
    assert steps == {
        "import": none,
        "constants": none,
        "minimax": none,
        "certificate": none,
        "verify-mc": "['scipy', 'scipy.special']",
        "sharpness": "['scipy', 'scipy.integrate', 'scipy.special']",
    }
