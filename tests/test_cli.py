import dataclasses
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from romanoff_lab import cli
from romanoff_lab import elliptic as elliptic_module
from romanoff_lab import sequences as sequences_module
from romanoff_lab import sieve as sieve_module
from romanoff_lab.cli import build_parser, run
from romanoff_lab.elliptic import EllipticCurve, theorem5_report
from romanoff_lab.sieve import FactorSieve, PrimeList, build_sieve
from romanoff_lab.sequences import format_sequence_spec, parse_sequence_spec
from test_report_outputs import GOLDEN  # tests/ is on sys.path under pytest's default import mode

SRC = Path(__file__).resolve().parents[1] / "src"


def readme_cli_lines() -> list[str]:
    """The romanoff-lab lines of the README's CLI example block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("romanoff-lab ")]


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, out


def run_limited(argv, timeout=60):
    """The CLI in its own process under a 2 GB address-space limit, so a
    regression fails here instead of exhausting the host."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    return subprocess.run(
        [sys.executable, "-m", "romanoff_lab", *argv.split()],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=limit_memory,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExitCodes:
    @pytest.mark.parametrize("s_max", ["0", "-3"])
    def test_gamma_with_s_max_below_one_is_2(self, s_max, capsys):
        assert run(["lemmas", "--gamma", "--s-max", s_max]) == 2
        assert capsys.readouterr() == ("", f"error: --s-max must be >= 1, got {s_max}\n")

    def test_lemmas_smoke(self, tmp_path):
        code, out = run_to_file(tmp_path, "lemmas.json", ["lemmas", "--gamma", "--s-max", "12"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(rec["pass"] for rec in payload["records"])
        assert len(payload["records"]) == 12

    def test_invalid_parameter_is_2(self):
        assert run(["elliptic", "--curve", "1,1", "--x", "-5"]) == 2

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_census_modulus_below_one_is_2(self, t):
        assert run(["elliptic", "--curve", "1,1", "--x", "100", "--census-mod", t]) == 2

    def test_singular_curve_is_2(self):
        assert run(["elliptic", "--curve", "0,0", "--x", "100"]) == 2

    def test_negative_a_needs_the_equals_form(self, capsys):
        # argparse reads a bare -3,5 as an option; the --curve help says so
        assert run(["elliptic", "--help"]) == 0
        assert "--curve=-3,2" in capsys.readouterr().out
        assert run(["elliptic", "--curve", "-3,5", "--x", "20", "--report", "orders"]) == 2
        capsys.readouterr()
        assert run(["elliptic", "--curve=-3,5", "--x", "20", "--report", "orders"]) == 0
        assert capsys.readouterr().out.startswith("p,order\n2,")

    def test_unknown_flag_is_2(self):
        assert run(["sieve", "--frobnicate"]) == 2

    def test_capacity_is_3(self):
        # budget of 1 pair-operation cannot cover the run
        assert (
            run(
                [
                    "romanoff",
                    "--seq",
                    "geom:2:start=0",
                    "--x",
                    "65536",
                    "--budget",
                    "1",
                ]
            )
            == 3
        )

    @pytest.mark.parametrize(
        "argv",
        [
            "moments --report theorem1 --seq explicit:6,6 --x 6 --s 646",
            "moments --report theorem1 --seq explicit:6 --x 6 --s 2000",
            "moments --report poly --poly 1,0,1 --z 30 --s 170",
            "moments --report linear --a 6 --bs 0 --z 1 --x 2 --s 646",
            "elliptic --curve 1,1 --x 100 --s 2000",
        ],
    )
    def test_beyond_float64_is_3(self, argv, capsys):
        s = argv.split()[-1]
        assert run(argv.split()) == 3
        assert f"s={s}" in capsys.readouterr().err

    def test_sieve_cap_is_3(self, tmp_path):
        code = run(
            [
                "extremal",
                "--M",
                "1000000",
                "--y",
                "2.2",
                "--z",
                "6.9",
                "--sieve-limit",
                "1000",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv,size",
        [
            ("elliptic --curve 1,1 --x 10000000 --census-mod 4", 20000001),
            ("romanoff --report order-sum --a 2 --b 2 --P 100000000", 100000000),
        ],
    )
    def test_table_size_above_the_cap_is_an_integer(self, argv, size, capsys):
        # the size is rounded up for the message, not printed as a float
        assert run(argv.split()) == 3
        err = capsys.readouterr().err
        assert err == f"error: this run needs a sieve of size {size}, above the --sieve-limit cap 10000000\n"


class TestRefusedBeforeTheyRun:
    """Inputs whose enumeration would exhaust memory or run for hours, or
    whose float arithmetic would overflow, exit 0, 2 or 3 with at most one
    error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            "elliptic --curve 1,1 --x 100 --census-mod 100000000000000000000",
            "moments --report poly --poly 1,0,1 --z 1e9",
            "moments --report linear --a 6 --bs 1 --z 1e9",
        ],
    )
    def test_oversized_enumeration_is_3(self, argv):
        proc = run_limited(argv)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    # each once overflowed, hung on a huge power or scan, or exited 0 on a
    # flag it ignored; in its own process, so a hang fails on the timeout
    @pytest.mark.parametrize(
        "argv,code",
        [
            ("elliptic --curve 1,1 --x 1e308", 3),
            ("romanoff --report theorem9 --x 100 --b 9223372036854775808", 0),
            ("romanoff --report frontier --seq tower:2:100000000000000000000 --x 100", 0),
            ("moments --report theorem1 --seq poly:-1,0 --x 1000000000000000000", 2),
            ("elliptic --curve 1,1 --x 100 --report orders --census-mod 0", 2),
            ("elliptic --curve 1,1 --x 100 --report orders --s 0", 2),
            ("lemmas --gamma --x-max 0", 2),
            ("moments --report theorem1 --seq poly:1,0 --x 9223372036854775808 --sieve-limit 1000", 3),
            ("romanoff --report order-sum --P -5", 2),
            ("romanoff --report order-sum --P 1.5", 2),
        ],
    )
    def test_exit_code_contract(self, argv, code):
        proc = run_limited(argv, timeout=20)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == (code != 0)
        assert proc.stderr.startswith("error: ") == (code != 0)
        if code == 0:
            assert json.loads(proc.stdout)["estimates"]

    def test_bad_census_modulus_is_2_before_any_point(self, monkeypatch):
        def no_points(*args, **kwargs):
            raise AssertionError("points counted")

        monkeypatch.setattr(elliptic_module, "order_sequence", no_points)
        assert run(["elliptic", "--curve", "1,1", "--x", "100", "--census-mod", "0"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "romanoff --report frontier --seq poly:1,0,0 --x 100 --alpha 1e308",
            "lemmas --gamma --s-max 171",
            "lemmas --gamma --x-max 800",
        ],
    )
    def test_float_overflow_is_2_or_3(self, argv, capsys):
        assert run(argv.split()) in (2, 3)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_census_modulus_up_to_pi_x_is_counted(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "t5.json", ["elliptic", "--curve", "1,1", "--x", "100", "--census-mod", "25"]
        )
        assert code == 0
        assert sum(json.loads(out.read_text())["census"].values()) == 25
        assert run(["elliptic", "--curve", "1,1", "--x", "100", "--census-mod", "26"]) == 3

    def test_the_last_block_of_values_sizes_the_sieve(self, tmp_path):
        # n + 100000 over [-70000, 70000]: three blocks, the largest value last
        argv = ["moments", "--report", "poly", "--poly", "1,100000", "--z", "70000", "--sieve-limit"]
        code, out = run_to_file(tmp_path, "t3.json", argv + ["170000"])
        assert code == 0 and json.loads(out.read_text())["moment"]["parameters"]["terms"] == 140001
        assert run(argv + ["169999"]) == 3

    def test_t1_terms_are_read_in_blocks(self, tmp_path, monkeypatch):
        # poly:1,0 to 140000: three blocks; above the cap, only the first is built
        argv = ["moments", "--report", "theorem1", "--seq", "poly:1,0", "--x", "140000", "--sieve-limit"]
        code, out = run_to_file(tmp_path, "t1.json", argv + ["140000"])
        assert code == 0 and json.loads(out.read_text())["moment"]["parameters"]["N"] == 140000
        assert run(argv + ["139999"]) == 3
        read = []
        terms = sequences_module._polynomial_terms
        monkeypatch.setattr(
            sequences_module, "_polynomial_terms", lambda *a: (read.append(v) or v for v in terms(*a))
        )
        assert run(argv + ["65535"]) == 3
        assert sum(map(len, read)) == 2**16

    def test_polynomial_terms_far_out_are_3(self):
        # R(j) = j - 2^70: every j up to 2^70 was walked before the first term
        argv = "moments --report theorem1 --seq poly:1,-1180591620717411303424 --x 2361183241434822606848"
        proc = run_limited(argv + " --sieve-limit 1000", timeout=10)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestReports:
    def test_sieve_stats(self, tmp_path):
        code, out = run_to_file(tmp_path, "sieve.json", ["sieve", "--limit", "10000"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pi"] == 1229
        assert 0.8 <= payload["theta_over_x"] <= 1.2

    def test_frontier_report(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "frontier.json",
            ["romanoff", "--seq", "geom:2:start=0", "--x", "65536", "--report", "frontier"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        names = {e["name"] for e in payload["estimates"]}
        assert {"gamma1", "gamma2", "second_moment_constant", "c2_at_c1"} <= names

    def test_profile_csv(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "profile.csv",
            ["romanoff", "--seq", "geom:2:start=0", "--x", "50", "--report", "profile"],
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,r"
        assert len(lines) == 51

    def test_orders_csv(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "orders.csv",
            ["elliptic", "--curve", "1,1", "--x", "50", "--report", "orders"],
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "p,order"
        assert len(lines) == 16  # pi(50) = 15

    def test_elliptic_census(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "ell.json",
            ["elliptic", "--curve", "1,1", "--x", "100", "--census-mod", "2"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert sum(payload["census"].values()) == 25
        assert payload["moment"]["lhs"] >= payload["moment"]["rhs_core"]
        assert payload["hasse_min_margin"] > 0
        assert payload["curve"] == "1,1"
        assert payload["census_pi_over_phi_t"] == pytest.approx(25.0)  # phi(2)=1

    def test_fractional_elliptic_x(self, tmp_path):
        # the spf table covers 1 + 2x = 202.4, not int(202.4) = 202
        code, out = run_to_file(tmp_path, "ell.json", ["elliptic", "--curve", "1,1", "--x", "100.7"])
        assert code == 0
        moment = json.loads(out.read_text())["moment"]
        assert moment["parameters"]["pi_x"] == 25
        direct = theorem5_report(EllipticCurve(1, 1), 100.7, 1, build_sieve(203), PrimeList.build(101))
        assert moment == json.loads(json.dumps(dataclasses.asdict(direct)))

    def test_extremal_report(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "ext.json",
            ["extremal", "--M", "100000", "--y", "2.2", "--z", "6.9", "--sieve-limit", "100000"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["Q"] == 15
        assert payload["count"] == 3333

    def test_empty_extremal_set_prints_the_product_that_passed_m(self, tmp_path):
        # the whole window's product has more than 4300 digits, past int-to-str
        code, out = run_to_file(tmp_path, "ext.json", ["extremal", "--M", "1000000", "--y", "2.5", "--z", "20000"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["empty"] is True
        assert payload["Q"] == 4849845

    def test_moments_theorem1(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "t1.json",
            ["moments", "--report", "theorem1", "--seq", "explicit:2,3,4", "--x", "10", "--s", "2", "--alpha", "0.5"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["moment"]["lhs"] >= 3.0

    def test_moments_poly(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "poly.json",
            ["moments", "--report", "poly", "--poly", "1,0", "--z", "3", "--s", "1"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["moment"]["lhs"] == pytest.approx(9.0)

    def test_moments_linear(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "lin.json",
            ["moments", "--report", "linear", "--a", "1", "--bs", "0", "--z", "1", "--s", "1", "--x", "2"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["moment"]["lhs"] == pytest.approx(2.0)

    def test_schnirelmann(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "sch.json",
            ["romanoff", "--report", "schnirelmann", "--a", "2", "--x", "100"],
        )
        assert code == 0
        assert json.loads(out.read_text())["count"] == 8

    def test_frontier_elliptic_orders(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "eco.json",
            ["romanoff", "--seq", "ecorders:1,1", "--x", "2000", "--report", "frontier"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        gamma1 = next(e for e in payload["estimates"] if e["name"] == "gamma1")
        assert 0 < gamma1["value"] <= 1

    def test_order_dist(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "dist.json",
            ["romanoff", "--report", "order-dist", "--a", "2", "--z", "12", "--trial-cap", "10000"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_exact"] is True
        assert payload["normalized"] > 0

    def test_order_sum(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "osum.json",
            ["romanoff", "--report", "order-sum", "--a", "2", "--b", "2", "--P", "1000"],
        )
        assert code == 0
        assert json.loads(out.read_text())["value"] > 0

    def test_theorem9_report(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "t9.json",
            ["romanoff", "--report", "theorem9", "--a", "2", "--b", "2", "--x", "16384"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        names = {e["name"] for e in payload["estimates"]}
        assert names == {"c1_empirical", "c2_upper_comparison"}

    def test_extremal_alpha_sweep(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "sweep.json",
            ["extremal", "--M", "1000000", "--alphas", "0.5,0.45"],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["entries"]) == 2
        assert payload["entries"][0]["alpha"] == 0.5

    def test_lemmas_full_battery(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "lem.json",
            [
                "lemmas",
                "--gamma",
                "--s-max",
                "4",
                "--prime-sums",
                "--min-pk",
                "--abel",
                "--tail-limit",
                "10000",
            ],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        kinds = {rec["lemma"] for rec in payload["records"]}
        assert kinds == {
            "gamma_bound",
            "prime_log_power_sums",
            "min_pk_sum",
            "abel_identity",
        }
        assert all(rec["pass"] for rec in payload["records"])

    def test_lemmas_without_selection_is_2(self):
        assert run(["lemmas"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("lemmas --prime-sums --tail-limit 50 --prime-limit 1000", "k=100 exceeds tail_limit=50.0"),
            ("lemmas --min-pk --tail-limit 99 --prime-limit 1000", "tail_limit=99.0 too small for s=1"),
        ],
    )
    def test_lemma_grid_too_wide_for_the_tail_limit_is_2(self, argv, message, capsys):
        assert run(argv.split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSieveCache:
    def test_env_var_populates_cache(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setenv("ROMANOFF_LAB_CACHE", str(cache_dir))
        argv = ["extremal", "--M", "5000", "--y", "2.2", "--z", "6.9"]
        code, out = run_to_file(tmp_path, "c1.json", argv)
        assert code == 0
        cached = list(cache_dir.glob("spf-v1-*.tbl"))
        assert cached, "sieve cache file not written"
        # second run loads the cache and produces the same report
        code, out2 = run_to_file(tmp_path, "c2.json", argv)
        assert code == 0
        assert out.read_bytes() == out2.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_verify_all_byte_identical(self, tmp_path, seed):
        code1, first = run_to_file(tmp_path, "v1.json", ["verify-all", "--seed", seed])
        code2, second = run_to_file(tmp_path, "v2.json", ["verify-all", "--seed", seed])
        assert code1 == code2 == 0
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["all_pass"] is True

    def test_report_byte_identical(self, tmp_path):
        argv = ["romanoff", "--seq", "tower:2:2", "--x", "4096", "--report", "frontier"]
        _, first = run_to_file(tmp_path, "r1.json", argv)
        _, second = run_to_file(tmp_path, "r2.json", argv)
        assert first.read_bytes() == second.read_bytes()


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "text",
        ["geom:2:start=0", "geom:7:start=1", "tower:3:2", "poly:2,0,-1", "ecorders:1,1", "explicit:4,4,9"],
    )
    def test_parse_print_parse(self, text):
        spec = parse_sequence_spec(text)
        printed = format_sequence_spec(spec)
        assert parse_sequence_spec(printed) == spec


class TestRemovedAndRepairedPaths:
    def test_format_flag_is_gone(self):
        assert run(["romanoff", "--report", "theorem9", "--format", "json"]) == 2

    def test_threads_flag_is_gone(self):
        assert run(["elliptic", "--curve", "1,1", "--x", "100", "--threads", "2"]) == 2

    def test_hasse_min_margin_from_the_orders(self, tmp_path):
        # x above the BSGS switch; the margin is the inline formula over the CSV orders
        argv = ["elliptic", "--curve=-41,-35", "--x", "6000"]
        code, out = run_to_file(tmp_path, "t5.json", argv)
        assert code == 0
        code, csv = run_to_file(tmp_path, "orders.csv", argv + ["--report", "orders"])
        assert code == 0
        rows = [line.split(",") for line in csv.read_text().strip().split("\n")[1:]]
        expected = min(2.0 * math.sqrt(int(p)) - abs(int(n) - (int(p) + 1)) for p, n in rows)
        assert json.loads(out.read_text())["hasse_min_margin"] == expected

    def test_order_dist_beyond_primality_test(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "dist10.json",
            ["romanoff", "--report", "order-dist", "--a", "10", "--z", "30", "--trial-cap", "100"],
        )
        assert code == 0
        assert json.loads(out.read_text())["all_exact"] is False


class TestLinearZ:
    @pytest.mark.parametrize("z", ["0", "-1"])
    def test_nonpositive_z_is_2(self, z):
        argv = ["moments", "--report", "linear", "--a", "5", "--bs=0", "--z", z]
        assert run(argv) == 2

    def test_x_defaults_to_1000(self, tmp_path):
        # the subparser's default, whatever z is
        argv = ["moments", "--report", "linear", "--a", "6", "--bs", "1", "--z", "5000"]
        with pytest.warns(UserWarning, match="outside the window"):
            code, out = run_to_file(tmp_path, "lin.json", argv)
        assert code == 0
        assert json.loads(out.read_text())["moment"]["parameters"]["x"] == 1000


class TestIntegrityExit:
    def test_corrupt_sieve_is_4(self, monkeypatch):
        def corrupt_sieve(limit, **kwargs):
            spf = build_sieve(limit).spf.copy()
            spf[7] = 13  # gathers phi(7) = 12 > 7
            return FactorSieve(limit=limit, spf=spf)

        monkeypatch.setattr(sieve_module, "build_sieve", corrupt_sieve)
        argv = ["moments", "--report", "theorem1", "--seq", "explicit:6,7,8", "--x", "10"]
        assert run(argv) == 4

    def test_cached_table_with_a_composite_entry_is_4(self, tmp_path, monkeypatch):
        # a cache file whose checksum is valid, written over spf[12] = 4
        spf = build_sieve(12).spf.copy()
        spf[12] = 4
        path = sieve_module._spf_cache_path(str(tmp_path), 12)
        sieve_module._store_cached_spf(path, 12, spf)
        assert sieve_module._load_cached_spf(path, 12).tolist() == spf.tolist()
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path))
        argv = ["moments", "--report", "theorem1", "--seq", "explicit:12", "--x", "12"]
        assert run(argv) == 4


@pytest.fixture
def tables(monkeypatch):
    """Record the limit of every spf table the CLI builds and of every
    PrimeList.build call, the sieve's own small one included."""
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)  # a cache hit builds no list
    built = {"spf": [], "primes": []}
    build_spf, build_list = sieve_module.build_sieve, PrimeList.build.__func__

    def spf(limit, **kwargs):
        built["spf"].append(limit)
        return build_spf(limit, **kwargs)

    def primes(cls, limit, **kwargs):
        built["primes"].append(limit)
        return build_list(cls, limit, **kwargs)

    monkeypatch.setattr(sieve_module, "build_sieve", spf)
    monkeypatch.setattr(PrimeList, "build", classmethod(primes))
    return built


class TestOneTablePerRun:
    """A run builds each table once; primes come from PrimeList.build alone,
    and the spf fill builds its own list up to isqrt(limit)."""

    def test_theorem5_builds_spf_and_one_prime_list(self, tmp_path, tables):
        argv = ["elliptic", "--curve", "1,1", "--x", "3000", "--census-mod", "4"]
        code, _ = run_to_file(tmp_path, "t5.json", argv)
        assert code == 0
        assert tables["spf"] == [6001]
        assert sorted(tables["primes"]) == [math.isqrt(6001), 3000]

    def test_order_sum_builds_spf_and_one_prime_list(self, tmp_path, tables):
        argv = ["romanoff", "--report", "order-sum", "--P", "20000"]
        code, _ = run_to_file(tmp_path, "os.json", argv)
        assert code == 0
        assert tables["spf"] == [20000]
        assert sorted(tables["primes"]) == [math.isqrt(20000), 20000]

    def test_lemmas_build_their_primes_once(self, tmp_path, tables):
        argv = ["lemmas", "--prime-sums", "--min-pk", "--tail-limit", "10000"]
        code, _ = run_to_file(tmp_path, "lemmas.json", argv)
        assert code == 0
        assert tables["spf"] == [] and tables["primes"] == [10000]

    def test_lemmas_walk_their_primes_once(self, tmp_path, monkeypatch):
        # all 24 records of --prime-sums --min-pk come from one walk
        walks = []
        steps = PrimeList.steps

        def counted(self, *args):
            walks.append(args)
            return steps(self, *args)

        monkeypatch.setattr(PrimeList, "steps", counted)
        argv = ["lemmas", "--prime-sums", "--min-pk", "--tail-limit", "10000"]
        code, out = run_to_file(tmp_path, "lemmas.json", argv)
        assert code == 0 and len(json.loads(out.read_text())["records"]) == 24
        assert walks == [(10000.0,)]

    def test_orders_csv_builds_no_spf(self, tmp_path, tables):
        argv = ["elliptic", "--curve", "1,1", "--x", "3000", "--report", "orders"]
        code, _ = run_to_file(tmp_path, "orders.csv", argv)
        assert code == 0
        assert tables["spf"] == [] and tables["primes"] == [3000]


class TestFlagsPerSubcommand:
    # an argv that parses, for each subcommand
    BASE = {
        "sieve": ["sieve", "--limit", "100"],
        "moments": ["moments", "--report", "poly", "--poly", "1,0,1", "--z", "10"],
        "extremal": ["extremal", "--M", "100", "--y", "2.2", "--z", "6.9"],
        "elliptic": ["elliptic", "--curve", "1,1", "--x", "100"],
        "romanoff": ["romanoff", "--report", "order-dist"],
        "lemmas": ["lemmas", "--gamma"],
        "verify-all": ["verify-all"],
    }
    DROPPED = [
        ("sieve", "--sieve-limit"),
        ("sieve", "--budget"),
        ("sieve", "--seed"),
        ("moments", "--budget"),
        ("moments", "--seed"),
        ("extremal", "--prime-limit"),
        ("extremal", "--budget"),
        ("extremal", "--seed"),
        ("elliptic", "--budget"),
        ("elliptic", "--seed"),
        ("romanoff", "--seed"),
        ("lemmas", "--sieve-limit"),
        ("lemmas", "--budget"),
        ("verify-all", "--sieve-limit"),
        ("verify-all", "--prime-limit"),
        ("verify-all", "--budget"),
    ]

    @pytest.mark.parametrize("command,flag", DROPPED)
    def test_flag_nothing_reads_is_2(self, command, flag):
        argv = self.BASE[command]
        build_parser().parse_args(argv)
        assert run(argv + [flag, "10"]) == 2

    # (argv, and the report and the flags its error line names)
    UNREAD = [
        ("romanoff --report theorem9 --a 2 --b 2 --x 100 --P 0", "romanoff --report theorem9", "--P"),
        ("moments --report poly --poly 1,0,1 --z 10 --x -1", "moments --report poly", "--x"),
        ("extremal --M 100 --alphas 0.5 --y 3 --z 1", "extremal --alphas", "--y, --z"),
        ("extremal --M 100 --y 2.2 --z 6.9 --alphas 0.5", "extremal --alphas", "--y, --z"),
        ("lemmas --prime-sums --x-max -1", "lemmas --prime-sums", "--x-max"),
        ("lemmas --gamma --abel --tail-limit 5", "lemmas --gamma --abel", "--tail-limit"),
        ("lemmas --s-max 3", "lemmas", "--s-max"),
        ("elliptic --curve 1,1 --x 100 --report orders --s 1", "elliptic --report orders", "--s"),
        ("elliptic --curve 1,1 --x 100 --report orders --sieve-limit 5", "elliptic --report orders", "--sieve-limit"),
        ("romanoff --report order-dist --prime-limit 5 --budget 3", "romanoff --report order-dist",
         "--prime-limit, --budget"),
        ("romanoff --rep schnirelmann --bud 3", "romanoff --report schnirelmann", "--budget"),
    ]

    @pytest.mark.parametrize("argv,report,flags", UNREAD)
    def test_flag_its_report_does_not_read_is_2(self, argv, report, flags, capsys):
        assert run(argv.split()) == 2
        assert capsys.readouterr() == ("", f"error: {report} does not read {flags}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("moments --report theorem1 --x 10", "moments --report theorem1 needs --seq"),
            ("moments --report poly --z 10", "moments --report poly needs --poly"),
            ("moments --report linear --a 6", "moments --report linear needs --bs"),
            ("moments --report linear", "moments --report linear needs --a, --bs"),
            ("extremal --M 100 --y 2.2", "extremal needs --z"),
            ("extremal --M 100", "extremal needs --y, --z"),
            ("romanoff --report frontier", "romanoff --report frontier needs --seq"),
            ("romanoff --report profile --x 100", "romanoff --report profile needs --seq"),
            ("lemmas", "lemmas needs at least one of --gamma/--prime-sums/--min-pk/--abel"),
        ],
    )
    def test_needed_flag_left_out_is_2(self, argv, message, capsys):
        assert run(argv.split()) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("source", ["README", "golden"])
    def test_documented_lines_give_only_flags_their_report_reads(self, source):
        """Each CLI line of the README's example block and of the golden table,
        the scale rows that Tier-1 does not run too, parses and passes the flag
        table, without running."""
        if source == "README":
            lines = [line.split(" ", 1)[1] for line in readme_cli_lines()]
        else:
            lines = [row.argv for row in GOLDEN]
        assert lines
        parser = build_parser()
        for line in lines:
            argv = shlex.split(line)
            cli._check_flags(parser, parser.parse_args(argv), argv)

    def test_readme_cli_lines_parse(self):
        lines = readme_cli_lines()
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])
        assert {shlex.split(line)[1] for line in lines} == set(self.BASE)

    def test_readme_cli_lines_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
        (tmp_path / "values.txt").write_text("".join(f"{n}\n" for n in range(1, 10**4 + 1)))
        for line in readme_cli_lines():
            assert run(shlex.split(line)[1:]) == 0, line
            capsys.readouterr()
