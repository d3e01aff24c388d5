"""End-to-end checks of the command line interface and the template cache."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longedge
from longedge import cli, coeffs
from longedge.cli import MAX_SERIES_ORDER
from longedge.coeffs import template_data
from longedge.graphs import MAX_COGENUS
from longedge.reference import COEFF_ROWS
from longedge.suites import Suite


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("LONGEDGE_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeries:
    def test_reverted_weight_two_series(self, capsys):
        code, out, _ = run(["series", "g", "--order", "3"], capsys)
        assert code == 0
        assert out.strip() == "0, 1, -6, 60"

    def test_reverted_series_at_order_40_is_pinned(self, capsys):
        # the digest of what reversion printed when each power was taken by
        # a log and an exp, before the power recurrence replaced them
        code, out, _ = run(["series", "g", "--order", "40"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f4b2b3867c99690adf0403a753e9e8ad3fd4905fb83769020c5e8787b128f9b8"
        )

    def test_exponential_coefficients(self, capsys):
        code, out, _ = run(["series", "a", "--order", "4"], capsys)
        assert code == 0
        assert out.strip() == "1, -6, 60, -748, 10482"

    def test_negative_order_rejected(self, capsys):
        code, _, err = run(["series", "g", "--order", "-1"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["series", "nosuch", "--order", "2"])
        assert exc.value.code == 2


class TestTemplates:
    def test_row_counts(self, capsys):
        for delta, expected in ((0, 0), (1, 2), (2, 7)):
            code, out, _ = run(["templates", "--delta", str(delta)], capsys)
            assert code == 0
            assert len(json.loads(out)) == expected

    def test_tsv_has_header_and_rows(self, capsys):
        code, out, _ = run(
            ["templates", "--delta", "1", "--format", "tsv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split("\t")[:4] == ["edges", "delta", "ell", "mu"]
        assert len(lines) == 3

    def test_first_table_row(self, capsys):
        _, out, _ = run(["templates", "--delta", "1"], capsys)
        row = json.loads(out)[0]
        assert row["edges"] == [[0, 1, 2]]
        assert row["mu"] == 4
        assert row["lam"] == [2]
        assert row["olam"] == [1]
        assert (row["zeta0"], row["zeta1"], row["zeta2"]) == ("1", "0", "0")

    def test_negative_delta_rejected(self, capsys):
        code, _, err = run(["templates", "--delta", "-1"], capsys)
        assert code == 2
        assert "nonnegative" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        code, out, _ = run(
            ["templates", "--delta", "1", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert len(json.loads(target.read_text())) == 2


class TestCoeffs:
    def test_frozen_rows(self, capsys):
        code, out, _ = run(["coeffs", "--delta", "3"], capsys)
        assert code == 0
        assert json.loads(out) == [COEFF_ROWS[1], COEFF_ROWS[2], COEFF_ROWS[3]]

    def test_tsv(self, capsys):
        code, out, _ = run(["coeffs", "--delta", "2", "--format", "tsv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "1\t3\t-2\t0\t0\t4\t0\t1"
        assert lines[2] == "2\t-21\t39/2\t0\t4\t-38\t-36\t-9/2,1"


def longedge_process(argv, cache_dir, script=None):
    """Run the command line in a fresh interpreter with its own cache.

    The child imports the same longedge as this session, whether that is a
    source checkout on PYTHONPATH or an installed copy.
    """
    package_root = str(Path(longedge.__file__).resolve().parents[1])
    pythonpath = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "LONGEDGE_CACHE_DIR": str(cache_dir),
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, pythonpath])),
    }
    entry = ["-c", script] if script else ["-m", "longedge.cli"]
    return subprocess.run(
        [sys.executable, *entry, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


# Runs the command line and prints how many templates it fitted.
COUNT_FITS = """
import sys
from longedge import cli, coeffs
fits = []
fit = coeffs.fit_linear_phi
coeffs.fit_linear_phi = lambda t: fits.append(t) or fit(t)
assert cli.main(sys.argv[1:]) == 0
print(len(fits))
"""


def cache_digest(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# The two templates of cogenus 1 with their fitted forms, as cached.
WEIGHT2_ROW = {"edges": [[0, 1, 2]], "eta": ["-1", "1"]}
ARC_ROW = {"edges": [[0, 2, 1]], "eta": ["0", "1", "1"]}


class TestCache:
    """The on-disk template cache behind `template_data`."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        # Nothing fitted in memory and disk access on, as in a new process.
        template_data.cache_clear()
        coeffs.use_disk_cache(True)

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        fit = coeffs.fit_linear_phi
        counting = lambda t: calls.append(t) or fit(t)
        monkeypatch.setattr(coeffs, "fit_linear_phi", counting)
        return calls

    def test_file_created_and_reused(self, isolated_cache, fits):
        template_data(1)
        path = isolated_cache / "templates-v2-delta1.json"
        assert path.exists()
        first = path.read_bytes()
        template_data.cache_clear()
        template_data(1)
        assert path.read_bytes() == first
        assert len(fits) == 2  # the second call read the file

    def test_cold_build_fits_one_template_per_conjugate_pair(self, fits):
        for delta in range(1, 6):
            template_data(delta)
        # 551 templates, 85 of them self-conjugate: (551 + 85) / 2 fits
        assert len(fits) == 318

    def test_rebuild_is_deterministic(self, isolated_cache):
        template_data(2)
        path = isolated_cache / "templates-v2-delta2.json"
        first = path.read_bytes()
        path.unlink()
        template_data.cache_clear()
        template_data(2)
        assert path.read_bytes() == first

    def test_tampered_payload_is_discarded(self, isolated_cache, fits):
        fresh = template_data(1)
        path = isolated_cache / "templates-v2-delta1.json"
        data = json.loads(path.read_text())
        data["templates"][0]["eta"][0] = "999"
        path.write_text(json.dumps(data))
        template_data.cache_clear()
        assert template_data(1) == fresh
        assert len(fits) == 4
        # the bad file was replaced by a freshly built one
        template_data.cache_clear()
        assert template_data(1) == fresh
        assert len(fits) == 4

    @pytest.mark.parametrize(
        "templates",
        [
            [{"edges": [[0, 1, 1]], "eta": ["0", "0"]}],
            [{"edges": [[1, 2, 2]], "eta": ["0", "0"]}],
            [{"edges": [[0, 1, 3]], "eta": ["0", "0"]}],
            [{"edges": "x", "eta": ["0"]}],
            [{"eta": ["0"]}],
            [{"edges": [[0, 1, 2]], "eta": ["x", "0"]}],
            "x",
            # hash-valid lists of true rows that are not the cogenus's
            # templates in canonical order: one missing, swapped, duplicated
            [WEIGHT2_ROW],
            [ARC_ROW, WEIGHT2_ROW],
            [WEIGHT2_ROW, ARC_ROW, ARC_ROW],
        ],
    )
    def test_hash_valid_malformed_file_is_recomputed(
        self, isolated_cache, fits, templates
    ):
        payload = {"version": 2, "delta": 1, "templates": templates}
        isolated_cache.mkdir(parents=True)
        path = isolated_cache / "templates-v2-delta1.json"
        path.write_text(json.dumps({**payload, "hash": cache_digest(payload)}))
        assert len(template_data(1)) == 2
        assert len(fits) == 2
        assert json.loads(path.read_text())["templates"] != templates

    def test_other_versions_are_removed(self, isolated_cache):
        isolated_cache.mkdir(parents=True)
        old = isolated_cache / "templates-v1-delta1.json"
        old.write_text("{}")
        other = isolated_cache / "templates-v1-delta2.json"
        other.write_text("{}")
        fresh = template_data(1)
        assert not old.exists()
        assert other.exists()  # another cogenus is left alone
        assert coeffs._load_templates(1) == fresh

    def test_garbage_file_is_ignored(self, isolated_cache, capsys):
        isolated_cache.mkdir(parents=True)
        (isolated_cache / "templates-v2-delta1.json").write_text("not json")
        code, out, _ = run(["templates", "--delta", "1"], capsys)
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_no_cache_flag_skips_disk(self, isolated_cache, capsys):
        code, _, _ = run(["templates", "--delta", "1", "--no-cache"], capsys)
        assert code == 0
        assert not (isolated_cache / "templates-v2-delta1.json").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_directory_falls_back(self, tmp_path, monkeypatch, below):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        unusable = blocker / below
        good = longedge_process(["coeffs", "--delta", "1"], tmp_path / "cache")
        proc = longedge_process(["coeffs", "--delta", "1"], unusable)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == good.stdout
        monkeypatch.setenv("LONGEDGE_CACHE_DIR", str(unusable))
        assert len(template_data(1)) == 2

    def test_warm_output_matches_cold(self, tmp_path):
        argv = ["coeffs", "--delta", "2", "--format", "json"]
        cold = longedge_process(argv, tmp_path)
        assert (tmp_path / "templates-v2-delta2.json").exists()
        warm = longedge_process(argv, tmp_path)
        assert cold.returncode == warm.returncode == 0
        assert warm.stdout == cold.stdout

    def test_severi_after_coeffs_fits_nothing(self, tmp_path):
        polygon = tmp_path / "triangle.json"
        polygon.write_text(json.dumps({"dt": 0, "left": [[0, 4]], "right": [[1, 4]]}))
        out = str(tmp_path / "out.json")
        fill = longedge_process(
            ["coeffs", "--delta", "4", "--out", out], tmp_path, COUNT_FITS
        )
        assert fill.stdout.split() == ["89"], fill.stderr
        severi = longedge_process(
            ["severi", "--polygon", str(polygon), "--delta", "4", "--out", out],
            tmp_path,
            COUNT_FITS,
        )
        assert severi.stdout.split() == ["0"], severi.stderr
        assert json.loads(Path(out).read_text())["agree"] is True


# Runs the direct route alone and prints whether OpenSSL's hash module loaded.
DIRECT_ONLY = """
import sys
import longedge
from longedge.severi import n_bruteforce
from longedge.suites import triangle
assert n_bruteforce(triangle(4), 3) == 675
print("_hashlib" in sys.modules)
"""


def test_direct_route_does_not_load_hashlib(tmp_path):
    # hashlib is imported only where the cache file is hashed, so a process
    # that never touches the template cache does not pay for OpenSSL
    proc = longedge_process([], tmp_path, DIRECT_ONLY)
    assert proc.stdout.split() == ["False"], proc.stderr


class TestSeveri:
    def _polygon_file(self, tmp_path, payload):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_quartic_counts(self, tmp_path, capsys):
        path = self._polygon_file(
            tmp_path, {"dt": 0, "left": [[0, 4]], "right": [[1, 4]]}
        )
        code, out, _ = run(["severi", "--polygon", path, "--delta", "2"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["agree"] is True
        assert rep["n"]["closed"] == ["1", "27", "225"]
        assert rep["q"]["geometric"] == ["27", "-279/2"]

    def test_vertices_input_and_single_method(self, tmp_path, capsys):
        path = self._polygon_file(
            tmp_path, {"vertices": [[0, 0], [3, 0], [0, 3]]}
        )
        code, out, _ = run(
            ["severi", "--polygon", path, "--delta", "1", "--method", "closed"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["methods"] == ["closed"]
        assert rep["n"]["closed"] == ["1", "12"]

    def test_disagreement_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "longedge.severi.q_geometric", lambda p, delta: 999
        )
        path = self._polygon_file(
            tmp_path, {"dt": 0, "left": [[0, 3]], "right": [[1, 3]]}
        )
        code, out, _ = run(["severi", "--polygon", path, "--delta", "1"], capsys)
        assert code == 1
        assert json.loads(out)["agree"] is False

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            ["severi", "--polygon", str(tmp_path / "no.json"), "--delta", "1"],
            capsys,
        )
        assert code == 2
        assert "cannot read polygon file" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{half")
        code, _, err = run(["severi", "--polygon", str(path), "--delta", "1"], capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_invalid_polygon(self, tmp_path, capsys):
        triangle = {"dt": 0, "left": [[0, 3]], "right": [[1, 3]]}
        for payload in [
            {"dt": 0, "left": [[1, 2]]},
            {**triangle, "left": [[0, "3"]]},
            {**triangle, "left": [[0, 3.0]]},
            {**triangle, "left": 5},
            {**triangle, "left": [5]},
            {**triangle, "dt": True},
            {"vertices": 5},
            {"vertices": [[0, 0], [3, 0], [0, "3"]]},
        ]:
            path = self._polygon_file(tmp_path, payload)
            code, _, err = run(["severi", "--polygon", path, "--delta", "1"], capsys)
            assert code == 2, payload
            assert err.startswith("error:"), payload

    def test_non_object_polygon(self, tmp_path, capsys):
        path = self._polygon_file(tmp_path, [1, 2])
        code, _, err = run(["severi", "--polygon", str(path), "--delta", "1"], capsys)
        assert code == 2
        assert "must be an object" in err


class TestVerify:
    # pinned, so a suite that quietly shrinks fails
    CHECKS = {"table1": 11, "coeffs": 6, "gyz": 6, "oracle": 38, "toric": 100}

    @pytest.mark.parametrize("suite", CHECKS)
    def test_suite_passes(self, suite, capsys):
        code, out, _ = run(["verify", suite], capsys)
        assert code == 0
        assert "FAIL" not in out
        n = self.CHECKS[suite]
        assert out.endswith(f"{suite}: {n}/{n} checks passed\n")

    def test_coeffs_suite_at_order_five(self, capsys):
        code, out, _ = run(["verify", "coeffs", "--order", "5"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("frozen row") == 5
        assert out.endswith("coeffs: 10/10 checks passed\n")

    def test_empty_suite_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.SUITES, "table1", Suite(lambda: [], False))
        code, out, _ = run(["verify", "table1"], capsys)
        assert code == 1
        assert out == "table1: 0/0 checks passed\n"

    def test_failure_exits_nonzero(self, capsys, monkeypatch):
        broken = dict(COEFF_ROWS)
        broken[1] = {**COEFF_ROWS[1], "A": "999"}
        monkeypatch.setattr("longedge.suites.COEFF_ROWS", broken)
        code, out, _ = run(["verify", "coeffs", "--order", "1"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_order_validation(self, capsys):
        code, _, err = run(["verify", "gyz", "--order", "0"], capsys)
        assert code == 2
        assert "at least 1" in err


BROKEN_ROW_1 = {**COEFF_ROWS, 1: {**COEFF_ROWS[1], "A": "999"}}
ROUTE_OFF = lambda p, delta: 999  # noqa: E731

# a cogenus beyond graphs.MAX_COGENUS, refused before any template is built
OUT_OF_REACH = [
    ["severi", "--polygon", "{polygon}", "--delta", "30", "--method", "closed"],
    ["severi", "--polygon", "{polygon}", "--delta", "9"],
    ["coeffs", "--delta", "9"],
    ["templates", "--delta", "9"],
    ["verify", "coeffs", "--order", "9"],
    ["verify", "gyz", "--order", "9"],
    ["series", "a", "--order", "9"],
    ["series", "b1", "--order", "9"],
]

# argv ({polygon}, {bad} and {missing} stand for files), a patch, the exit code:
# 0 success, 1 a failed check or disagreement, 2 bad input
EXIT_CODES = [
    (["templates", "--delta", "1"], None, 0),
    (["templates", "--delta", "-1"], None, 2),
    (["templates", "--delta", "1", "--format", "xml"], None, 2),
    (["coeffs", "--delta", "1"], None, 0),
    (["coeffs", "--delta", "-1"], None, 2),
    (["coeffs"], None, 2),
    (["severi", "--polygon", "{polygon}", "--delta", "1"], None, 0),
    (["severi", "--polygon", "{polygon}", "--delta", "1"],
     ("longedge.severi.q_geometric", ROUTE_OFF), 1),
    (["severi", "--polygon", "{missing}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{bad}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{polygon}", "--delta", "1", "--method", "x"], None, 2),
    (["verify", "table1"], None, 0),
    (["verify", "gyz", "--order", "2"], None, 0),
    (["verify", "coeffs", "--order", "1"],
     ("longedge.suites.COEFF_ROWS", BROKEN_ROW_1), 1),
    (["verify", "gyz", "--order", "0"], None, 2),
    (["verify", "table1", "--order", "3"], None, 2),
    (["verify", "oracle", "--order", "3"], None, 2),
    (["verify", "toric", "--order", "0"], None, 2),
    (["verify", "nosuch"], None, 2),
    (["series", "g", "--order", "2"], None, 0),
    (["series", "g", "--order", "-1"], None, 2),
    (["series", "g", "--order", "0"], None, 2),
    (["series", "nosuch", "--order", "2"], None, 2),
    # an unwritable --out
    (["coeffs", "--delta", "1", "--out", "{nodir}/x.json"], None, 2),
    (["severi", "--polygon", "{polygon}", "--delta", "1", "--out", "{nodir}/o.json"],
     None, 2),
    (["series", "a", "--order", "2", "--out", "{dir}"], None, 2),
    # runs and vertices that are not pairs; the error names the item
    (["severi", "--polygon", "{short_run}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{string_runs}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{long_vertex}", "--delta", "1"], None, 2),
    # fields that are not lists, both forms at once, more rows than allowed
    (["severi", "--polygon", "{int_left}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{int_right}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{int_vertices}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{both_forms}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{long_run}", "--delta", "1"], None, 2),
    (["severi", "--polygon", "{tall_vertices}", "--delta", "1"], None, 2),
    *[(argv, None, 2) for argv in OUT_OF_REACH],
    # series orders past the bound; the bound itself runs
    (["series", "g", "--order", str(MAX_SERIES_ORDER + 1)], None, 2),
    (["series", "partition", "--order", "100000000"], None, 2),
    (["series", "partition", "--order", str(MAX_SERIES_ORDER)], None, 0),
]

# file placeholder -> (polygon JSON written to it, text stderr must show)
MALFORMED = {
    "short_run": ({"dt": 0, "left": [[0]], "right": [[1, 3]]}, "[0]"),
    "string_runs": ({"dt": 0, "left": [[0, 3]], "right": "ab"}, "'a'"),
    "long_vertex": ({"vertices": [[0, 0, 1], [1, 0], [0, 1]]}, "[0, 0, 1]"),
    "int_left": ({"dt": 0, "left": 5, "right": [[1, 3]]}, "left runs"),
    "int_right": ({"dt": 0, "left": [[0, 3]], "right": 5}, "right runs"),
    "int_vertices": ({"vertices": 5}, "vertices must be a list"),
    "both_forms": (
        {"vertices": [[0, 0], [3, 0], [0, 3]], "dt": 0, "left": [[0, 3]],
         "right": [[1, 3]]},
        "not both",
    ),
    "long_run": ({"dt": 0, "left": [[0, 10**8]], "right": [[1, 10**8]]}, "100000000"),
    "tall_vertices": ({"vertices": [[0, 0], [10**8, 0], [0, 10**8]]}, "100000000"),
}


@pytest.mark.parametrize("argv, patch, expected", EXIT_CODES)
def test_exit_codes(argv, patch, expected, tmp_path, monkeypatch, capsys):
    polygon = tmp_path / "triangle.json"
    polygon.write_text(json.dumps({"dt": 0, "left": [[0, 3]], "right": [[1, 3]]}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [[0, 0], [1, 0], [0.5, 1]]}')  # not a lattice polygon
    files = {
        "polygon": polygon,
        "bad": bad,
        "missing": tmp_path / "missing.json",
        "nodir": tmp_path / "no" / "such",
        "dir": tmp_path,
    }
    for name, (data, _) in MALFORMED.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    if patch:
        monkeypatch.setattr(*patch)
    try:
        code = cli.main([arg.format(**files) for arg in argv])
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    if expected == 2:
        assert "error:" in err
    for name, (_, shown) in MALFORMED.items():
        if f"{{{name}}}" in argv:
            assert shown in err


@pytest.mark.parametrize("argv", OUT_OF_REACH)
def test_out_of_reach_cogenus_builds_no_template(argv, tmp_path, monkeypatch, capsys):
    polygon = tmp_path / "triangle.json"
    polygon.write_text(json.dumps({"dt": 0, "left": [[0, 40]], "right": [[1, 40]]}))

    def refuse(*args):
        raise AssertionError("a template was built before the cogenus was checked")

    monkeypatch.setattr("longedge.graphs._edge_pool", refuse)
    code, _, err = run([arg.format(polygon=polygon) for arg in argv], capsys)
    assert code == 2
    assert f"at most {MAX_COGENUS} is supported" in err


@pytest.mark.parametrize("name", sorted(cli.SERIES_BUILDERS))
def test_series_order_past_bound_builds_nothing(name, monkeypatch, capsys):
    def refuse(order):
        raise AssertionError("a series was built before its order was checked")

    monkeypatch.setitem(cli.SERIES_BUILDERS, name, refuse)
    code, _, err = run(["series", name, "--order", str(MAX_SERIES_ORDER + 1)], capsys)
    assert code == 2
    assert f"at most {MAX_SERIES_ORDER} is supported" in err


def test_module_invocation(tmp_path):
    proc = longedge_process(["series", "b1", "--order", "3"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1, -1, -5, 39"
