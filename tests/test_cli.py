"""End-to-end checks of the command line interface and the template cache."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import longedge
from longedge import cli, coeffs, orderings, suites
from longedge.cli import MAX_SERIES_ORDER
from longedge.coeffs import CoeffTable, template_data
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

    # the digest of each cogenus's JSON table as printed before the cogenus
    # fit moved behind orderings.fit_templates
    @pytest.mark.parametrize("delta, digest", [
        (1, "9342a3329d15f80ae9d6d930caf3d3967d1920a3efa39d2ff95c7319e346ed78"),
        (2, "170b5b75c80d76bedd3b51c674d013da9cd685c7d230390e58ec9967e71e48fe"),
        (3, "e267002e5e41a0099c2e3a88bd289039402b7e80e8a7dcc43b77458e42aa50b9"),
        (4, "b459fec257ec6faf88f3029d4416f7d39a783c0ccfd1004f988a1df437f83a4a"),
        (5, "0e647104a4e54a33ccbc9a7b8177a0a88c6d435807872da122d50c4db8d4cdfa"),
        (6, "3d0a372068e9c89a202ce74d2d2d2f85b29d097c6c63fa00918d4753732100d8"),
    ])
    def test_json_table_is_pinned(self, delta, digest, capsys):
        code, out, _ = run(["templates", "--delta", str(delta), "--format", "json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the digest of each cogenus's TSV table as printed before the table's
    # rows moved into coeffs.template_rows
    @pytest.mark.parametrize("delta, digest", [
        (0, "e9491a3d957b0f87b6459f26886ba7d051ba90c22ab6043ddec007d1024c1d4d"),
        (1, "4b3e34a32bc6e5ad73fc724a18867295cf73fc77ef109cc3635ec1266733d138"),
        (2, "f26d455f1e8ed33a339e0b608d6c6037bed4fa2e98de5f144d31e29666a18bb0"),
        (3, "f319fc3ec95fde190ca205032e0a4a4cc02c6bb12288a3c4ad19cfe5e883cd35"),
        (4, "be34d29e9e340c251dc66e3bb7d246dfd6e5c57838d33531853420bb173fe14b"),
    ])
    def test_tsv_table_is_pinned(self, delta, digest, capsys):
        code, out, _ = run(["templates", "--delta", str(delta), "--format", "tsv"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("delta", range(6))
    def test_streamed_table_is_the_whole_table(self, delta, tmp_path, capsys):
        # printed one row at a time, each table is the text its whole list
        # of rows renders to, on stdout and in an --out file alike
        rows = list(coeffs.template_rows(delta))
        whole = {
            "json": cli._json(rows),
            "tsv": "".join(cli._tsv(rows, coeffs.TEMPLATE_COLUMNS)),
        }
        for fmt, text in whole.items():
            argv = ["templates", "--delta", str(delta), "--format", fmt]
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert out == text + "\n"
            target = tmp_path / f"t.{fmt}"
            code, out, _ = run([*argv, "--out", str(target)], capsys)
            assert (code, out) == (0, "")
            assert target.read_text() == text + "\n"
        if delta == 0:
            assert whole["json"] == "[]"

    def test_closed_pipe_exits_1_without_a_traceback(self, tmp_path):
        # the reader takes a few bytes and closes the pipe, as `| head -c 100`
        # does; the table, about 190 kB, does not fit in the pipe's 64 kB buffer
        with subprocess.Popen(
            [sys.executable, "-m", "longedge.cli", "templates", "--delta", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(tmp_path),
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert len(head) == 100, err
        assert (code, err) == (1, "")


class TestCoeffs:
    def test_frozen_rows(self, capsys):
        code, out, _ = run(["coeffs", "--delta", "3"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows == [COEFF_ROWS[1], COEFF_ROWS[2], COEFF_ROWS[3]]
        # the CLI's one JSON rule prints each exact value as its string, in
        # the table's column order
        assert list(rows[1]) == list(CoeffTable._fields)

    def test_tsv(self, capsys):
        code, out, _ = run(["coeffs", "--delta", "2", "--format", "tsv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "1\t3\t-2\t0\t0\t4\t0\t1"
        assert lines[2] == "2\t-21\t39/2\t0\t4\t-38\t-36\t-9/2,1"

    # the digest of the TSV tables as printed before the CLI read the
    # header from CoeffTable
    @pytest.mark.parametrize("delta, digest", [
        (0, "7ff362c810672d84a077f95e20712b72f2cb3d5b2274835fcb0f6dffbedfacad"),
        (5, "991fb4a43236c43c2430ec53b7a8119b82682ca9e940e831d5f2581a74f86ee5"),
    ])
    def test_tsv_table_is_pinned(self, delta, digest, capsys):
        code, out, _ = run(["coeffs", "--delta", str(delta), "--format", "tsv"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the digest of the JSON tables as printed while each row went through
    # a dict of strings of its own, before the CLI's one JSON rule printed it
    @pytest.mark.parametrize("delta, digest", [
        (0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
        (5, "143936f6bb6d9ede72563dc03de620b70c3c8d8393d2a9cf3ba96cb3c8c8a977"),
    ])
    def test_json_table_is_pinned(self, delta, digest, capsys):
        code, out, _ = run(["coeffs", "--delta", str(delta), "--format", "json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def child_env(cache_dir):
    """The environment of a child process with its own cache that imports
    the same longedge as this session, whether that is a source checkout on
    PYTHONPATH or an installed copy."""
    package_root = str(Path(longedge.__file__).resolve().parents[1])
    pythonpath = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "LONGEDGE_CACHE_DIR": str(cache_dir),
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, pythonpath])),
    }


def longedge_process(argv, cache_dir, script=None):
    """Run the command line, or a script, in a fresh interpreter with its
    own cache (see child_env)."""
    entry = ["-c", script] if script else ["-m", "longedge.cli"]
    return subprocess.run(
        [sys.executable, *entry, *argv],
        capture_output=True,
        text=True,
        env=child_env(cache_dir),
        timeout=60,
    )


# Runs the command line and prints how many templates it fitted: the fit
# reads each template's phi once.
COUNT_FITS = """
import sys
from longedge import cli, orderings
fits = []
phis = orderings._phis

def counting(t, table):
    fits.append(t)
    return phis(t, table)

orderings._phis = counting
assert cli.main(sys.argv[1:]) == 0
print(len(fits))
"""


def cache_digest(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def hashed(payload):
    """A cache file's text for this payload, its hash valid."""
    return json.dumps({**payload, "hash": cache_digest(payload)})


# Too deep for the JSON parser: it raises RecursionError, not ValueError.
NESTED = "[" * 200_000 + "]" * 200_000

# The sha256 of each cache file a cold build of cogenus 1..6 writes, as
# written while the whole payload was encoded at once, before the files
# were hashed and written one row at a time.
CACHE_FILE_DIGESTS = {
    "templates-v3-delta1.json": "77b773b403760139fb96323b734ec7423adb29fdaec8e089e1fa593b2aca3f57",
    "templates-v3-delta2.json": "7226a0e3576fa9a9bcc19848777485c3ad46ce817f16afc0420fa6dc725b46e8",
    "templates-v3-delta3.json": "cf2032f141d1d7c6b9d8a234b6b2fe6a1a6b4dd74b2edc358d60809eb577248c",
    "templates-v3-delta4.json": "64ddfdad2adf29ac29850f1573bcfc97f37c6fc31a3539ac13022e96b6a444c4",
    "templates-v3-delta5.json": "6c69edf68a6248a43589cb3b1e81b438835fbb6d349676beb40380959b010cd2",
    "templates-v3-delta6.json": "cd609c738fc8de26b3b14b77d73590219dbb3d6debe5e2f14fef0a21a11ea314",
    "sums-v3-delta1.json": "969c0174431bd9bf2304850267dc5a8a8818d7c85ddb2480a90ec8ffc9229128",
    "sums-v3-delta2.json": "03c97fab468c66cc43dd68d1f60d329d550114c12e374777c720d5d31d68bcd4",
    "sums-v3-delta3.json": "4e68caa60a8cd6248012697a52db2a91ab7f3231c6a6170326afab619d1aed91",
    "sums-v3-delta4.json": "54982569f44fc34adf115c1cffa924c58c596c30994d17255c9a7515b9b94bf6",
    "sums-v3-delta5.json": "c264e2a7b97a86a3b5689487ff571c33a9b5afb75256df8bcceebdb45f3cb0d6",
    "sums-v3-delta6.json": "562766bfd71fe0cfd9ac3c65d0be79aae39d2789d837dea6fbffc8cc39e7b1ee",
}

# The two templates of cogenus 1 with their fitted forms, as cached.
WEIGHT2_ROW = {"edges": [[0, 1, 2]], "moments": ["-1", "1", "0", "0"]}
ARC_ROW = {"edges": [[0, 2, 1]], "moments": ["0", "2", "1", "0"]}
# (A, L, H, D, C) of cogenus 1 and 2, as cached.
SUMS_1 = ["3", "-2", "0", "0", "4"]
SUMS_2 = ["-21", "39/2", "0", "4", "-38"]
SUMS_FILE_1 = {"version": 3, "delta": 1, "sums": SUMS_1}
# sums bodies a loader must refuse: a JSON number would put an int or a
# float into the exact sums, and H must be 0
MALFORMED_SUMS = {
    "four": SUMS_1[:4],
    "six": SUMS_1 + ["0"],
    "int": ["3", -2, "0", "0", "4"],
    "float": ["3", "-2", "0", "0", 4.0],
    "string": ",".join(SUMS_1),
    "object": dict(zip("ALHDC", SUMS_1)),
    "not-rational": ["3", "x", "0", "0", "4"],
    "H-not-0": ["3", "-2", "1", "0", "4"],
}

# the digest of `severi --delta 4` on the triangle of each side, as printed
# before the report went through the CLI's one JSON rule; side 2 skips the
# closed and geometric counts past 2
TRIANGLE_REPORT_DIGESTS = {
    5: "c82ec3057331e38e79201886592bb56e0e2879450d82cd100d10df181ccbfbeb",
    2: "766f5dcab2fa9139446e62423c103c860688f422edd59c03a52121114206eb21",
}

# Refuses every way to a template or a fit, then runs COUNT_FITS.
NO_TEMPLATES = """
from longedge import coeffs, graphs, orderings

def refuse(*args):
    raise AssertionError("a warm process built a template")

for module, name in (
    (graphs, "enumerate_templates"),
    (coeffs, "enumerate_templates"),
    (coeffs, "template_data"),
    (coeffs, "fit_templates"),
    (orderings, "fit_templates"),
    (orderings, "fit_linear_phi"),
):
    setattr(module, name, refuse)
""" + COUNT_FITS


class TestCache:
    """The on-disk template cache behind `template_data`."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        # Nothing fitted or summed in memory and disk access on, as in a new
        # process.
        template_data.cache_clear()
        coeffs._template_sums.cache_clear()
        coeffs.template_coefficients.cache_clear()
        coeffs.use_disk_cache(True)

    @pytest.fixture
    def fits(self, monkeypatch):
        # the fit reads each template's phi once
        calls = []
        phis = orderings._phis

        def counting(t, table):
            calls.append(t)
            return phis(t, table)

        monkeypatch.setattr(orderings, "_phis", counting)
        return calls

    def test_file_created_and_reused(self, isolated_cache, fits):
        template_data(1)
        path = isolated_cache / "templates-v3-delta1.json"
        assert path.exists()
        first = path.read_bytes()
        template_data.cache_clear()
        template_data(1)
        assert path.read_bytes() == first
        assert len(fits) == 2  # the second call read the file

    def test_cold_build_writes_the_pinned_files(self, isolated_cache):
        for delta in range(1, 7):
            coeffs._template_sums(delta)
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in isolated_cache.iterdir()
        }
        assert digests == CACHE_FILE_DIGESTS

    @pytest.mark.parametrize("kind", ["templates", "sums"])
    def test_digest_is_the_sha256_of_the_frame(self, kind):
        # _digest takes the interpreter's own SHA-256 where it has one:
        # checked against hashlib's over real payloads of both kinds
        delta = 4
        if kind == "templates":
            body = list(map(coeffs._cache_row, template_data(delta)))
        else:
            body = list(map(str, coeffs._template_sums(delta)))
        text = "".join(coeffs._frame(kind, delta, body))
        assert coeffs._digest(coeffs._frame(kind, delta, body)) == (
            hashlib.sha256(text.encode()).hexdigest()
        )

    def test_load_reads_what_store_writes(self, isolated_cache):
        # each file is the canonical JSON of its payload and its hash, and
        # reads back as what was stored, for both kinds
        data = template_data(2)
        sums = coeffs._template_sums(2)
        for kind, body in (
            ("templates", list(map(coeffs._cache_row, data))),
            ("sums", list(map(str, sums))),
        ):
            payload = {"version": 3, "delta": 2, kind: body}
            text = (isolated_cache / f"{kind}-v3-delta2.json").read_text()
            assert text == json.dumps(
                {**payload, "hash": cache_digest(payload)},
                sort_keys=True,
                separators=(",", ":"),
            )
        assert coeffs._load("templates", 2, coeffs._read_templates) == data
        assert coeffs._load("sums", 2, coeffs._read_sums) == sums

    def test_cold_build_fits_each_template_once(self, fits):
        for delta in range(1, 6):
            template_data(delta)
        # 2 + 7 + 26 + 102 + 414 templates, each fitted from its own row
        assert len(fits) == 551

    def test_rebuild_is_deterministic(self, isolated_cache):
        template_data(2)
        path = isolated_cache / "templates-v3-delta2.json"
        first = path.read_bytes()
        path.unlink()
        template_data.cache_clear()
        template_data(2)
        assert path.read_bytes() == first

    def test_tampered_payload_is_discarded(self, isolated_cache, fits):
        fresh = template_data(1)
        path = isolated_cache / "templates-v3-delta1.json"
        data = json.loads(path.read_text())
        data["templates"][0]["moments"][0] = "999"
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
            [{"edges": [[0, 1, 1]], "moments": ["0", "0", "0", "0"]}],
            [{"edges": [[1, 2, 2]], "moments": ["0", "0", "0", "0"]}],
            [{"edges": [[0, 1, 3]], "moments": ["0", "0", "0", "0"]}],
            [{"edges": "x", "moments": ["0"]}],
            [{"moments": ["0"]}],
            [{"edges": [[0, 1, 2]], "moments": ["x", "0", "0", "0"]}],
            "x",
            # hash-valid lists of true rows that are not the cogenus's
            # templates in canonical order: one missing, swapped, duplicated
            [WEIGHT2_ROW],
            [ARC_ROW, WEIGHT2_ROW],
            [WEIGHT2_ROW, ARC_ROW, ARC_ROW],
            # JSON numbers where the rational strings belong: 0.5 would
            # enter the sums as a float, and Infinity would overflow them
            [{**WEIGHT2_ROW, "moments": ["-1", 0.5, "0", "0"]}, ARC_ROW],
            [{**WEIGHT2_ROW, "moments": ["-1", "1", "0", "0"]},
             {**ARC_ROW, "moments": ["0", float("inf"), "1", "0"]}],
            # three moments, or five
            [{**WEIGHT2_ROW, "moments": ["-1", "1", "0"]}, ARC_ROW],
            [WEIGHT2_ROW, {**ARC_ROW, "moments": ["0", "2", "1", "0", "0"]}],
        ],
    )
    def test_hash_valid_malformed_file_is_recomputed(
        self, isolated_cache, fits, templates
    ):
        payload = {"version": 3, "delta": 1, "templates": templates}
        isolated_cache.mkdir(parents=True)
        path = isolated_cache / "templates-v3-delta1.json"
        path.write_text(json.dumps({**payload, "hash": cache_digest(payload)}))
        assert len(template_data(1)) == 2
        assert len(fits) == 2
        assert json.loads(path.read_text())["templates"] != templates

    def test_other_versions_are_removed(self, isolated_cache):
        isolated_cache.mkdir(parents=True)
        olds = [
            isolated_cache / f"{kind}-v{v}-delta1.json"
            for kind in ("templates", "sums")
            for v in (1, 2)
        ]
        for old in olds:
            old.write_text("{}")
        # another cogenus's files are left alone
        others = [isolated_cache / f"{kind}-v2-delta2.json" for kind in ("templates", "sums")]
        for other in others:
            other.write_text("{}")
        sums = coeffs._template_sums(1)
        assert not any(old.exists() for old in olds)
        assert all(other.exists() for other in others)
        assert coeffs._load("templates", 1, coeffs._read_templates) == template_data(1)
        assert coeffs._load("sums", 1, coeffs._read_sums) == sums

    @pytest.mark.parametrize(
        "text",
        [
            # a value changed under the hash of the true values
            pytest.param(
                json.dumps({**SUMS_FILE_1, "sums": ["3", "-3", "0", "0", "4"],
                            "hash": cache_digest(SUMS_FILE_1)}),
                id="tampered",
            ),
            # hash-valid files of another cache version or another cogenus
            pytest.param(hashed({**SUMS_FILE_1, "version": 2, "sums": SUMS_2}), id="stale"),
            pytest.param(hashed({**SUMS_FILE_1, "delta": 2, "sums": SUMS_2}), id="cogenus-2"),
            pytest.param("not json", id="garbage"),
            pytest.param(NESTED, id="nested"),
            pytest.param(hashed({"version": 3, "delta": 1}), id="no-sums"),
            # a member the file's frame does not have, under a hash that
            # covers it, or beside the hash of the frame alone
            pytest.param(hashed({**SUMS_FILE_1, "extra": 1}), id="extra-member"),
            pytest.param(
                json.dumps({**SUMS_FILE_1, "extra": 1, "hash": cache_digest(SUMS_FILE_1)}),
                id="extra-member-outside-hash",
            ),
            # hash-valid bodies that are not five rational strings with H = 0
            *[
                pytest.param(hashed({**SUMS_FILE_1, "sums": body}), id=name)
                for name, body in MALFORMED_SUMS.items()
            ],
        ],
    )
    def test_bad_sums_file_is_recomputed(self, isolated_cache, fits, text):
        fresh = coeffs._template_sums(1)
        assert fresh == tuple(map(Fraction, SUMS_1))
        path = isolated_cache / "sums-v3-delta1.json"
        written = path.read_bytes()
        path.write_text(text)
        template_data.cache_clear()
        coeffs._template_sums.cache_clear()
        assert coeffs._template_sums(1) == fresh
        assert len(fits) == 2  # summed from the template file, not refitted
        # the bad file was replaced by the recomputed sums
        assert path.read_bytes() == written
        assert coeffs._load("sums", 1, coeffs._read_sums) == fresh

    def test_nested_template_file_is_recomputed(self, isolated_cache, fits):
        isolated_cache.mkdir(parents=True)
        path = isolated_cache / "templates-v3-delta1.json"
        path.write_text(NESTED)
        assert len(template_data(1)) == 2
        assert len(fits) == 2
        assert coeffs._load("templates", 1, coeffs._read_templates) == template_data(1)

    def test_garbage_file_is_ignored(self, isolated_cache, capsys):
        isolated_cache.mkdir(parents=True)
        (isolated_cache / "templates-v3-delta1.json").write_text("not json")
        code, out, _ = run(["templates", "--delta", "1"], capsys)
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_no_cache_flag_skips_disk(self, isolated_cache, capsys):
        # neither the template file nor the sums file is read or written
        for command in ("templates", "coeffs"):
            code, _, _ = run([command, "--delta", "1", "--no-cache"], capsys)
            assert code == 0
        assert not isolated_cache.exists()

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
        assert coeffs._template_sums(1) == tuple(map(Fraction, SUMS_1))

    def test_warm_output_matches_cold(self, tmp_path):
        argv = ["coeffs", "--delta", "2", "--format", "json"]
        cold = longedge_process(argv, tmp_path)
        assert (tmp_path / "templates-v3-delta2.json").exists()
        warm = longedge_process(argv, tmp_path)
        assert cold.returncode == warm.returncode == 0
        assert warm.stdout == cold.stdout

    def test_severi_after_coeffs_fits_nothing(self, tmp_path):
        # a warm severi reads the five sums of each cogenus: with every way
        # to a template refused it prints the pinned report and fits nothing
        polygon = tmp_path / "triangle.json"
        polygon.write_text(json.dumps({"dt": 0, "left": [[0, 5]], "right": [[1, 5]]}))
        out = tmp_path / "out.json"
        fill = longedge_process(
            ["coeffs", "--delta", "4", "--out", str(out)], tmp_path, COUNT_FITS
        )
        # one fit per template of cogenus 1..4: 2 + 7 + 26 + 102
        assert fill.stdout.split() == ["137"], fill.stderr
        severi = longedge_process(
            ["severi", "--polygon", str(polygon), "--delta", "4", "--out", str(out)],
            tmp_path,
            NO_TEMPLATES,
        )
        assert severi.stdout.split() == ["0"], severi.stderr
        assert json.loads(out.read_text())["agree"] is True
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == TRIANGLE_REPORT_DIGESTS[5]


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


# Runs the command line, then prints whether OpenSSL's hash module loaded.
CLI_THEN_HASHLIB = """
import sys
from longedge import cli
assert cli.main(sys.argv[1:]) == 0
print("_hashlib" in sys.modules)
"""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256; the cache uses hashlib",
)
def test_cache_does_not_load_hashlib(tmp_path):
    # the cache files are hashed with the interpreter's own SHA-256, so a
    # process that writes them and one that reads them both skip OpenSSL
    argv = ["coeffs", "--delta", "2"]
    cold = longedge_process(argv, tmp_path, CLI_THEN_HASHLIB)
    assert (tmp_path / "sums-v3-delta2.json").exists()
    warm = longedge_process(argv, tmp_path, CLI_THEN_HASHLIB)
    assert cold.stdout.endswith("\nFalse\n"), cold.stderr
    assert warm.stdout == cold.stdout, warm.stderr


# Runs the command line as `python -m longedge.cli` does, or with no
# arguments only imports the package, then prints which of dataclasses and
# inspect it loaded (interpreter start-up may load them on its own).
RECORD_MACHINERY = """
import runpy
import sys
before = set(sys.modules)
if sys.argv[1:]:
    try:
        runpy.run_module("longedge.cli", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
else:
    import longedge
print(sorted({"dataclasses", "inspect"} & set(sys.modules) - before))
"""


@pytest.mark.parametrize("argv", [["series", "b1", "--order", "3"], []])
def test_start_up_loads_no_dataclasses(argv, tmp_path):
    # the records are NamedTuples and slotted classes: importing dataclasses,
    # and the inspect module it pulls in, would slow every process's start-up
    proc = longedge_process(argv, tmp_path, RECORD_MACHINERY)
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr
    assert proc.stdout.startswith("1, -1, -5, 39") == bool(argv)


# Runs the command line as `python -m longedge.cli` does, then prints which
# of the verify suites and the frozen tables they check it loaded.
SUITE_MODULES = """
import runpy
import sys
try:
    runpy.run_module("longedge.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(sorted({"longedge.suites", "longedge.reference"} & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["series", "b1", "--order", "3"], []),
        (["severi", "--polygon", "{polygon}", "--delta", "2"], []),
        (["verify", "nosuch"], ["longedge.reference", "longedge.suites"]),
    ],
)
def test_only_verify_loads_the_suites(argv, loaded, tmp_path):
    polygon = tmp_path / "triangle.json"
    polygon.write_text(json.dumps({"dt": 0, "left": [[0, 3]], "right": [[1, 3]]}))
    argv = [arg.format(polygon=polygon) for arg in argv]
    proc = longedge_process(argv, tmp_path, SUITE_MODULES)
    assert proc.stdout.splitlines()[-1] == str(loaded), proc.stderr


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

    @pytest.mark.parametrize("side, digest", TRIANGLE_REPORT_DIGESTS.items())
    def test_triangle_report_is_pinned(self, side, digest, tmp_path, capsys):
        path = self._polygon_file(
            tmp_path, {"dt": 0, "left": [[0, side]], "right": [[1, side]]}
        )
        code, out, _ = run(["severi", "--polygon", path, "--delta", "4"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
    CHECKS = {"table1": 11, "coeffs": 6, "gyz": 6, "oracle": 38, "toric": 150}

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
        monkeypatch.setitem(suites.SUITES, "table1", Suite(lambda: [], False))
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

    def test_unknown_suite_names_every_suite(self, capsys):
        code, out, err = run(["verify", "nosuch"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unknown suite 'nosuch'")
        assert all(repr(name) in err for name in suites.SUITES)


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
    # a polygon file nested too deeply for the JSON parser
    (["severi", "--polygon", "{nested}", "--delta", "1"], None, 2),
    # an unwritable --out for the streamed template table
    (["templates", "--delta", "1", "--out", "{nodir}/t.json"], None, 2),
    (["templates", "--delta", "0", "--format", "tsv", "--out", "{dir}"], None, 2),
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
        "nested": tmp_path / "nested.json",
    }
    files["nested"].write_text(NESTED)
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
