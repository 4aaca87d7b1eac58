"""Builtin families, catalog files, reports, and the command surface."""

import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from grouplab import catalog, cli
from grouplab.catalog import (
    InvariantReport,
    PipelineConfig,
    builtin,
    compute_report,
    group_from_spec_dict,
    load_catalog,
    save_catalog,
)
from grouplab.cli import build_parser, main, resolve_group
from grouplab.cohomology import DEFAULT_ORACLE_CAP
from grouplab.errors import InternalCheckFailed, ParamOutOfRange, ParseError, UnknownFamily, ValidationError
from grouplab.groups import AbelianInvariants, center, derived_subgroup
from grouplab.wedge import DEFAULT_CURLY_CAP, DEFAULT_EXTERIOR_CAP, WedgeRealization

REPO = Path(__file__).resolve().parent.parent
REPO_CATALOG = REPO / "catalog"


class TestBuiltins:
    def test_cyclic(self):
        G = builtin("cyclic", (6,))
        assert G.order == 6 and G.is_abelian()

    def test_quaternion8(self):
        Q8 = builtin("quaternion8")
        assert Q8.order == 8
        assert len(center(Q8)) == 2
        assert len(derived_subgroup(Q8)) == 2

    def test_dihedral_vs_dicyclic(self):
        assert builtin("dihedral", (6,)).order == 12
        assert builtin("dicyclic", (3,)).order == 12

    def test_symmetric_alternating(self):
        assert builtin("symmetric", (4,)).order == 24
        assert builtin("alternating", (4,)).order == 12
        assert builtin("alternating", (5,)).order == 60

    @pytest.mark.parametrize("family, params", [("symmetric", (1,)), ("alternating", (1,)), ("alternating", (2,))])
    def test_symmetric_and_alternating_groups_on_few_points_are_trivial(self, family, params):
        G = builtin(family, params)
        assert (G.order, G.mul, G.label) == (1, ((0,),), "Z1")

    def test_elementary(self):
        G = builtin("elementary", (3, 2))
        assert G.order == 9 and G.is_abelian()
        with pytest.raises(ParamOutOfRange):
            builtin("elementary", (4, 2))

    def test_extraspecial_pair(self):
        a = builtin("extraspecial", (3, "p"))
        b = builtin("extraspecial", (3, "p2"))
        assert a.order == b.order == 27
        assert len(center(a)) == len(center(b)) == 3
        assert max(a.order_multiset()) == 3
        assert max(b.order_multiset()) == 9

    def test_builtin_tables_are_pinned(self):
        """Table, inverses, label and names of every small metacyclic builtin, byte for byte.

        Witness files, the verify-theorem pin and the benchmark's relabelings
        all read these element numberings.
        """
        specs = (
            [("cyclic", (n,)) for n in range(1, 65)]
            + [("dihedral", (n,)) for n in range(1, 65)]
            + [("dicyclic", (n,)) for n in range(1, 33)]
            + [("quaternion8", ())]
            + [("extraspecial", (p, kind)) for p in (3, 5) for kind in ("p", "p2", "p^2")]
            + [("elementary", (2, 3)), ("elementary", (3, 2)), ("elementary", (5, 2))]
        )
        digest = hashlib.sha256()
        for family, params in specs:
            G = builtin(family, params)
            digest.update(repr((G.mul, G.inv, G.label, G.element_names)).encode())
        assert digest.hexdigest() == "c80b74dd75914b6c46c6654afe80bcf21e9c7726ffa306341dffd75917028207"

    def test_direct_product_descriptor(self):
        G = builtin("direct_product", (("cyclic", 2), ("symmetric", 3)))
        assert G.order == 12

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            builtin("sporadic", (1,))

    def test_param_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            builtin("symmetric", (6,))

    def test_range_is_checked_before_any_arithmetic(self, monkeypatch):
        # a prime test on 10^18 + 3 ran for minutes before the range check rejected it
        def factorise(n):
            raise AssertionError(f"factorised {n}")

        monkeypatch.setattr(catalog, "_factorise", factorise)
        for params in ((1000000000000000003, 1), (3, 3000000), (4, 10**100), (1, 2)):
            with pytest.raises(ParamOutOfRange):
                builtin("elementary", params)
        with pytest.raises(AssertionError, match="factorised 3"):
            builtin("elementary", (3, 2))


class TestCatalogFiles:
    def test_load_shipped_catalog(self):
        groups = load_catalog(REPO_CATALOG)
        assert len(groups) == 35
        assert [g.label for g in groups] == sorted(g.label for g in groups)

    def test_round_trip(self, tmp_path):
        groups = [builtin("cyclic", (2,)), builtin("symmetric", (3,))]
        groups = [g for g in groups]
        names = ["c2", "s3"]
        import dataclasses

        groups = [dataclasses.replace(g, label=n) for g, n in zip(groups, names)]
        save_catalog(groups, tmp_path)
        back = load_catalog(tmp_path)
        assert [g.label for g in back] == sorted(names)
        for g in back:
            orig = groups[names.index(g.label)]
            assert g.mul == orig.mul

    def test_save_rejects_a_name_that_leaves_the_directory(self, tmp_path):
        import dataclasses

        escaping = dataclasses.replace(builtin("cyclic", (2,)), label="../escaped_save")
        with pytest.raises(ParseError, match="not a plain file name"):
            save_catalog([escaping], tmp_path / "root")
        assert list(tmp_path.iterdir()) == []  # neither root nor escaped_save.json

    def test_save_checks_every_name_before_it_writes(self, tmp_path):
        import dataclasses

        ok = dataclasses.replace(builtin("cyclic", (2,)), label="ok")
        bad = dataclasses.replace(builtin("cyclic", (2,)), label="../bad")
        with pytest.raises(ParseError, match="not a plain file name"):
            save_catalog([ok, bad], tmp_path)
        assert list(tmp_path.iterdir()) == []  # no ok.json

    def test_bad_table_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps({"name": "bad", "kind": "cayley", "data": {"table": [[0, 1], [1, 1]]}})
        )
        with pytest.raises(ValidationError):
            load_catalog(tmp_path)

    def test_parse_error_carries_position(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        with pytest.raises(ParseError) as err:
            load_catalog(tmp_path)
        assert "broken.json" in str(err.value)

    def test_duplicate_names_rejected(self, tmp_path):
        doc = {"name": "same", "kind": "builtin", "data": {"family": "cyclic", "params": [2]}}
        (tmp_path / "a.json").write_text(json.dumps(doc))
        (tmp_path / "b.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_catalog(tmp_path)

    def test_perm_kind(self):
        doc = {
            "name": "s3perm",
            "kind": "perm",
            "data": {"generators": [[1, 0, 2], [2, 1, 0]]},
        }
        G = group_from_spec_dict(doc)
        assert G.order == 6 and G.label == "s3perm"


class TestReports:
    def test_s3_report(self):
        rep = compute_report(builtin("symmetric", (3,)), PipelineConfig(oracle=True))
        doc = rep.to_json_dict()
        assert doc["curly_order"] == 3
        assert doc["kernel_invariants"] == []
        assert doc["exterior"]["multiplier_order"] == 1
        assert doc["oracle"]["multiplier_agrees"] is True
        assert doc["oracle"]["b0_le_kernel"] is True
        assert doc["timing_ms"] is None

    def test_round_trip(self):
        rep = compute_report(builtin("cyclic", (6,)))
        doc = rep.to_json_dict()
        back = InvariantReport.from_json_dict(json.loads(json.dumps(doc)))
        assert back.to_json_dict() == doc

    def test_missing_and_unknown_keys_are_named(self):
        with pytest.raises(ValidationError, match=r"missing keys \['abelianization'.*unknown keys \[\]"):
            InvariantReport.from_json_dict({"group": "x"})
        doc = compute_report(builtin("cyclic", (2,))).to_json_dict()
        doc["extra"] = 1
        del doc["order"]
        with pytest.raises(ValidationError, match=r"missing keys \['order'\], unknown keys \['extra'\]"):
            InvariantReport.from_json_dict(doc)

    def test_consistency_enforced(self):
        rep = compute_report(builtin("symmetric", (3,)))
        rep.kernel_order = 5
        with pytest.raises(Exception):
            rep.to_json_dict()

    def test_a_negative_cap_is_refused_where_the_config_is_built(self):
        # compute_report compared the order with the cap and skipped the oracle
        with pytest.raises(ValidationError, match="oracle cap -1 is not an integer or lies below 0"):
            PipelineConfig(oracle_cap=-1)


class TestCli:
    COMMANDS = ("compute", "oracle", "verify-theorem")
    ALL_CAPS = ("max_cosets", "max_group_order", "max_exterior_order", "oracle_cap")

    @pytest.mark.parametrize(
        "command,caps",
        [
            ("compute", ALL_CAPS),
            ("families", ()),
            ("verify-theorem", ALL_CAPS),
            ("oracle", ALL_CAPS),
            ("dump-presentation", ("max_group_order", "max_exterior_order")),
            ("dump-cocycles", ("oracle_cap",)),
        ],
        ids=["compute", "families", "verify-theorem", "oracle", "dump-presentation", "dump-cocycles"],
    )
    def test_cap_defaults_come_from_the_library(self, command, caps):
        args = vars(build_parser().parse_args([command, "builtin:cyclic:2"]))
        defaults = {
            "max_cosets": None,  # read from GROUPLAB_MAX_COSETS, else DEFAULT_MAX_COSETS
            "max_group_order": DEFAULT_CURLY_CAP,
            "max_exterior_order": DEFAULT_EXTERIOR_CAP,
            "oracle_cap": DEFAULT_ORACLE_CAP,
        }
        assert {k: args[k] for k in defaults if k in args} == {k: defaults[k] for k in caps}

    @pytest.mark.parametrize(
        "argv",
        [
            ["families", "catalog", "--oracle-cap", "0"],
            ["dump-presentation", "builtin:cyclic:2", "--max-cosets", "5"],
            ["dump-cocycles", "builtin:cyclic:2", "--max-group-order", "5"],
        ],
        ids=["families", "dump-presentation", "dump-cocycles"],
    )
    def test_caps_that_change_nothing_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        text = (REPO / "README.md").read_text()
        block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert len(lines) >= 7 and all(words[0] == "grouplab" for words in lines)
        for words in lines:
            build_parser().parse_args(words[1:])

    def test_compute_builtin(self, tmp_path, capsys):
        rc = main(["compute", "builtin:symmetric:3", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pairing_order=3" in out
        assert (tmp_path / "symmetric_3.json").is_file()

    def test_compute_abelian(self, tmp_path):
        rc = main(["compute", "builtin:cyclic:12", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "cyclic_12.json").read_text())
        assert doc["curly_order"] == 1 and doc["kernel_invariants"] == []

    def test_forced_cap_exit_code(self, tmp_path):
        rc = main(["compute", "builtin:symmetric:3", "--max-cosets", "2", "--out", str(tmp_path)])
        assert rc == 2

    def test_input_error_exit_code(self, tmp_path):
        rc = main(["compute", "builtin:sporadic:1", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize(
        "spec,error",
        [
            ("builtin:cyclic", ParamOutOfRange),
            ("builtin:cyclic:abc", ParamOutOfRange),
            ("builtin:cyclic:2:3", ParamOutOfRange),
            ("builtin:elementary:2", ParamOutOfRange),
            ({"kind": "builtin", "data": {"family": "cyclic", "params": []}}, ParamOutOfRange),
            ({"kind": "builtin", "data": {"family": "cyclic", "params": 5}}, ParamOutOfRange),
            ({"kind": "builtin", "data": {"family": "direct_product", "params": [[], ["cyclic", 2]]}}, ParamOutOfRange),
            ({"kind": "builtin", "data": {"family": "direct_product", "params": [{"params": [2]}, ["cyclic", 2]]}}, UnknownFamily),
            ({"kind": "cayley", "data": {"table": [[0, 1], [1]]}}, ValidationError),
            ({"kind": "cayley", "data": {"table": [[0, 1], [1, "a"]]}}, ValidationError),
            ({"kind": "cayley", "data": {"table": [[0, 1], [1, 0.5]]}}, ValidationError),
            ({"kind": "perm", "data": {"generators": [[1, 0, "x"]]}}, ValidationError),
            ({"kind": "perm", "data": {"generators": [[1.0, 0, 2]]}}, ValidationError),
            ({"kind": "cayley", "data": {"table": [[0, True], [True, 0]]}}, ValidationError),
            ({"kind": "perm", "data": {"generators": [[True, False]]}}, ValidationError),
            ({"kind": "perm", "data": {"generators": [], "degree": "x"}}, ParseError),
            ({"kind": "cayley", "data": {"table": [[0]], "element_names": 5}}, ParseError),
            ({"kind": "cayley", "data": 5}, ParseError),
            ({"kind": "builtin", "data": {"family": "cyclic", "params": [True]}}, ParamOutOfRange),
            ({"kind": "perm", "data": {"generators": [[1, 0]], "degree": True}}, ParseError),
            ({"kind": "cayley", "data": {"table": [[0, 1], [1, 0]], "element_names": ["e", 5]}}, ParseError),
            ({"name": "../escaped", "kind": "builtin", "data": {"family": "cyclic", "params": [2]}}, ParseError),
            ({"name": "a/b", "kind": "builtin", "data": {"family": "cyclic", "params": [2]}}, ParseError),
            ("builtin:elementary:1000000000000000003:1", ParamOutOfRange),
            ("builtin:elementary:3:3000000", ParamOutOfRange),
            ("builtin:cyclic:" + "9" * 5000, ParamOutOfRange),
            ("builtin:cyclic:1_0", ParamOutOfRange),  # int() read these four as 10, 3, 3 and 3
            ("builtin:cyclic: 3", ParamOutOfRange),
            ("builtin:cyclic:+3", ParamOutOfRange),
            ("builtin:cyclic:\u0663", ParamOutOfRange),
            ("x" * 5000, ParseError),  # raised a bare OSError (file name too long)
        ],
        ids=[
            "no-param", "non-integer-param", "extra-param", "missing-param", "spec-no-param",
            "spec-params-not-a-list", "empty-factor", "factor-without-family",
            "short-row", "string-entry", "float-entry", "string-point", "float-point",
            "boolean-entry", "boolean-point",
            "string-degree", "names-not-a-list", "data-not-an-object",
            "boolean-param", "boolean-degree", "non-string-name",
            "name-leaves-the-directory", "name-with-a-slash", "huge-prime", "huge-exponent", "5000-digit-param",
            "underscore-param", "space-param", "plus-param", "arabic-indic-param",
            "5000-character-path",
        ],
    )
    def test_malformed_group_is_an_input_error(self, tmp_path, capsys, spec, error):
        if isinstance(spec, dict):
            path = tmp_path / "g.json"
            path.write_text(json.dumps({"name": "g", **spec}))
            spec = str(path)
        with pytest.raises(error):
            resolve_group(spec)
        assert main(["compute", spec, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["families", "verify-theorem", "oracle"])
    def test_over_long_catalog_path_is_an_input_error(self, tmp_path, capsys, command):
        assert main([command, "x" * 5000, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: " + "x" * 60 + "...: cannot look up the path")

    def test_env_var_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUPLAB_MAX_COSETS", "2")
        rc = main(["compute", "builtin:symmetric:3", "--out", str(tmp_path)])
        assert rc == 2

    def test_env_var_cap_not_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GROUPLAB_MAX_COSETS", "abc")
        rc = main(["compute", "builtin:symmetric:3", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: GROUPLAB_MAX_COSETS is not an integer: 'abc'\n"

    def test_env_var_cap_is_decimal_digits(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GROUPLAB_MAX_COSETS", " 0_1")  # int() reads it as 1
        assert main(["compute", "builtin:symmetric:3", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: GROUPLAB_MAX_COSETS is not an integer: ' 0_1'\n"

    def test_env_var_is_read_only_where_max_cosets_exists(self, tmp_path, monkeypatch):
        # families takes no cap, so a malformed GROUPLAB_MAX_COSETS made it exit 1
        cat = tmp_path / "cat"
        cat.mkdir()
        (cat / "z2.json").write_text(json.dumps({"name": "z2", "kind": "builtin", "data": {"family": "cyclic", "params": [2]}}))
        monkeypatch.setenv("GROUPLAB_MAX_COSETS", "abc")
        assert main(["families", str(cat), "--out", str(tmp_path / "fam")]) == 0
        assert main(["dump-presentation", "builtin:cyclic:2"]) == 0
        assert main(["oracle", str(cat), "--out", str(tmp_path / "orc")]) == 1

    def test_dump_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "pres.json"
        assert main(["dump-presentation", "builtin:cyclic:2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["num_generators"] == 4

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["compute", "builtin:cyclic:3", "--bogus"], "unrecognized arguments: --bogus"),
            (["compute", "builtin:cyclic:3", "--max-group-order", "abc"], "invalid int value: 'abc'"),
            (["verify-theorem", "catalog", "--fuzz-trials", "5"], "unrecognized arguments: --fuzz-trials"),
            ([], "the following arguments are required: command"),
            # int() reads each of these: 1_0 as 10, +16 as 16, " 24" as 24 and the Arabic-Indic digits as their values
            (["compute", "builtin:symmetric:3", "--max-group-order", "1_0"], "invalid int value: '1_0'"),
            (["compute", "builtin:symmetric:3", "--max-exterior-order", "+16"], "invalid int value: '+16'"),
            (["compute", "builtin:symmetric:3", "--oracle-cap", " 24"], "invalid int value: ' 24'"),
            (["compute", "builtin:symmetric:3", "--max-cosets", "\u0660_\u0661"], "invalid int value: '\u0660_\u0661'"),
            (["compute", "builtin:symmetric:3", "--jobs", "\u0662"], "invalid int value: '\u0662'"),
            (["dump-cocycles", "builtin:symmetric:3", "--modulus", "\u0662"], "invalid int value: '\u0662'"),
        ],
        ids=[
            "unknown-flag", "non-integer-cap", "removed-flag", "no-command", "underscore-cap", "plus-cap",
            "space-cap", "arabic-indic-cap", "arabic-indic-jobs", "arabic-indic-modulus",
        ],
    )
    def test_usage_error_exits_1(self, tmp_path, monkeypatch, capsys, argv, message):
        # 2 is kept for a configured cap, so argparse's own exit code is not passed on
        monkeypatch.chdir(tmp_path)  # a command that ran would write its default --out here
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("compute", ["--jobs", "0"], "jobs 0 is not an integer or lies below 1"),
            ("compute", ["--jobs", "-3"], "jobs -3 is not an integer or lies below 1"),
            *((c, ["--oracle-cap", "-5"], "oracle cap -5 is not an integer or lies below 0") for c in COMMANDS),
            *((c, ["--max-exterior-order", "-1"], "group cap -1 is not an integer or lies below 0") for c in COMMANDS),
        ],
        ids=[
            "compute-jobs-0", "compute-jobs-negative",
            *(f"{c}-oracle-cap" for c in COMMANDS), *(f"{c}-exterior-cap" for c in COMMANDS),
        ],
    )
    def test_a_count_below_its_range_exits_1(self, tmp_path, capsys, command, flags, message):
        # each ran: --jobs below 2 serially, and a negative cap skipped its step
        cat = tmp_path / "cat"
        cat.mkdir()
        (cat / "z2.json").write_text(json.dumps({"name": "z2", "kind": "builtin", "data": {"family": "cyclic", "params": [2]}}))
        group = ["builtin:cyclic:2", "--oracle"] if command == "compute" else [str(cat)]
        assert main([command, *group, *flags, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        assert main([flag]) == 0
        assert "grouplab" in capsys.readouterr().out

    def test_dump_to_a_missing_directory_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["dump-cocycles", "builtin:cyclic:2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err and str(out) in err

    def test_out_directory_that_is_a_file_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["compute", "builtin:cyclic:2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and str(out) in err
        assert out.read_text() == ""

    def test_catalog_compute_with_jobs(self, tmp_path):
        cat = tmp_path / "cat"
        cat.mkdir()
        for name, fam, params in (("a_s3", "symmetric", [3]), ("b_d4", "dihedral", [4]), ("c_z6", "cyclic", [6])):
            (cat / f"{name}.json").write_text(
                json.dumps({"name": name, "kind": "builtin", "data": {"family": fam, "params": params}})
            )
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["compute", str(cat), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["compute", str(cat), "--out", str(out2), "--jobs", "2"]) == 0
        for f in sorted(out1.glob("*.json")):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_jobs_start_no_more_workers_than_groups(self, tmp_path, monkeypatch):
        # a fork pool starts all max_workers processes at its first submit, so this one only records them
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        cat = tmp_path / "cat"
        cat.mkdir()
        for name, n in (("z2", 2), ("z3", 3)):
            (cat / f"{name}.json").write_text(json.dumps({"name": name, "kind": "builtin", "data": {"family": "cyclic", "params": [n]}}))
        assert main(["compute", str(cat), "--out", str(tmp_path / "out"), "--jobs", "1000"]) == 0
        assert started == [2]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["z2.json", "z3.json"]

    def test_families_command(self, tmp_path):
        cat = tmp_path / "cat"
        cat.mkdir()
        for name, fam, params in (("d4", "dihedral", [4]), ("q8", "quaternion8", []), ("z8", "cyclic", [8])):
            (cat / f"{name}.json").write_text(
                json.dumps({"name": name, "kind": "builtin", "data": {"family": fam, "params": params}})
            )
        rc = main(["families", str(cat), "--out", str(tmp_path / "fam")])
        assert rc == 0
        doc = json.loads((tmp_path / "fam" / "families.json").read_text())
        members = [f["members"] for f in doc["families"]]
        assert ["d4", "q8"] in members and ["z8"] in members

    def test_verify_theorem_command_small(self, tmp_path):
        cat = tmp_path / "cat"
        cat.mkdir()
        members = (
            ("d4", "dihedral", [4]),
            ("q8", "quaternion8", []),
            ("s3", "symmetric", [3]),
            ("s3xz2", "direct_product", [["symmetric", 3], ["cyclic", 2]]),
            ("v4", "elementary", [2, 2]),
            ("z4", "cyclic", [4]),
        )
        for name, fam, params in members:
            (cat / f"{name}.json").write_text(
                json.dumps({"name": name, "kind": "builtin", "data": {"family": fam, "params": params}})
            )
        rc = main(["verify-theorem", str(cat), "--out", str(tmp_path / "vt")])
        assert rc == 0
        doc = json.loads((tmp_path / "vt" / "verify_theorem.json").read_text())
        assert doc["all_pass"] is True
        fams = sorted(f["members"] for f in doc["families"])
        assert fams == [["d4", "q8"], ["s3", "s3xz2"], ["v4", "z4"]]
        assert (tmp_path / "vt" / "witnesses" / "d4__q8.json").is_file()

    def test_verify_theorem_single_group(self, tmp_path):
        cat = tmp_path / "cat"
        cat.mkdir()
        (cat / "s3.json").write_text(
            json.dumps({"name": "s3", "kind": "builtin", "data": {"family": "symmetric", "params": [3]}})
        )
        rc = main(["verify-theorem", str(cat), "--out", str(tmp_path / "vt")])
        assert rc == 0
        doc = json.loads((tmp_path / "vt" / "verify_theorem.json").read_text())
        assert doc["all_pass"] is True and doc["pairs"] == []

    def test_verify_theorem_catalog_bytes_are_pinned(self, tmp_path, capsys):
        """Pins byte stability of ``verify-theorem catalog/``, not a reference value.

        The hashes are grouplab's own earlier output: its standard output,
        ``verify_theorem.json``, and a sha256sum-style manifest of every file
        in ``witnesses/``. They show that the pairs, witnesses and verdicts
        did not change, not that they are right.
        """
        rc = main(["verify-theorem", str(REPO_CATALOG), "--out", str(tmp_path)])
        assert rc == 0
        stdout = capsys.readouterr().out

        def sha256(data):
            return hashlib.sha256(data).hexdigest()

        witnesses = sorted((tmp_path / "witnesses").iterdir())
        manifest = "".join(f"{sha256(p.read_bytes())}  {p.name}\n" for p in witnesses)
        assert len(witnesses) == 312
        assert sha256(manifest.encode()) == "3da1e3b50ad46d519460c43c37f2fc7e94f627690beaa393938db859b58f9595"
        assert sha256((tmp_path / "verify_theorem.json").read_bytes()) == (
            "26a7cbf544b14292a7e281af1295bbdca1c0c09ea9fe34adc3f74e1334189c7a"
        )
        assert sha256(stdout.encode()) == "65bc0707d1fb8d88ba5a41564cd530a37ce602bbcdca04fa87f61c6da50b5b3e"

    @pytest.mark.parametrize(
        "argv,files,manifest,stdout",
        [
            (
                ["compute", str(REPO_CATALOG), "--oracle", "--format", "json"],
                35,
                "1b8f04c364781faacdcd5d68b6452119819829531ae3ff4f769b1be59e8fee99",
                "da10c742dc16c6983a5b8aaace2cd5485b8f6306a4eb725f4d1693dea8595c95",
            ),
            (
                ["families", str(REPO_CATALOG)],
                1,
                "0a8f9e45d8174ba0e2cbb1edad200cbee70a6bc719c3019f93d8d0b19b041630",
                "4b6e90ce43f1d51a9dec9336b17c6ebbcbcafb032d97962392b0119b0a3b0384",
            ),
            (
                ["oracle", str(REPO_CATALOG)],
                1,
                "2d3a2dc7fe3d2f6d5ba475f9448492a4e906cde939998cf0e491d850e0d5db1b",
                "6d1b11c743be82f4c373982aa4af9261013dfa912d8213835d564d707015d595",
            ),
            (
                ["dump-presentation", "builtin:dihedral:4", "--variant", "exterior"],
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "078424fe582f3e31a8e562d3b46c2c1cab9616b5a02f362874fa7a31a2085175",
            ),
        ],
        ids=["compute-oracle-json", "families", "oracle", "dump-presentation"],
    )
    def test_catalog_outputs_are_pinned(self, tmp_path, capsys, monkeypatch, argv, files, manifest, stdout):
        """Pins byte stability of the other commands' outputs, not reference values.

        As for ``verify-theorem``, the hashes are grouplab's own earlier
        output: its standard output and a sha256sum-style manifest of the
        files it writes into the working directory.
        """
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        out = capsys.readouterr().out

        def sha256(data):
            return hashlib.sha256(data).hexdigest()

        written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        lines = "".join(f"{sha256(p.read_bytes())}  {p.name}\n" for p in written)
        assert len(written) == files
        assert sha256(lines.encode()) == manifest
        assert sha256(out.encode()) == stdout

    def test_oracle_command_small(self, tmp_path):
        cat = tmp_path / "cat"
        cat.mkdir()
        for name, fam, params in (("s3", "symmetric", [3]), ("v4", "elementary", [2, 2]), ("big", "extraspecial", [3, "p"])):
            (cat / f"{name}.json").write_text(
                json.dumps({"name": name, "kind": "builtin", "data": {"family": fam, "params": params}})
            )
        rc = main(["oracle", str(cat), "--out", str(tmp_path / "orc")])
        assert rc == 0
        doc = json.loads((tmp_path / "orc" / "oracle.json").read_text())
        by_name = {e["group"]: e for e in doc["entries"]}
        assert by_name["s3"]["multiplier_agrees"] is True
        assert by_name["v4"]["multiplier_order_wedge"] == 2
        assert "skipped" in by_name["big"]
        assert doc["config_hash"] == PipelineConfig().config_hash()
        for name in ("s3", "v4"):
            rep = compute_report(resolve_group(str(cat / f"{name}.json")), PipelineConfig(oracle=True))
            entry = by_name[name]
            assert entry["kernel_order"] == rep.kernel_order
            assert entry["multiplier_order_wedge"] == rep.exterior["multiplier_order"]
            assert entry["multiplier_order_oracle"] == rep.oracle["multiplier_order"]
            for key in ("multiplier_agrees", "b0_lower_bound", "b0_invariants", "b0_le_kernel", "b0_equals_kernel"):
                assert entry[key] == rep.oracle[key]

    def test_dump_presentation(self, capsys):
        rc = main(["dump-presentation", "builtin:cyclic:2", "--variant", "curly"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_generators"] == 4
        assert doc["raw_relator_counts"]["collapsing"] == 4

    def test_dump_cocycles(self, capsys):
        rc = main(["dump-cocycles", "builtin:elementary:2:2", "--modulus", "4"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["h2_order"] == 8

    def test_dump_cocycles_rejects_modulus_zero(self, capsys):
        rc = main(["dump-cocycles", "builtin:elementary:2:2", "--modulus", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: modulus 0 is not an integer or lies below 1\n"

    def test_dump_cocycles_rejects_a_negative_modulus(self, capsys):
        # a minus sign is decimal digits, so -1 reaches the range check
        assert main(["dump-cocycles", "builtin:elementary:2:2", "--modulus", "-1"]) == 1
        assert capsys.readouterr().err == "error: modulus -1 is not an integer or lies below 1\n"

    def test_dump_cocycles_rejects_a_modulus_too_large_for_int64(self, capsys):
        rc = main(["dump-cocycles", "builtin:elementary:2:2", "--modulus", "12884901888"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: modulus 12884901888 is too large")

    def test_resolve_group_rejects_garbage(self):
        with pytest.raises(ValidationError):
            resolve_group("nonsense")


NO_MASKED_ARRAYS = """
import contextlib, io, sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(3)
from grouplab import cli
from grouplab.catalog import builtin
from grouplab.isoclinism import are_isoclinic
from grouplab.wedge import WedgeVariant, compute_wedge
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["compute", "builtin:symmetric:4", "--oracle"]) == 0
compute_wedge(builtin("dihedral", (4,)), WedgeVariant.CURLY)
assert are_isoclinic(builtin("dihedral", (4,)), builtin("quaternion8")) is not None
print("numpy.ma" in sys.modules)
"""


def test_a_report_realization_and_witness_leave_numpy_ma_unloaded(tmp_path):
    # numpy's plain unique and setdiff1d import numpy.ma at first use (about
    # 16 ms); the library reads element sets off a bincount instead. The
    # compute command writes its report under the working directory.
    run = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    if run.returncode == 3:
        pytest.skip("numpy imports numpy.ma at import")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def _spec_file(tmp_path):
    path = tmp_path / "S3.json"
    path.write_text(json.dumps({"name": "S3", "kind": "builtin", "data": {"family": "symmetric", "params": [3]}}))
    return path


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda tmp: builtin("extraspecial", (2, "p")),
            ParamOutOfRange,
            "extraspecial family supports p in {3, 5}, got 2",
            id="extraspecial p=2",
        ),
        pytest.param(
            lambda tmp: builtin("extraspecial", (7, "p2")),
            ParamOutOfRange,
            "extraspecial family supports p in {3, 5}, got 7",
            id="extraspecial p=7",
        ),
        pytest.param(
            lambda tmp: builtin("extraspecial", ("x", "p")),
            ParamOutOfRange,
            "extraspecial parameters must be integers, got ['x']",
            id="extraspecial p not an integer",
        ),
        pytest.param(
            lambda tmp: builtin("extraspecial", (3, "q")),
            ParamOutOfRange,
            "extraspecial exponent type must be 'p' or 'p2', got 'q'",
            id="extraspecial exponent type",
        ),
        pytest.param(
            lambda tmp: builtin("extraspecial", (3,)),
            ParamOutOfRange,
            "extraspecial takes 2 parameter(s), got 1",
            id="extraspecial parameter count",
        ),
        pytest.param(
            lambda tmp: builtin("direct_product", (("cyclic", 2),)),
            ParamOutOfRange,
            "direct_product needs at least two factor descriptors",
            id="direct product of one",
        ),
        pytest.param(
            lambda tmp: builtin("direct_product", ()),
            ParamOutOfRange,
            "direct_product needs at least two factor descriptors",
            id="direct product of none",
        ),
        pytest.param(
            lambda tmp: builtin("direct_product", (("cyclic", 32), ("cyclic", 32))),
            ParamOutOfRange,
            "direct product order 1024 exceeds the core cap 512",
            id="direct product over 512",
        ),
        pytest.param(
            lambda tmp: group_from_spec_dict({"name": "G", "kind": "cayley"}),
            ParseError,
            "missing field 'data'",
            id="spec without data",
        ),
        pytest.param(
            lambda tmp: group_from_spec_dict({"kind": "cayley", "data": {}}),
            ParseError,
            "missing field 'name'",
            id="spec without name",
        ),
        pytest.param(
            lambda tmp: group_from_spec_dict({"name": "G", "kind": "cayley", "data": {"table": "0"}}),
            ParseError,
            "cayley data needs a 'table' array",
            id="cayley table not a list",
        ),
        pytest.param(
            lambda tmp: group_from_spec_dict({"name": "G", "kind": "perm", "data": {"generators": "(1 2)"}}),
            ParseError,
            "perm data needs a 'generators' array",
            id="perm generators not a list",
        ),
        pytest.param(
            lambda tmp: group_from_spec_dict({"name": "G", "kind": "builtin", "data": {"family": ["cyclic"]}}),
            ParseError,
            "builtin data needs a 'family' name",
            id="builtin family not a string",
        ),
        pytest.param(
            lambda tmp: group_from_spec_dict({"name": "G", "kind": "matrix", "data": {}}),
            ParseError,
            "unknown group kind 'matrix'",
            id="unknown kind",
        ),
        pytest.param(
            lambda tmp: load_catalog(_spec_file(tmp)),
            ParseError,
            "catalog path is not a directory",
            id="catalog path is a file",
        ),
    ],
)
def test_catalog_input_checks(tmp_path, build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build(tmp_path)


@pytest.mark.parametrize("doc", [[], "x", 3, None], ids=["list", "string", "number", "null"])
def test_spec_that_is_not_an_object_is_a_parse_error(doc):
    # each read as a missing field whose name was a TypeError's text
    with pytest.raises(ParseError, match=r"^<spec>: spec must be a JSON object$"):
        group_from_spec_dict(doc)


def test_spec_file_holding_a_list_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text("[]")
    assert main(["compute", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: spec must be a JSON object\n"


def _builtin_catalog(root, members):
    """A catalog directory of builtin-kind spec files, one per (name, family, params)."""
    root.mkdir()
    for name, fam, params in members:
        (root / f"{name}.json").write_text(
            json.dumps({"name": name, "kind": "builtin", "data": {"family": fam, "params": params}})
        )
    return root


class TestCliFailurePaths:
    """The verdicts that a correct library never reaches, forced by patching what the commands call."""

    def verify(self, tmp_path):
        cat = _builtin_catalog(tmp_path / "cat", (("d4", "dihedral", [4]), ("q8", "quaternion8", [])))
        rc = main(["verify-theorem", str(cat), "--out", str(tmp_path / "vt")])
        return rc, json.loads((tmp_path / "vt" / "verify_theorem.json").read_text())

    def test_verify_theorem_without_a_witness_fails_the_pair(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "are_isoclinic", lambda G1, G2: None)
        rc, doc = self.verify(tmp_path)
        assert rc == 1 and doc["all_pass"] is False
        assert doc["pairs"] == [{"family_id": 0, "pair": ["d4", "q8"], "witness_found": False, "pass": False}]
        assert capsys.readouterr().out.splitlines() == ["FAIL  d4 ~ q8 (family 0)", "verify-theorem: FAILURES PRESENT"]

    def test_verify_theorem_when_gamma_fails_records_the_error(self, tmp_path, monkeypatch):
        def build_gamma(witness, w1, w2):
            raise InternalCheckFailed("induced map between realizations is not bijective")

        monkeypatch.setattr(cli, "build_gamma", build_gamma)
        rc, doc = self.verify(tmp_path)
        (row,) = doc["pairs"]
        assert rc == 1 and doc["all_pass"] is False and row["pass"] is False
        assert [row[k] for k in ("gamma_bijective", "gamma_tilde_bijective", "diagram_commutes")] == [False] * 3
        assert row["error"] == "induced map between realizations is not bijective"
        assert row["witness_valid"] and row["invariants_equal"] and row["fuzz_stable"]

    @pytest.mark.parametrize(
        "key, patch",
        [
            ("witness_valid", lambda mp: mp.setattr(cli, "verify_witness", lambda w: False)),
            (
                "invariants_equal",
                lambda mp: mp.setattr(
                    WedgeRealization, "kernel_invariants", lambda self: AbelianInvariants((2,) if self.base.label == "d4" else ())
                ),
            ),
            ("fuzz_stable", lambda mp: mp.setattr(cli, "well_definedness_fuzz", lambda w, w1, w2: False)),
        ],
        ids=["witness-invalid", "invariants-unequal", "fuzz-unstable"],
    )
    def test_verify_theorem_fails_the_pair_on_each_check(self, tmp_path, monkeypatch, capsys, key, patch):
        patch(monkeypatch)
        rc, doc = self.verify(tmp_path)
        (row,) = doc["pairs"]
        assert rc == 1 and doc["all_pass"] is False and row["pass"] is False
        checks = ("witness_valid", "invariants_equal", "gamma_bijective", "fuzz_stable")
        assert {k: row[k] for k in checks} == {k: k != key for k in checks}
        assert capsys.readouterr().out.splitlines() == ["FAIL  d4 ~ q8 (family 0)", "verify-theorem: FAILURES PRESENT"]

    @pytest.mark.parametrize("agrees, failures", [(True, 1), (False, 2)], ids=["bound-only", "bound-and-multiplier"])
    def test_oracle_counts_a_bound_above_the_kernel(self, tmp_path, monkeypatch, capsys, agrees, failures):
        def over_kernel(G, config):
            rep = compute_report(G, config)
            return dataclasses.replace(rep, oracle={**rep.oracle, "b0_le_kernel": False, "multiplier_agrees": agrees})

        monkeypatch.setattr(cli, "compute_report", over_kernel)
        cat = _builtin_catalog(tmp_path / "cat", (("s3", "symmetric", [3]),))
        assert main(["oracle", str(cat), "--out", str(tmp_path / "orc")]) == 1
        doc = json.loads((tmp_path / "orc" / "oracle.json").read_text())
        assert doc["failures"] == failures and doc["entries"][0]["b0_le_kernel"] is False
        assert capsys.readouterr().out == "BAD  s3: mult_wedge=1 mult_oracle=1 b0=1 kernel=1\n"

    def test_oracle_counts_a_multiplier_disagreement(self, tmp_path, monkeypatch, capsys):
        def disagreeing(G, config):
            rep = compute_report(G, config)
            mult = rep.oracle["multiplier_order"] + 1
            return dataclasses.replace(rep, oracle={**rep.oracle, "multiplier_order": mult, "multiplier_agrees": False})

        monkeypatch.setattr(cli, "compute_report", disagreeing)
        cat = _builtin_catalog(tmp_path / "cat", (("s3", "symmetric", [3]),))
        assert main(["oracle", str(cat), "--out", str(tmp_path / "orc")]) == 1
        doc = json.loads((tmp_path / "orc" / "oracle.json").read_text())
        assert doc["failures"] == 1 and doc["entries"][0]["multiplier_agrees"] is False
        assert capsys.readouterr().out == "BAD  s3: mult_wedge=1 mult_oracle=2 b0=1 kernel=1\n"


def test_compute_catalog_with_the_oracle_prints_its_figures(tmp_path, capsys):
    """Every text line of a group within the oracle cap carries the oracle's two figures; the order-27 groups lie past it."""
    assert main(["compute", str(REPO_CATALOG), "--oracle", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 35
    for line in lines:
        order = int(re.search(r"\|G\|=(\d+) ", line).group(1))
        tail = re.search(r"  oracle_mult=\d+ b0_bound=\d+$", line)
        assert (tail is not None) == (order <= DEFAULT_ORACLE_CAP), line
    assert sum("oracle_mult=" not in line for line in lines) == 2


def test_compute_with_the_oracle_marks_the_groups_past_its_cap(tmp_path, capsys):
    """A text line of a group past the oracle cap says the oracle was skipped and why; its JSON report is unchanged."""
    cat = _builtin_catalog(
        tmp_path / "cat",
        (("ES27p", "extraspecial", [3, "p"]), ("ES27p2", "extraspecial", [3, "p2"]), ("S3", "symmetric", [3])),
    )
    assert main(["compute", str(cat), "--oracle", "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    mark = "  oracle=skipped (order 27 exceeds oracle cap 24)"
    assert [line.endswith(mark) for line in lines] == [True, True, False]
    assert lines[2].endswith("  oracle_mult=1 b0_bound=1")
    assert json.loads((tmp_path / "out" / "ES27p.json").read_text())["oracle"] is None
    assert main(["compute", str(cat), "--out", str(tmp_path / "out")]) == 0
    assert "oracle=" not in capsys.readouterr().out
