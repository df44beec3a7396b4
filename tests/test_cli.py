"""CLI: document validation, output formats, determinism, error codes."""

import dataclasses
import json
import sys

import pytest

from toricsegre import cli, segre
from toricsegre.chow import build_chow_ring
from toricsegre.errors import InputError, ToricSegreError
from toricsegre.library import projective_space

from test_segre import time_limit

F1_DOC = {
    "rays": [[1, 0], [-1, 1], [0, -1], [0, 1]],
    "max_cones": [[0, 3], [1, 3], [1, 2], [0, 2]],
    "variables": ["x0", "x1", "y0", "y1"],
    "degrees": [[1, 1, 1, 0], [0, 0, 1, 1]],
    "ideal": ["x1^2*y0^2 + x0^3*x1*y1^2", "x1*y0^2*y1^2 + x0^3*y1^4"],
}

P13_DOC = {
    "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
             [0, 0, 1], [0, 0, -1]],
    "max_cones": [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5],
                  [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5]],
    "variables": ["x0", "x1", "y0", "y1", "z0", "z1"],
    "degrees": [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0],
                [0, 0, 0, 0, 1, 1]],
    "ideal": ["x0*z0^2", "y0*z0 + z0*y1"],
}

TWISTED_CUBIC_DOC = {
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "max_cones": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
    "variables": ["x0", "x1", "x2", "x3"],
    "ideal": ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"],
}


def write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_document_validation():
    with pytest.raises(InputError):
        cli.load_document("not json")
    with pytest.raises(InputError):
        cli.load_document("[]")
    with pytest.raises(InputError):
        cli.load_document(json.dumps({"rays": [[1, 0]]}))
    with pytest.raises(InputError):
        cli.load_document(json.dumps(dict(F1_DOC, bogus=1)))
    with pytest.raises(InputError):
        cli.load_document(json.dumps(dict(F1_DOC, options={"speed": 9})))
    bad_fields = [
        {"rays": [[1.5, 0]] + F1_DOC["rays"][1:]},          # float ray
        {"rays": [[True, 0]] + F1_DOC["rays"][1:]},         # bool ray
        {"max_cones": [[0, 3], [1.0, 3], [1, 2], [0, 2]]},  # float index
        {"degrees": [[1, 1, 1, 0], [0, 0, 1, 0.5]]},
        {"degrees": [1, 1, 1, 0]},
        {"variables": "abcd"},                              # not a list
        {"variables": {"a": 1}},
        {"variables": [0, 1, 2, 3]},                        # not strings
        {"variables": ["x 1", "x1", "y0", "y1"]},           # not a NAME
        {"variables": ["1x", "x1", "y0", "y1"]},
        {"ideal": ["x0", 3]},                               # not a string
    ]
    bad_options = [{"coeff_bound": "x"}, {"coeff_bound": 0},
                   {"coeff_bound": 2.5}, {"retries": "5"}, {"seed": 1.0},
                   {"seed": False}, {"format": "xml"}]
    for change in bad_fields + [{"options": o} for o in bad_options]:
        with pytest.raises(InputError):
            cli.load_document(json.dumps(dict(F1_DOC, **change)))
    doc = cli.load_document(json.dumps(dict(
        F1_DOC, options={"seed": -3, "coeff_bound": 1, "retries": 2,
                         "format": "json"})))
    assert doc["options"]["coeff_bound"] == 1


def test_human_output_f1(tmp_path, capsys):
    rc = cli.main(["--input", write_doc(tmp_path, F1_DOC)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha = (6, 4)" in out
    assert "dim Z = 1" in out
    assert "s_0" in out and "s_1" in out


def test_verbose_output_lists_failed_attempts(tmp_path, capsys,
                                              monkeypatch):
    """With attempt 0 of the F1 example patched to work mod 3, which the
    purity check rejects, ``--verbose`` prints that failure before the
    residuals; the JSON output has no key for it, and without a retry
    the verbose output has no such line."""
    path = write_doc(tmp_path, F1_DOC)
    assert cli.main(["--input", path, "--verbose"]) == 0
    assert "failed" not in capsys.readouterr().out
    monkeypatch.setattr(segre, "_attempt_primes",
                        lambda: iter([3, 2147483647]))
    assert cli.main(["--input", path, "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == ("attempt 0 failed: DimensionFailure: residual of 2 "
                        "sections has dimension 1, expected 0")
    assert lines[3].startswith("R_1: ")
    assert cli.main(["--input", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["attempt"] == 1
    assert "failed" not in json.dumps(doc)


def test_json_output_round_trip_and_content(tmp_path, capsys):
    rc = cli.main(["--input", write_doc(tmp_path, F1_DOC),
                   "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc  # round-trip
    assert doc["alpha"] == [6, 4]
    assert doc["n"] == 1 and doc["k"] == 2
    # every class entry is a (codim, multiset, integer coefficient) triple
    for codim, multiset, coeff in doc["classes"]:
        assert codim in (1, 2)
        assert multiset == sorted(multiset)
        assert isinstance(coeff, int)


def test_json_output_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, P13_DOC)
    outs = []
    for _ in range(2):
        rc = cli.main(["--input", path, "--format", "json", "--seed", "3"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["n"] == 2
    assert doc["provenance"]["seed"] == 3


def test_consistency_rows_verified_needs_a_spare_row(tmp_path, capsys):
    """Only a residual solved from more rows than unknowns has a
    consistency row.  Example 1's codimension-2 residual is solved from
    its single row; the twisted cubic's one nonempty residual has two rows
    for one unknown."""
    for doc, verified in ((F1_DOC, False), (TWISTED_CUBIC_DOC, True)):
        rc = cli.main(["--input", write_doc(tmp_path, doc),
                       "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["provenance"]["consistency_rows_verified"] is verified


def test_seed_changes_are_reported_but_classes_stable(tmp_path, capsys):
    path = write_doc(tmp_path, F1_DOC)
    docs = []
    for seed in ("0", "1"):
        rc = cli.main(["--input", path, "--format", "json", "--seed", seed])
        assert rc == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["classes"] == docs[1]["classes"]
    assert docs[0]["provenance"]["seed"] != docs[1]["provenance"]["seed"]


def test_non_smooth_cone_diagnostic(tmp_path, capsys):
    doc = {
        "rays": [[1, 0], [1, 2], [-1, -1], [0, -1], [-1, 1]],
        "max_cones": [[0, 1], [1, 4], [4, 2], [2, 3], [3, 0]],
        "ideal": ["z0"],
    }
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "E_FAN_NOT_SMOOTH" in err
    assert "(0, 1)" in err  # names the offending cone


def test_same_side_fan_diagnostic(tmp_path, capsys):
    doc = {
        "rays": [[1, 0], [0, 1], [1, 1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
        "ideal": ["z0"],
    }
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "E_FAN_NOT_COMPLETE" in err


def test_overlapping_cones_diagnostic(tmp_path, capsys):
    """Five two-sided walls whose cones wind twice around the origin."""
    doc = {
        "rays": [[1, 0], [1, 1], [-1, 1], [-2, -1], [0, -1]],
        "max_cones": [[0, 2], [2, 4], [4, 1], [1, 3], [3, 0]],
        "ideal": ["z0"],
    }
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "error E_FAN_INVALID" in captured.err
    assert "(1, 3)" in captured.err  # names the overlapping cone


def test_parse_error_exit_code(tmp_path, capsys):
    doc = dict(F1_DOC, ideal=["x0 + "])
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "E_PARSE" in err


def test_overlong_integer_literal_exit_code(tmp_path, capsys):
    """A coefficient past int()'s digit limit (Python 3.11 and later)
    exits 2 with E_PARSE, not with a traceback."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() has no digit limit on this Python")
    doc = dict(F1_DOC, ideal=["%s*x0" % ("7" * (limit + 1))])
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "E_PARSE" in err


def test_large_exponent_within_5_s(tmp_path, capsys):
    """V(z0^100000000) on P2: the power is taken by repeated squaring,
    so parsing it does not run 10^8 products."""
    doc = {"rays": [[1, 0], [0, 1], [-1, -1]],
           "max_cones": [[0, 1], [1, 2], [0, 2]],
           "ideal": ["z0^100000000"]}
    with time_limit(5, "z0^100000000 on P2"):
        rc = cli.main(["--input", write_doc(tmp_path, doc)])
    assert rc == 0
    assert ("s(Z,X) = -10000000000000000*Dz2^2 + 100000000*Dz2"
            in capsys.readouterr().out)


def test_output_integers_past_the_digit_limit(tmp_path, capsys):
    """V(z0^(10^2200)) on P2 has s_1 = -10^4400 H^2, past int-to-str's
    4300-digit limit (Python 3.11 and later): both formats write it
    exactly, and restore the limit for the parser."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    d = "1" + "0" * 2200
    doc = {"rays": [[1, 0], [0, 1], [-1, -1]],
           "max_cones": [[0, 1], [1, 2], [0, 2]],
           "ideal": ["z0^" + d]}
    path = write_doc(tmp_path, doc)
    assert cli.main(["--input", path]) == 0
    assert ("s(Z,X) = -1%s*Dz2^2 + %s*Dz2\n" % ("0" * 4400, d)
            in capsys.readouterr().out)
    assert cli.main(["--input", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert ('"segre":[{"codim":1,"coefficients":[%s]},'
            '{"codim":2,"coefficients":[-1%s]}]' % (d, "0" * 4400)) in out
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_too_large_power_exit_code(tmp_path, capsys):
    """A power of a binomial past the parser's term bound exits 2 with
    E_TOO_LARGE within a second, where its expansion would not finish."""
    doc = {"rays": [[1, 0], [0, 1], [-1, -1]],
           "max_cones": [[0, 1], [1, 2], [0, 2]],
           "ideal": ["(z0 + z1)^100000"]}
    with time_limit(1, "(z0 + z1)^100000 on P2"):
        rc = cli.main(["--input", write_doc(tmp_path, doc)])
    assert rc == 2
    assert "error E_TOO_LARGE" in capsys.readouterr().err


def test_inhomogeneous_generator_reports_degrees(tmp_path, capsys):
    doc = dict(F1_DOC, ideal=["x0 + y1"])
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "E_NOT_HOMOGENEOUS" in err


def test_inhomogeneous_generator_named_by_index(tmp_path, capsys):
    doc = dict(F1_DOC, ideal=["x0", "x0 + y1"])
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "E_NOT_HOMOGENEOUS" in err
    assert "ideal generator 1 (x0 + y1)" in err


def test_zero_generator_exit_code(tmp_path, capsys):
    for ideal, idx in ((["x0 - x0"], 0), (["x0", "0"], 1)):
        doc = dict(F1_DOC, ideal=ideal)
        rc = cli.main(["--input", write_doc(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 2, ideal
        assert "E_ZERO_POLYNOMIAL" in err, ideal
        assert "ideal generator %d " % idx in err, ideal


def test_empty_subscheme_exit_code(tmp_path, capsys):
    doc = dict(F1_DOC, ideal=["x0", "x1", "y0"])
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 4
    assert "E_EMPTY_SUBSCHEME" in err


def test_missing_file(tmp_path, capsys):
    rc = cli.main(["--input", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "E_INPUT" in capsys.readouterr().err
    # invalid input values exit the same way, without a traceback
    float_ray = dict(F1_DOC, rays=[[1.5, 0]] + F1_DOC["rays"][1:])
    for argv in (["--input", write_doc(tmp_path, float_ray, "ray.json")],
                 ["--input", write_doc(tmp_path, F1_DOC), "--coeff-bound",
                  "0"]):
        assert cli.main(argv) == 2
        assert "E_INPUT" in capsys.readouterr().err


def test_retries_below_one_exit_code(tmp_path, capsys):
    """Fewer than one attempt is refused, from the document and from the
    flag, before any work: exit 2, E_INPUT, nothing on stdout."""
    for retries in (0, -3):
        doc = dict(F1_DOC, options={"retries": retries})
        argvs = (["--input", write_doc(tmp_path, doc, "option.json")],
                 ["--input", write_doc(tmp_path, F1_DOC), "--retries",
                  str(retries)])
        for argv in argvs:
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert ("error E_INPUT: option 'retries' must be an integer "
                    ">= 1, not %d" % retries) in captured.err
    assert cli.main(["--input", write_doc(tmp_path, F1_DOC), "--retries",
                     "1"]) == 0


def test_default_variable_names(tmp_path, capsys):
    doc = {k: v for k, v in F1_DOC.items()
           if k not in ("variables", "degrees")}
    doc["ideal"] = ["z1^2*z2^2 + z0^3*z1*z3^2"]
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    assert rc == 0
    assert "Dz" in capsys.readouterr().out


def test_options_from_document(tmp_path, capsys):
    doc = dict(F1_DOC, options={"seed": 7, "format": "json"})
    rc = cli.main(["--input", write_doc(tmp_path, doc)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["provenance"]["seed"] == 7


def test_check_flag(tmp_path, capsys):
    rc = cli.main(["--input", write_doc(tmp_path, F1_DOC), "--check"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "check:" in captured.err


def test_check_flag_rejects_a_corrupted_ring(tmp_path, capsys, monkeypatch):
    def flipped_ring(cox):
        chow = build_chow_ring(cox)
        return dataclasses.replace(chow, sign=-chow.sign)

    cox = projective_space(2)
    with pytest.raises(ToricSegreError, match="self-intersection degree -1"):
        cli.run_checks(cox, flipped_ring(cox))
    # through the CLI: an error code on stderr, not a traceback
    monkeypatch.setattr(cli, "build_chow_ring", flipped_ring)
    rc = cli.main(["--input", write_doc(tmp_path, F1_DOC), "--check"])
    assert rc == 1
    assert "error E_INTERNAL: check failed" in capsys.readouterr().err
