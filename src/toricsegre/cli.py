"""Command-line interface: read a JSON problem document describing a fan
and an ideal, run the full pipeline, and print the Segre class.

The machine format is deterministic JSON (sorted keys, fixed separators)
listing every class as (codimension, basis monomial as a sorted ray-index
multiset, integer coefficient) triples, so identical inputs give
byte-identical output.  Every output integer is written exactly, however
many digits it has.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .chow import build_chow_ring, chow_ranks
from .cones import curve_functionals, find_ample
from .errors import InputError, ToricSegreError, ZeroPolynomial
from .fan import Fan, build_cox_context
from .parser import is_name, parse_polynomial
from .segre import DEFAULT_COEFF_BOUND, preprocess, segre_class

# exit codes per diagnostic class; any unlisted error code exits 1
EXIT_CODES = {
    "E_INPUT": 2, "E_PARSE": 2, "E_NOT_HOMOGENEOUS": 2,
    "E_ZERO_POLYNOMIAL": 2, "E_TOO_LARGE": 2,
    "E_FAN_INVALID": 3, "E_FAN_NOT_SMOOTH": 3, "E_FAN_NOT_COMPLETE": 3,
    "E_INVALID_GRADING": 3, "E_NOT_PROJECTIVE": 3,
    "E_EMPTY_SUBSCHEME": 4, "E_WHOLE_SPACE": 4,
    "E_RETRIES_EXHAUSTED": 5,
}


# option name -> (validity test, what a valid value is)
_OPTIONS = {
    "seed": (lambda v: type(v) is int, "an integer"),
    "coeff_bound": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "retries": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "format": (lambda v: v in ("human", "json"), "'human' or 'json'"),
}


def _check_option(name, value):
    valid, expected = _OPTIONS[name]
    if not valid(value):
        raise InputError("option %r must be %s, not %r"
                         % (name, expected, value))


def load_document(text):
    """Parse and structurally validate the JSON input document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InputError("input is not valid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    for key in ("rays", "max_cones", "ideal"):
        if key not in doc:
            raise InputError("missing required field %r" % key)
        if not isinstance(doc[key], list) or not doc[key]:
            raise InputError("field %r must be a non-empty list" % key)
    known = {"rays", "max_cones", "ideal", "variables", "degrees", "options"}
    for key in doc:
        if key not in known:
            raise InputError("unknown field %r" % key)
    for key in ("rays", "max_cones", "degrees"):
        if key in doc and not (isinstance(doc[key], list) and all(
                isinstance(row, list) and all(type(x) is int for x in row)
                for row in doc[key])):
            raise InputError("field %r must be a list of integer lists" % key)
    names = doc.get("variables", [])
    if not (isinstance(names, list) and all(
            isinstance(name, str) and is_name(name) for name in names)):
        raise InputError("field 'variables' must be a list of names, each a "
                         "letter or '_' then letters, digits or '_'")
    for idx, text in enumerate(doc["ideal"]):
        if not isinstance(text, str):
            raise InputError("ideal entry %d is not a string" % idx)
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InputError("field 'options' must be an object")
    for key, value in options.items():
        if key not in _OPTIONS:
            raise InputError("unknown option %r" % key)
        _check_option(key, value)
    return doc


def build_problem(doc):
    """Fan validation (in ``build_cox_context``), Cox/Chow construction,
    and ideal parsing."""
    fan = Fan(tuple(tuple(v) for v in doc["rays"]),
              tuple(tuple(c) for c in doc["max_cones"]))
    cox = build_cox_context(fan, names=doc.get("variables"),
                            degrees=doc.get("degrees"))
    chow = build_chow_ring(cox)
    gens = []
    for idx, text in enumerate(doc["ideal"]):
        g = parse_polynomial(text, cox.ring)
        if g.is_zero():
            raise ZeroPolynomial("ideal generator %d (%r) is the zero "
                                 "polynomial" % (idx, text))
        gens.append(g)
    return cox, chow, gens


def run_checks(cox, chow):
    """Internal invariant suite on the constructed variety.  Raises
    ToricSegreError (E_INTERNAL) naming the first invariant that fails."""
    ranks = chow_ranks(cox.fan)
    sizes = tuple(len(b) for b in chow.bases)
    if sizes != ranks:
        raise ToricSegreError("check failed: Chow basis sizes %s differ "
                              "from the ranks %s" % (list(sizes), list(ranks)))
    functionals = curve_functionals(cox)
    ample = find_ample(cox, functionals)
    if not all(sum(w * a for w, a in zip(f, ample)) >= 1
               for f in functionals):
        raise ToricSegreError("check failed: ample class %s is not positive "
                              "on every wall functional" % (list(ample),))
    k = cox.fan.dim
    degree = chow.degree(chow.power(chow.pic_to_chow(ample), k))
    if degree <= 0:
        raise ToricSegreError("check failed: ample class %s has top "
                              "self-intersection degree %d, not positive"
                              % (list(ample), degree))
    print("check: ranks %s, %d wall functionals, ample %s, degree %d"
          % (list(ranks), len(functionals), list(ample), degree),
          file=sys.stderr)


def _multiset(monomial):
    out = []
    for i, e in enumerate(monomial):
        out.extend([i] * e)
    return out


def _class_triples(chow, cls, codim):
    coeffs = chow.coefficients_on_basis(cls, codim)
    return [[codim, _multiset(m), c]
            for m, c in zip(chow.bases[codim], coeffs)]


def build_output(cox, chow, problem, result, retries):
    k = cox.fan.dim
    n = result.dim
    classes = []
    segre = []
    for i, s in enumerate(result.components):
        codim = k - n + i
        triples = _class_triples(chow, s, codim)
        classes.extend(triples)
        segre.append({"codim": codim,
                      "coefficients": [t[2] for t in triples]})
    residuals = []
    for rd in result.residuals:
        if rd.dimension is None:
            residuals.append({"d": rd.d, "empty": True, "gammas": [],
                              "class": []})
        else:
            residuals.append({
                "d": rd.d, "empty": False,
                "gammas": [int(g) for g in rd.gammas],
                "class": _class_triples(chow, rd.chow_class, rd.d)})
    return {
        "alpha": [int(a) for a in result.alpha],
        "k": k,
        "n": n,
        "bases": [[_multiset(m) for m in chow.bases[p]]
                  for p in range(k + 1)],
        "classes": classes,
        "segre": segre,
        "residuals": residuals,
        "provenance": {
            "seed": result.seed,
            "coeff_bound": result.coeff_bound,
            "retries": retries,
            "attempt": result.attempt,
            "consistency_rows_verified": all(
                len(rd.beta_rows) > len(chow.bases[rd.d])
                for rd in result.residuals if rd.dimension is not None),
        },
    }


@contextlib.contextmanager
def _exact_ints():
    """Lift the interpreter's digit limit on int-to-str conversion (Python
    3.11 and later) while output is written.  Parsing keeps the limit, so
    an over-long integer literal is still E_PARSE."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@_exact_ints()
def format_machine(out_doc):
    return json.dumps(out_doc, sort_keys=True, separators=(",", ":")) + "\n"


@_exact_ints()
def format_human(cox, chow, result, verbose=False):
    k = cox.fan.dim
    n = result.dim
    lines = []
    lines.append("alpha = (%s)" % ", ".join(str(a) for a in result.alpha))
    lines.append("dim Z = %d  (codim %d in the %d-fold)" % (n, k - n, k))
    if verbose:
        for attempt, failure in enumerate(result.failures):
            lines.append("attempt %d failed: %s" % (attempt, failure))
        for rd in result.residuals:
            if rd.dimension is None:
                lines.append("R_%d: empty" % rd.d)
            else:
                lines.append("R_%d: [R] = %s; gammas %s"
                             % (rd.d, chow.format_class(rd.chow_class),
                                list(rd.gammas)))
    for i, s in enumerate(result.components):
        lines.append("s_%d = %s" % (i, chow.format_class(s)))
    lines.append("s(Z,X) = %s" % chow.format_class(result.total))
    return "\n".join(lines) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="toricsegre",
        description="Push-forward Segre class of a subscheme of a smooth "
                    "projective toric variety.")
    ap.add_argument("--input", required=True,
                    help="path to the JSON problem document ('-' for stdin)")
    ap.add_argument("--seed", type=int, default=None,
                    help="master random seed (default 0)")
    ap.add_argument("--coeff-bound", type=int, default=None,
                    help="random coefficients drawn from +-[1, N] "
                         "(default %d)" % DEFAULT_COEFF_BOUND)
    ap.add_argument("--retries", type=int, default=None,
                    help="resample rounds before giving up (default 5)")
    ap.add_argument("--format", choices=("human", "json"), default=None,
                    help="output format (default human)")
    ap.add_argument("--check", action="store_true",
                    help="run the internal invariant suite on the variety "
                         "before computing")
    ap.add_argument("--verbose", action="store_true",
                    help="print failed attempts and residual data as well")
    args = ap.parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input) as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError("cannot read %r: %s" % (args.input, exc))
        doc = load_document(text)
        options = doc.get("options", {})

        def opt(flag, name, default):
            value = flag if flag is not None else options.get(name, default)
            _check_option(name, value)
            return value

        seed = opt(args.seed, "seed", 0)
        bound = opt(args.coeff_bound, "coeff_bound", DEFAULT_COEFF_BOUND)
        retries = opt(args.retries, "retries", 5)
        fmt = opt(args.format, "format", "human")
        cox, chow, gens = build_problem(doc)
        if args.check:
            run_checks(cox, chow)
        problem = preprocess(cox, chow, gens)
        result = segre_class(problem, seed=seed, coeff_bound=bound,
                             retries=retries)
        if fmt == "json":
            sys.stdout.write(format_machine(
                build_output(cox, chow, problem, result, retries)))
        else:
            sys.stdout.write(format_human(cox, chow, result,
                                          verbose=args.verbose))
        return 0
    except ToricSegreError as exc:
        print("error %s: %s" % (exc.code, exc), file=sys.stderr)
        return EXIT_CODES.get(exc.code, 1)


if __name__ == "__main__":
    sys.exit(main())
