"""Command-line front end.

Subcommands: bracket, act, axioms, closure, witt, iso, replay, report.
Every invocation prints one JSON report to standard output (fields in a
fixed order: command, config, checks, overall) and exits 0 when every
check passed, 1 when any check failed or checked no case, 2 on usage or
expression syntax errors.  Reports are byte-deterministic functions of
the arguments and the configuration, including the rng seed; the config
ends with axioms' and replay's own scales (_ECHOED_OPTIONS).

Rational parameters are written as ``a`` or ``a/b`` (for example
``--q 5/7``).  A config file of ``key=value`` lines may supply defaults
for q, lambda1, lambda2, alpha, D, B, rng_seed and sweeps; command-line
flags override the file.  Each of these options is declared once, in
``_OPTIONS``: its flag (lambda1 and lambda2 have none; ``--lambda`` sets
both), its parser, its default and its help.  The file is read whole,
each value at its own line by its key's parser, before any flag is
applied, so a malformed value is a usage error even where a flag
overrides it.  Config errors name the place: ``path:line: key: message``
for a value its parser rejects, ``path:line: message`` for a line that
is not ``key=value``, an unknown key or a key given twice, and
``path: not UTF-8 text`` for a file that is not UTF-8.  A config file
is read to at most MAX_CONFIG_BYTES bytes (1 MiB); a larger one, or an
endless one such as /dev/zero, is a usage error that names the ceiling.

Cost guard: the degree bound D is capped at MAX_DEGREE_BOUND, because
closure cost climbs steeply with D; a larger D, from a flag or a config
file, is a usage error.  The box radius B needs no cap: closure inserts
each row's Taylor coefficients in m, folded onto the box of radius
min(B, (D+2)//2), so a row gives at most (D+2)(D+3)/2 vectors whatever
B is, and every B >= (D+2)//2 gives the same result.
The axioms sweep radius is capped at MAX_AXIOM_RADIUS, the acceptance
Jacobi radius, because the Jacobi sweep does (2R+1)^6 work.  The replay
radius is capped at MAX_REPLAY_RADIUS, because two replays cover the
whole (2R+1)^2 box, and the replay pair cap at MAX_REPLAY_PAIRS, because
the commutator replay checks every sampled pair.  The sweep count is
capped at MAX_SWEEPS, because each sweep is one more module-axiom scan
of every generator pair.  The README gives what each ceiling costs.
Every generator index built from user input (an element's L(m1,m2), a
Witt line index m and i*m over the Witt range) is capped at
MAX_GENERATOR_INDEX in |m1| and |m2|, because lambda^m and the shift by m
grow with the index; i*m also bounds the length of the Witt range.
Where act and witt raise lambda to such an index, the power
lambda1^m1*lambda2^m2 is held to the coefficient ceiling of
poly.MAX_POWER_BITS bits as well, so that its digits stay printable:
witt over [-1000,1000] at m=1,1 with lambda 12345/6789,3/1001 would
need 23,000 bits and is a usage error.  replay holds the powers at
every index it builds to the same ceiling: the sums of two box indices
and, for integral q or 2q, the indices of the exceptional pairs, whose
size follows q rather than any cap.
Option values and positionals may start with "-" (--q -1/3,
witt --m -1,4, act "L(1,0)" -d1); "--" ends the options.
Every rational literal, in a flag, a config file or an expression, is
capped at exactnum.MAX_LITERAL_BITS bits in its numerator and its
denominator, and so is every integer option (D, B, the rng seed, the
sweep count, the radii, the pair cap and the Witt range), from a flag
or a config file.
Polynomial expressions are capped at degree poly.MAX_EXPRESSION_DEGREE and their
powers at coefficients of poly.MAX_POWER_BITS bits; every printed
coefficient is held to that ceiling too (poly.printable), since a
product of literals under the literal ceiling can outgrow Python's
4,300-digit printer.  A grid that would check nothing (a negative box
radius, an empty Witt index range, a zero pair cap) raises ValueError
in the library.  All of these are usage errors too.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from . import blockalg, omega, suites
from .closure import ClosureTag, closure
from .exactnum import excerpt, parse_integer, parse_rational
from .omega import ParamSet
from .poly import MAX_POWER_BITS, IndexPair, ParseError, coefficient_bits, parse_poly2
from .suites import Check

MAX_DEGREE_BOUND = 16
MAX_AXIOM_RADIUS = 3
MAX_REPLAY_RADIUS = 16
MAX_REPLAY_PAIRS = 10_000
MAX_SWEEPS = 100
MAX_GENERATOR_INDEX = 1000
MAX_CONFIG_BYTES = 1 << 20

# the options every subcommand shares, keyed by config file key:
# (flag, parser, default, help); a flag's dest is its key
_OPTIONS = {
    "q": ("--q", parse_rational, Fraction(1), "algebra parameter (nonzero rational)"),
    "lambda1": (None, parse_rational, Fraction(1), None),
    "lambda2": (None, parse_rational, Fraction(1), None),
    "alpha": ("--alpha", parse_rational, Fraction(0), "module parameter alpha"),
    "D": ("--D", parse_integer, 3, f"degree bound (at most {MAX_DEGREE_BOUND})"),
    "B": ("--B", parse_integer, 5, "index box radius (closure gives the same "
                                   "result for every B >= (D+2)//2)"),
    "rng_seed": ("--rng-seed", parse_integer, 1, "seed for the splitmix sampler"),
    "sweeps": ("--sweeps", parse_integer, 10,
               f"sample count for randomized sweeps (at most {MAX_SWEEPS})"),
}


def _clipped(value) -> str:
    """str(value), clipped by :func:`exactnum.excerpt` when an error message echoes it."""
    return excerpt(str(value), show=str)


def _check_ceiling(what: str, value: int, ceiling: int) -> None:
    """Reject a scale above its cost ceiling; ``what`` names it, with ``{}`` for the value."""
    if value > ceiling:
        raise ValueError(f"{what.format(_clipped(value))} exceeds the cost ceiling {ceiling}")


class RunConfig(namedtuple("RunConfig", "params degree_bound box_radius rng_seed sweep_count")):
    """Parameters, scales and seed shared by the subcommands; :func:`build_config`
    fills them from ``_OPTIONS``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.degree_bound < 1:
            raise ValueError("degree bound must be at least 1")
        _check_ceiling("degree bound D={}", self.degree_bound, MAX_DEGREE_BOUND)
        if self.box_radius < 1:
            raise ValueError("box radius must be at least 1")
        if self.sweep_count < 1:
            raise ValueError("sweep count must be at least 1")
        _check_ceiling("sweep count {}", self.sweep_count, MAX_SWEEPS)
        return self


# subcommand scales a report's config echoes after the shared ones; dest = JSON key
_ECHOED_OPTIONS = ("axiom_radius", "replay_radius", "pair_cap")


class Report(NamedTuple):
    command: str
    config: RunConfig
    checks: tuple[Check, ...]
    options: tuple[tuple[str, int], ...] = ()     # (key, value) of the echoed options

    @property
    def overall(self) -> str:
        return "pass" if suites.all_passed(self.checks) else "fail"


def report_to_json(report: Report) -> str:
    config = report.config._asdict()
    params = config.pop("params")
    payload = {
        "command": report.command,
        # the JSON config is flat: the parameters as rational strings, then the scales
        "config": {**{name: str(getattr(params, name)) for name in params._fields}, **config,
                   **dict(report.options)},
        "checks": [check._asdict() for check in report.checks],
        "overall": report.overall,
    }
    return json.dumps(payload, indent=2, ensure_ascii=True)


# --- argument plumbing ---------------------------------------------------------

def _read_config_file(path: str) -> dict[str, object]:
    """The values of a key=value file, each read by its key's parser.

    At most MAX_CONFIG_BYTES + 1 bytes are read, so an endless file such as
    /dev/zero fails at once.  The bytes are decoded strictly as UTF-8 and
    split into lines as a text-mode file splits them (universal newlines).
    """
    with open(path, "rb") as handle:
        data = handle.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ValueError(f"{path}: file exceeds the config size ceiling of "
                         f"{MAX_CONFIG_BYTES} bytes")
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    values: dict[str, object] = {}
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{line_number}"
        if "=" not in line:
            raise ValueError(f"{where}: expected key=value")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = _OPTIONS[key][1](text.strip())
        except ValueError as error:
            raise ValueError(f"{where}: {key}: {error}") from None
    return values


def _argument_type(parse):
    """``parse`` as an argparse type whose ValueError text reaches the user.

    argparse replaces the message of a ValueError with "invalid <name>
    value"; an ArgumentTypeError keeps it.
    """
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return convert


def _comma_separated(parse, count: int, expected: str):
    """A parser of ``count`` comma-separated values, each read by ``parse``, as a tuple."""
    def convert(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != count:
            raise ValueError(f"expected {expected}")
        return tuple(parse(part) for part in parts)
    return convert


_integer_argument = _argument_type(parse_integer)
_lambda_pair = _argument_type(_comma_separated(
    parse_rational, 2, "two comma-separated rationals, e.g. 1,1"))
_param_triple = _argument_type(_comma_separated(
    parse_rational, 3, "lambda1,lambda2,alpha, e.g. 1,2,0"))
_integer_pair = _comma_separated(parse_integer, 2, "two comma-separated integers, e.g. 2,3")


def _check_index(m: IndexPair, what: str) -> None:
    if max(abs(m.m1), abs(m.m2)) > MAX_GENERATOR_INDEX:
        raise ValueError(f"{what} {_clipped(m)} exceeds the cost ceiling {MAX_GENERATOR_INDEX} "
                         f"on |m1| and |m2|")


def _check_lambda_power(m: IndexPair, params: ParamSet, what: str) -> None:
    """Reject m when lambda1^m1 * lambda2^m2 could outgrow poly.MAX_POWER_BITS.

    |m1|*bits(lambda1) + |m2|*bits(lambda2) bounds the numerator and the
    denominator of the power, with bits as in :func:`poly.coefficient_bits`
    for a lambda other than 1 and -1, and 0 for 1 and -1, whose powers
    are 1 and -1 at every index.
    """
    bits = sum(abs(e) * coefficient_bits(lam)
               for e, lam in ((m.m1, params.lambda1), (m.m2, params.lambda2)) if abs(lam) != 1)
    if bits > MAX_POWER_BITS:
        raise ValueError(f"{what} {m} gives lambda1^m1*lambda2^m2 of up to {bits} bits, "
                         f"over the coefficient ceiling of {MAX_POWER_BITS} bits")


@_argument_type
def _parse_index_pair(text: str) -> IndexPair:
    """A Witt line index m1,m2; m1 = 0 is invalid input."""
    m = IndexPair(*_integer_pair(text))
    if m.m1 == 0:
        raise ValueError(f"Witt line index needs m1 != 0, got {_clipped(text)}")
    _check_index(m, "Witt line index")
    return m


def _parse_element(text: str, ctx: blockalg.AlgebraContext) -> blockalg.AlgebraElement:
    element = blockalg.parse_element(text, ctx)
    for gen in element.terms():
        if gen is not blockalg.D2:
            _check_index(gen.m, "generator index")
    return element


def build_config(args: argparse.Namespace) -> RunConfig:
    """Each shared option's default, then the config file, then the flags."""
    values = {key: default for key, (_, _, default, _) in _OPTIONS.items()}
    if getattr(args, "config", None) is not None:
        values.update(_read_config_file(args.config))
    values.update((key, getattr(args, key)) for key in _OPTIONS if key in args)
    if "lam" in args:
        values["lambda1"], values["lambda2"] = args.lam
    params = ParamSet(values["q"], values["lambda1"], values["lambda2"], values["alpha"])
    return RunConfig(params, values["D"], values["B"], values["rng_seed"], values["sweeps"])


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reads a "-" string such as -1,4, -1/3 or -d1 as a value.

    Plain argparse takes only "-" followed by digits (-1, -2.5) as a value,
    and any other "-" string as an option, so ``--q -1/3`` failed with
    "expected one argument".  The only single-dash option here is -h; a
    single-dash string that is not an option string of the parser is an
    option's value or a positional.  "--" strings and "--" itself keep
    argparse's meaning.
    """

    def _parse_optional(self, arg_string):
        if (arg_string[:1] == "-" and arg_string[1:2] not in ("", "-")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    # shared options are attached to every subparser as well, so they may be
    # written before or after the subcommand; values default to SUPPRESS and
    # build_config fills in the real defaults
    common = argparse.ArgumentParser(add_help=False)
    for key, (flag, parse, _, help_text) in _OPTIONS.items():
        if flag:
            common.add_argument(flag, dest=key, type=_argument_type(parse),
                                default=argparse.SUPPRESS, help=help_text)
    common.add_argument("--lambda", dest="lam", type=_lambda_pair,
                        default=argparse.SUPPRESS, metavar="L1,L2",
                        help="module parameters lambda1,lambda2")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value defaults file; flags override")

    parser = _ArgumentParser(
        prog="blockmod",
        description="Exact verification toolkit for rank-1 polynomial modules "
                    "over Block Lie algebras.",
        epilog="Values may start with \"-\": --q -1/3, witt --m -1,4, "
               "act \"L(1,0)\" -d1.  \"--\" ends the options: every later "
               "argument is positional, even one that starts with \"--\".",
        parents=[common])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("bracket", parents=[common],
                              help="Lie bracket of two elements")
    sub.add_argument("left", help="element, e.g. \"L(1,0)\"")
    sub.add_argument("right", help="element, e.g. \"3/2*L(0,1) - D2\"")

    sub = commands.add_parser("act", parents=[common],
                              help="module action of an element on a polynomial")
    sub.add_argument("element", help="element, e.g. \"L(1,0)\"")
    sub.add_argument("poly", help="polynomial in d1, d2")

    sub = commands.add_parser("axioms", parents=[common],
                              help="Jacobi and module-axiom sweeps")
    sub.add_argument("--radius", dest="axiom_radius", type=_integer_argument, default=2,
                     help=f"generator box radius (at most {MAX_AXIOM_RADIUS})")
    sub.add_argument("--use-variant-action", action="store_true",
                     help="diagnostic: run the module-axiom sweep with the rejected "
                          "variant action (expected to fail; needs alpha != 1, radius >= 1)")

    sub = commands.add_parser("closure", parents=[common],
                              help="submodule closure of seed polynomials")
    sub.add_argument("--seed", action="append", required=True,
                     help="seed polynomial; repeatable")

    sub = commands.add_parser("witt", parents=[common],
                              help="Witt line restriction check")
    sub.add_argument("--m", action="append", type=_parse_index_pair,
                     help="line index m1,m2 with m1 != 0; repeatable "
                          "(default: 1,0 2,3 -1,4)")
    sub.add_argument("--i-min", type=_integer_argument, default=-4)
    sub.add_argument("--i-max", type=_integer_argument, default=4)

    sub = commands.add_parser("iso", parents=[common],
                              help="decide module isomorphism")
    sub.add_argument("--left", type=_param_triple, required=True,
                     metavar="L1,L2,A")
    sub.add_argument("--right", type=_param_triple, required=True,
                     metavar="L1,L2,A")

    sub = commands.add_parser("replay", parents=[common],
                              help="identity replay suite")
    sub.add_argument("--eq", default="all", choices=_REPLAY_ANCHORS)
    sub.add_argument("--radius", dest="replay_radius", type=_integer_argument, default=3,
                     help=f"index box radius (at most {MAX_REPLAY_RADIUS})")
    sub.add_argument("--pairs", dest="pair_cap", type=_integer_argument, default=200,
                     help=f"pair subsample cap (at most {MAX_REPLAY_PAIRS})")

    sub = commands.add_parser("report", parents=[common],
                              help="full verification suite")
    sub.add_argument("--level", choices=["full", "quick"], default="full",
                     help="full acceptance scales, or a fast smoke pass")
    return parser


# --- command implementations -----------------------------------------------------

def _cmd_bracket(args, config: RunConfig) -> list[Check]:
    ctx = config.params.context()
    left = _parse_element(args.left, ctx)
    right = _parse_element(args.right, ctx)
    result = blockalg.bracket(left, right, ctx)
    return [Check(name=f"bracket {args.left} , {args.right}", anchor="bracket",
                  status="pass", witness=str(result))]


def _cmd_act(args, config: RunConfig) -> list[Check]:
    ctx = config.params.context()
    element = _parse_element(args.element, ctx)
    for gen in element.terms():
        if gen is not blockalg.D2:
            _check_lambda_power(gen.m, config.params, "generator index")
    f = parse_poly2(args.poly)
    result = omega.act(element, f, config.params)
    return [Check(name=f"act {args.element} on {args.poly}", anchor="module-action",
                  status="pass", witness=str(result))]


def _cmd_axioms(args, config: RunConfig) -> list[Check]:
    _check_ceiling("axioms radius {}", args.axiom_radius, MAX_AXIOM_RADIUS)
    if args.use_variant_action:
        suites.check_variant_domain(config.params, args.axiom_radius)
    checks = suites.jacobi_suite([config.params.q], radius=args.axiom_radius)
    polys = suites.sample_axiom_polys(config.rng_seed, count=config.sweep_count)
    if args.use_variant_action:
        count, failure = suites.axiom_grid_scan(config.params, polys, args.axiom_radius,
                                                omega.action_on_one_alt)
        checks.append(suites.verdict(
            "module axioms (variant action)", "module-action-compatibility", count,
            failure and "variant image {}: first defect at x={}, y={}".format(
                suites.VARIANT_IMAGE_TEXT, *failure[0][:2]),
            f"variant image {suites.VARIANT_IMAGE_TEXT}: {count} cases clean"))
    else:
        checks += suites.module_axiom_suite([config.params], polys, radius=args.axiom_radius)
    return checks


def _cmd_closure(args, config: RunConfig) -> list[Check]:
    seeds = [parse_poly2(text) for text in args.seed]
    basis, result = closure(seeds, config.degree_bound, config.box_radius,
                            config.params)
    status = "pass" if result.tag is not ClosureTag.OTHER else "fail"
    seed_text = "; ".join(args.seed)
    return [Check(name=f"closure of [{seed_text}]", anchor="submodule-dichotomy",
                  status=status,
                  witness=f"tag={result.tag.value}, dim={result.dimension}; "
                          f"{result.diagnostics}")]


def _cmd_witt(args, config: RunConfig) -> list[Check]:
    ms = args.m or [IndexPair(1, 0), IndexPair(2, 3), IndexPair(-1, 4)]
    i_far = max(args.i_min, args.i_max, key=abs)
    for m in ms:
        what = f"Witt index {_clipped(i_far)}*{m} ="
        _check_index(m * i_far, what)
        _check_lambda_power(m * i_far, config.params, what)
    return suites.witt_restriction_suite(ms, args.i_min, args.i_max, [config.params])


def _cmd_iso(args, config: RunConfig) -> list[Check]:
    left = ParamSet(config.params.q, *args.left)
    right = ParamSet(config.params.q, *args.right)
    isomorphic, witness = omega.iso_check(left, right)
    text = ("isomorphic: equal parameters" if isomorphic else
            f"not isomorphic: generator images differ at m={witness}")
    left_text = ",".join(str(v) for v in args.left)
    right_text = ",".join(str(v) for v in args.right)
    return [Check(name=f"iso {left_text} vs {right_text}", anchor="isomorphism-rigidity",
                  status="pass", witness=text)]


# the replay checks each replay --eq choice selects; "control" selects the
# commutator variant control alone, and "all" adds it where alpha != 1
_REPLAY_ANCHORS = {
    "commutator": {"commutator-replay"},
    "pair-difference": {"pair-difference-replay"},
    "separated-form": {"separated-form-replay"},
    "coefficients": {"coefficient-replay"},
    "control": set(),
    "all": {"commutator-replay", "pair-difference-replay", "separated-form-replay",
            "coefficient-replay"},
}


def _cmd_replay(args, config: RunConfig) -> list[Check]:
    _check_ceiling("replay radius {}", args.replay_radius, MAX_REPLAY_RADIUS)
    _check_ceiling("pair cap {}", args.pair_cap, MAX_REPLAY_PAIRS)
    # every replay and the control build images and lambda powers at sums
    # of two box indices, the farthest of which is (2R, 2R) here
    far = 2 * args.replay_radius
    _check_lambda_power(IndexPair(far, far), config.params, "replay index")
    selected: list[Check] = []
    if wanted := _REPLAY_ANCHORS[args.eq]:
        # the replay suite also builds them at m, n and m + n of each
        # exceptional pair; the paired product of an exceptional index e
        # reads -e too, whose bound is e's
        for m, n in suites.exceptional_pairs(config.params):
            for k in (m, n, m + n):
                _check_lambda_power(k, config.params, "replay index")
        checks = suites.replay_suite([config.params], config.rng_seed,
                                     radius=args.replay_radius, pair_cap=args.pair_cap)
        selected += [c for c in checks if c.anchor in wanted]
    # at alpha=1 the control is undefined: "all" leaves it out, and asking
    # for it alone gives its error check
    if args.eq == "control" or (args.eq == "all" and config.params.alpha != 1):
        selected.append(suites.commutator_variant_control(config.params,
                                                          radius=args.replay_radius))
    return selected


def _cmd_report(args, config: RunConfig) -> list[Check]:
    return suites.full_report(rng_seed=config.rng_seed, quick=args.level == "quick")


_COMMANDS = {
    "bracket": _cmd_bracket,
    "act": _cmd_act,
    "axioms": _cmd_axioms,
    "closure": _cmd_closure,
    "witt": _cmd_witt,
    "iso": _cmd_iso,
    "replay": _cmd_replay,
    "report": _cmd_report,
}


def run(command: str, args: argparse.Namespace, config: RunConfig) -> tuple[Report, int]:
    """Dispatch a parsed command; returns the report and the exit code."""
    checks = _COMMANDS[command](args, config)
    options = tuple((key, getattr(args, key)) for key in _ECHOED_OPTIONS if key in args)
    report = Report(command=command, config=config, checks=tuple(checks), options=options)
    return report, 0 if report.overall == "pass" else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return 2 if stop.code not in (0, None) else 0
    try:
        config = build_config(args)
        report, code = run(args.command, args, config)
    except (ParseError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report_to_json(report))
    return code


def main_script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
