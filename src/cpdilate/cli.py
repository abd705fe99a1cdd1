"""Command-line surface: generate, dilate, verify, equiv, fuzz.

Exit codes are a stable contract:

* 0  success (report passes / diagram commutes / all trials pass, at
     least one)
* 2  parse or usage failure (bad file, bad or out-of-range flags, a
     tolerance outside (0, 1), dimension guardrails)
* 3  validity failure (Hermiticity pattern, positivity, compatibility,
     or a failing verification report)
* 4  well-definedness failure of the quotient construction
* 5  minimality or equivalence failure

Verdicts are taken on ``Instance.equilibrated``, as in ``is_valid``.
``generate`` and ``dilate`` judge in one order: ``Instance.check_compatible``,
then the Hermiticity and positivity verdicts of ``dilation.build_gram``, by
the rules of ``CPBlockMap.is_completely_n_positive``.  Every subcommand
bounds the largest Choi block side ``n * d_b * h1`` and the raw dimension
``n * dim A * h1`` (``dilation.check_dims``, on an instance file's header).
``dilate`` bounds the entries of pi, and ``generate`` its carrier side,
``h2`` and the entries of pi and psi on the carrier (which bound those of
the generated instance's dilation) and of the unitaries it draws, by the
``dilation.MAX_*`` guardrails.

The only recognized environment variable is ``CPDILATE_TOL``, which
overrides the default residual tolerance for all subcommands; it is read
on every call of ``main``, and an explicit ``--tol`` wins over it.  Either
must be > 0 and < 1: a zero in place of every expected value has
relative residuals of at most 1, so a tolerance of 1 or more cannot tell
a zero map from the right one.
Emitted files and reports contain no timestamps, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import dilation, serialize
from .cpmaps import Instance, carrier_mult, haar_unitary, random_instance
from .dilation import VerificationReport, check_bound, check_dims, dilate, verify_dilation
from .equivalence import build_unitaries, rotate_dilation
from .errors import (
    CPDilateError,
    DimensionTooLargeError,
    DimensionTooSmallError,
    InconsistentSpansError,
    NotMinimalError,
    ParseError,
    ShapeMismatchError,
    WellDefinednessError,
)
from .linalg import DEFAULT_CUTOFF, DEFAULT_TOL

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDITY = 3
EXIT_WELLDEF = 4
EXIT_EQUIV = 5

_ERROR_EXITS = (
    ((ParseError, DimensionTooLargeError, DimensionTooSmallError, OSError), EXIT_PARSE),
    ((WellDefinednessError,), EXIT_WELLDEF),
    ((NotMinimalError, InconsistentSpansError), EXIT_EQUIV),
    ((CPDilateError,), EXIT_VALIDITY),
)


def _exit_code(exc: Exception) -> int:
    for types, code in _ERROR_EXITS:
        if isinstance(exc, types):
            return code
    raise exc


def _default_tol() -> float:
    raw = os.environ.get("CPDILATE_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"CPDILATE_TOL={raw!r} is not a number") from None
    if not 0.0 < value < 1.0:
        raise ParseError(f"CPDILATE_TOL={raw!r} must be > 0 and < 1")
    return value


def _int_csv(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _checked(convert, ok, what: str):
    """argparse type: ``convert(text)``, refused unless ``ok`` holds for it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_TOLERANCE = _checked(float, lambda v: 0.0 < v < 1.0, "> 0 and < 1")
_NONNEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(int, lambda v: v >= 1, ">= 1")
_BLOCKS = _checked(_int_csv, lambda v: min(v, default=0) >= 1, "integers >= 1, at least one")
_MULTS = _checked(_int_csv, lambda v: min(v, default=-1) >= 0 and max(v) >= 1,
                  "integers >= 0, at least one >= 1")


def _read(path: str) -> bytes:
    return Path(path).read_bytes()  # the reader checks the UTF-8 itself


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_dilation(path: str, inst: Instance):
    data, context = serialize.parse_dilation(_read(path))
    expected = serialize.instance_dims(inst)
    if context != expected:
        raise ShapeMismatchError(
            f"dilation file was produced for dims {context}, instance has {expected}"
        )
    return data


def _print_report(report: VerificationReport, json_mode: bool) -> None:
    if json_mode:
        payload = {"format": "cpdilate/report", "version": 1, **report.to_dict()}
        sys.stdout.write(serialize.emit_json(payload))
        return
    print(f"{'residual':34s} {'value':>12s}   (tolerance {report.tolerance:.1e})")
    for name, value, status in report.rows():
        print(f"{name:34s} {value:12.3e}   {status}")
    if not report.s_isometry_in_pass:
        defects = ", ".join(f"{v:.3e}" for v in report.diag_unital_defects)
        print(f"note: non-unital diagonal maps (defects {defects}); "
              "slot-isometry defect reported, not gated")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")


def _print_witness(witness, commutes: bool, tol: float, json_mode: bool) -> None:
    if json_mode:
        payload = {
            "format": "cpdilate/equivalence",
            "version": 1,
            "tolerance": tol,
            "diagram_commutes": commutes,
            **witness.to_dict(),
        }
        sys.stdout.write(serialize.emit_json(payload))
        return
    print(f"{'residual':24s} {'value':>12s}   (tolerance {tol:.1e})")
    for name, value, status in witness.rows(tol):
        print(f"{name:24s} {value:12.3e}   {status}")
    print(f"diagram commutes: {'yes' if commutes else 'NO'}")


def _cmd_generate(args) -> int:
    block_dims, mults = args.blocks, args.mults
    if len(mults) != len(block_dims):
        raise ParseError(f"--mults needs one entry per block ({len(block_dims)}), got {len(mults)}")
    raw_dim = check_dims(args.n, block_dims, args.h1, "requested dimensions give")
    # r1 <= carrier and r2 <= sum k_b * copies, so the first two bound the
    # pi and psi of the generated instance's dilation; the third bounds
    # the n Haar unitaries of the carrier side that the generator draws
    copies = carrier_mult(block_dims, args.h1, args.k1_extra)
    carrier, k2_side = sum(block_dims) * copies, sum(mults) * copies
    dim_a, dim_v = sum(d * d for d in block_dims), sum(k * d for k, d in zip(mults, block_dims))
    check_bound("requested dimensions give a carrier of side", carrier, dilation.MAX_CHOI_SIDE)
    check_bound("requested h2 =", args.h2, dilation.MAX_CHOI_SIDE)
    for what, entries in (("dim A * carrier^2", dim_a * carrier**2),
                          ("dim V * sum k_b * copies * carrier", dim_v * k2_side * carrier),
                          ("n * carrier^2", args.n * carrier**2)):
        check_bound(f"requested dimensions give {what} =", entries, dilation.MAX_PI_ENTRIES)
    inst = random_instance(
        args.seed, args.n, block_dims, mults, args.h1, args.h2,
        k1_extra=args.k1_extra, k2_extra=args.k2_extra,
    )
    eq, _ = inst.equilibrated()
    compat = eq.check_compatible(args.tol)
    dilation.build_gram(eq.cp, tol=args.tol, tup=eq.tup)
    _write(args.out, serialize.emit_instance(inst))
    full = "full" if inst.module.is_full else "not full"
    print(
        f"wrote {args.out}: n={inst.n} blocks={list(inst.algebra.block_dims)} "
        f"mults={list(inst.module.mults)} h1={inst.h1} h2={inst.h2} "
        f"(module {full}, raw Gram dim {raw_dim}, compatibility residual {compat:.3e})"
    )
    return EXIT_OK


def _cmd_dilate(args) -> int:
    inst = serialize.parse_instance(_read(args.instance))
    inst.equilibrated()[0].check_compatible(args.tol)
    data = dilate(inst, welldef_tol=args.tol)
    report = verify_dilation(inst, data, tol=args.tol)
    if args.out:
        _write(args.out, serialize.emit_dilation(inst, data))
    if not args.json:
        print(f"dilated: r1={data.r1} r2={data.r2} k2i_dims={list(data.k2i_dims)}")
        if args.out:
            print(f"wrote {args.out}")
    _print_report(report, args.json)
    return EXIT_OK if report.passed else EXIT_VALIDITY


def _cmd_verify(args) -> int:
    inst = serialize.parse_instance(_read(args.instance))
    data = _load_dilation(args.dilation, inst)
    report = verify_dilation(inst, data, tol=args.tol)
    _print_report(report, args.json)
    return EXIT_OK if report.passed else EXIT_VALIDITY


def _cmd_equiv(args) -> int:
    inst = serialize.parse_instance(_read(args.instance))
    data_a = _load_dilation(args.dilation_a, inst)
    data_b = _load_dilation(args.dilation_b, inst)
    witness = build_unitaries(inst, data_a, data_b, tol=args.tol)
    commutes = witness.commutes(args.tol)
    _print_witness(witness, commutes, args.tol, args.json)
    return EXIT_OK if commutes else EXIT_EQUIV


def _fuzz_dims(rng: np.random.Generator, max_n: int, max_block: int, max_h: int) -> dict:
    """Draw instance dimensions that always admit a valid construction."""
    n = int(rng.integers(1, max_n + 1))
    nblocks = int(rng.integers(1, 3))
    block_dims = [int(rng.integers(1, max_block + 1)) for _ in range(nblocks)]
    mults = [int(rng.integers(0, 3)) for _ in range(nblocks)]
    if all(k == 0 for k in mults):
        mults[int(rng.integers(0, nblocks))] = 1
    h1 = int(rng.integers(1, max_h + 1))
    k1_extra = int(rng.integers(0, 2))

    # Shrink the module until H2 (bounded by max_h) can host the range.
    while sum(k * carrier_mult(block_dims, h1, k1_extra) for k in mults) > max_h:
        if k1_extra > 0:
            k1_extra = 0
            continue
        big = max(range(nblocks), key=lambda b: mults[b])
        if mults[big] > 1 or sum(1 for k in mults if k > 0) > 1:
            mults[big] -= 1
        else:
            break
    needed = sum(k * carrier_mult(block_dims, h1, k1_extra) for k in mults)
    h2 = int(rng.integers(min(max(needed, 1), max_h), max_h + 1))
    return {
        "n": n,
        "block_dims": block_dims,
        "mults": mults,
        "h1": h1,
        "h2": h2,
        "k1_extra": k1_extra,
        "k2_extra": int(rng.integers(0, 2)),
    }


def _fuzz_trial(base_seed: int, index: int, args) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)))
    dims = _fuzz_dims(rng, args.max_n, args.max_block, args.max_h)
    result = {"trial": index, **dims, "error": None, "passed": False, "worst": {}}
    try:
        inst = random_instance(seed=int(rng.integers(0, 2**63 - 1)), **dims)
        compat = inst.equilibrated()[0].compatibility_residual()
        data = dilate(inst, welldef_tol=args.tol)
        valid = compat <= args.tol  # dilate has judged Hermiticity and positivity
        report = verify_dilation(inst, data, tol=args.tol)

        q1 = haar_unitary(rng, data.r1)
        q2 = haar_unitary(rng, data.r2)
        w_rot = [haar_unitary(rng, k) for k in data.k2i_dims]
        twin = rotate_dilation(data, q1, q2, w_rot)
        witness = build_unitaries(inst, data, twin, tol=args.tol)
        commutes = witness.commutes(args.tol)

        worst = {"compatibility": compat}
        worst.update({name: value for name, value in report.residual_items()})
        worst.update(witness.to_dict())
        result.update(
            r1=data.r1,
            r2=data.r2,
            valid=valid,
            verify_passed=report.passed,
            equiv_passed=commutes,
            worst={k: float(v) for k, v in worst.items()},
            passed=bool(valid and report.passed and commutes),
        )
    except CPDilateError as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    return result


def _cmd_fuzz(args) -> int:
    # a trial has at most two blocks
    check_dims(args.max_n, [args.max_block] * 2, args.max_h, "bounds admit")
    results = [_fuzz_trial(args.seed, t, args) for t in range(args.trials)]
    worst: dict[str, float] = {}
    histogram: dict[str, int] = {}
    for res in results:
        for name, value in res.get("worst", {}).items():
            worst[name] = max(worst.get(name, 0.0), value)
        if "r1" in res:
            key = f"{res['r1']}x{res['r2']}"
            histogram[key] = histogram.get(key, 0) + 1
    all_passed = all(res["passed"] for res in results)
    report = {
        "format": "cpdilate/fuzz-report",
        "version": 1,
        "trials": args.trials,
        "seed": args.seed,
        "bounds": {"max_n": args.max_n, "max_block": args.max_block, "max_h": args.max_h},
        "tolerance": args.tol,
        "cutoff": DEFAULT_CUTOFF,
        "results": results,
        "worst_residuals": {k: worst[k] for k in sorted(worst)},
        "dimension_histogram": {k: histogram[k] for k in sorted(histogram)},
        "all_passed": all_passed,
    }
    if args.json:
        sys.stdout.write(serialize.emit_json(report))
    else:
        passed = sum(1 for res in results if res["passed"])
        print(f"fuzz: {passed}/{args.trials} trials passed (seed {args.seed}, tol {args.tol:.1e})")
        for res in results:
            if not res["passed"]:
                reason = res["error"] or "residuals above tolerance"
                print(f"  trial {res['trial']} FAILED: {reason} (dims {res['block_dims']}, "
                      f"mults {res['mults']}, n={res['n']}, h1={res['h1']}, h2={res['h2']})")
        if worst:
            print("worst residuals:")
            for name in sorted(worst):
                print(f"  {name:28s} {worst[name]:12.3e}")
        print("dimension histogram (r1 x r2):")
        for key in sorted(histogram):
            print(f"  {key:8s} {histogram[key]}")
        print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return EXIT_OK if all_passed else EXIT_VALIDITY


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  ``--tol`` defaults to
    None; ``main`` resolves it from ``CPDILATE_TOL`` on every call."""
    parser = argparse.ArgumentParser(
        prog="cpdilate",
        description="Construct and verify joint Stinespring dilations of "
        "completely positive map families on Hilbert C*-modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=_TOLERANCE, default=None,
                       help=f"residual tolerance (default $CPDILATE_TOL, else {DEFAULT_TOL:g})")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")

    p = sub.add_parser("generate", help="write a seeded valid instance file")
    p.add_argument("--seed", type=_NONNEGATIVE, required=True)
    p.add_argument("--n", type=int, required=True, help="number of slots")
    p.add_argument("--blocks", type=_BLOCKS, required=True,
                   help="algebra block dims, comma separated")
    p.add_argument("--mults", type=_MULTS, required=True,
                   help="module multiplicities, one per block")
    p.add_argument("--h1", type=int, required=True)
    p.add_argument("--h2", type=int, required=True)
    p.add_argument("--k1-extra", dest="k1_extra", type=_NONNEGATIVE, default=0,
                   help="extra carrier multiplicity for the generator")
    p.add_argument("--k2-extra", dest="k2_extra", type=_NONNEGATIVE, default=0,
                   help="extra embedding slack for the generator")
    p.add_argument("--out", "-o", required=True, help="instance file to write")
    p.add_argument("--tol", type=_TOLERANCE, default=None)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("dilate", help="dilate an instance file and verify the result")
    p.add_argument("instance")
    p.add_argument("--out", "-o", default=None, help="dilation file to write")
    add_common(p)
    p.set_defaults(handler=_cmd_dilate)

    p = sub.add_parser("verify", help="verify a dilation file against an instance")
    p.add_argument("instance")
    p.add_argument("dilation")
    add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("equiv", help="relate two minimal dilations by unitaries")
    p.add_argument("instance")
    p.add_argument("dilation_a")
    p.add_argument("dilation_b")
    add_common(p)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("fuzz", help="randomized end-to-end property run")
    p.add_argument("--trials", type=_POSITIVE, default=20)
    p.add_argument("--seed", type=_NONNEGATIVE, default=0)
    p.add_argument("--max-n", dest="max_n", type=_POSITIVE, default=3)
    p.add_argument("--max-block", dest="max_block", type=_POSITIVE, default=3)
    p.add_argument("--max-h", dest="max_h", type=_POSITIVE, default=4)
    add_common(p)
    p.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    try:
        tol = _default_tol()
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    args = _build_parser().parse_args(argv)
    if args.tol is None:
        args.tol = tol
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - mapped onto the exit contract
        code = _exit_code(exc)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
