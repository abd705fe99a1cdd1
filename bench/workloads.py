"""The benchmark's three workloads.

Each workload makes its inputs from a seed in ``setup`` (timed as set-up),
then runs one closed-loop operation per ``op`` call.  ``op`` holds only the
timed work; ``check`` verifies its output afterwards, untimed, and returns
an ``Outcome``.  Library functions are always looked up as module
attributes at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cpdilate import cli, cpmaps, dilation, equivalence, serialize

TOL = 1e-9      # residual tolerance: the library and CLI default
CUTOFF = 1e-10  # relative rank cutoff: the library and CLI default


@dataclass
class Outcome:
    """Verdict of one operation plus its exact work counts."""

    ok: bool
    reason: str = ""
    worst_residual: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def headroom(self) -> float:
        """log10(tol / worst residual); the residual floor keeps an
        exactly-zero worst residual finite."""
        return math.log10(TOL / max(self.worst_residual, 1e-300))


def instance_counts(inst) -> dict:
    """Size-derived work counts of one instance, with the expected
    quotient dimensions ``r1 = sum_b d_b rank(C_b)`` and
    ``r2 = sum_b k_b rank(C_b)`` read off the per-block Choi spectra at
    the construction's cutoff (relative to the largest eigenvalue over
    all blocks, as the Gram truncation does)."""
    alg = inst.algebra
    spectra = [np.linalg.eigvalsh(inst.cp.choi_block(b)) for b in range(alg.nblocks)]
    top = max(float(w[-1]) for w in spectra)
    ranks = [int(np.count_nonzero(w > CUTOFF * max(top, 0.0))) for w in spectra]
    raw_dim = inst.n * alg.dim * inst.h1
    r1 = sum(d * r for d, r in zip(alg.block_dims, ranks))
    return {
        "raw_dim": raw_dim,
        "choi_dim_sum": sum(inst.n * d * inst.h1 for d in alg.block_dims),
        "r1": r1,
        "r2": sum(k * r for k, r in zip(inst.module.mults, ranks)),
        "gram_rank_ratio": r1 / raw_dim,
    }


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_NOT_RESIDUALS = {
    "format", "version", "tolerance", "passed", "s_isometry_in_pass",
    "diag_unital_defects", "minimality_k1_defect", "minimality_k2_defect",
    "diagram_commutes",
}


def report_residuals(payload: dict) -> list[float]:
    """Every residual in a ``--json`` report or equivalence payload."""
    values = []
    for key, value in payload.items():
        if key in _NOT_RESIDUALS:
            continue
        values.extend(value if isinstance(value, list) else [value])
    return [float(v) for v in values]


def _cli_failure(code: int, err: str) -> Outcome:
    return Outcome(False, f"exit {code}: {err.strip()[:200]}")


class DilateLarge:
    """``cpdilate dilate`` on stored instances whose raw Gram dim is 768."""

    name = "dilate_large"
    shape = dict(n=3, block_dims=[8], mults=[2], h1=4, h2=12, k1_extra=1)
    rotation = 4  # stored instances, used in turn

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for k in range(self.rotation):
            inst = cpmaps.random_instance(int(rng.integers(0, 2**31)), **self.shape)
            path = workdir / f"inst{k}.json"
            path.write_text(serialize.emit_instance(inst), encoding="utf-8")
            self.inputs.append((str(path), instance_counts(inst)))
        self.out = workdir / "dil.json"

    def op(self, index: int):
        self.out.unlink(missing_ok=True)
        path, _ = self.inputs[index % self.rotation]
        return run_cli(["dilate", path, "-o", str(self.out), "--json"])

    def check(self, index: int, result) -> Outcome:
        code, text, err = result
        if code != 0:
            return _cli_failure(code, err)
        report = json.loads(text)
        if not report["passed"]:
            return Outcome(False, "report did not pass")
        written = self.out.read_text(encoding="utf-8")
        data, _ = serialize.parse_dilation(written)
        path, counts = self.inputs[index % self.rotation]
        if (data.r1, data.r2) != (counts["r1"], counts["r2"]):
            return Outcome(False, f"r1, r2 = {data.r1}, {data.r2}; Choi ranks give "
                                  f"{counts['r1']}, {counts['r2']}")
        residuals = report_residuals(report) + [data.pi_welldef, data.psi_welldef]
        return Outcome(True, worst_residual=max(residuals), counts={
            **counts,
            "bytes_read": Path(path).stat().st_size,
            "bytes_written": len(written.encode("utf-8")),
        })


class ReverifyWide:
    """``cpdilate verify`` then ``cpdilate equiv`` on stored dilation files."""

    name = "reverify_wide"
    shape = dict(n=3, block_dims=[4, 4, 3], mults=[2, 1, 1], h1=4, h2=40, k1_extra=4)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        inst = cpmaps.random_instance(int(rng.integers(0, 2**31)), **self.shape)
        self.counts = instance_counts(inst)
        data = dilation.dilate(inst)
        if (data.r1, data.r2) != (self.counts["r1"], self.counts["r2"]):
            raise RuntimeError(f"set-up dilation has r1, r2 = {data.r1}, {data.r2}; "
                               f"Choi ranks give {self.counts['r1']}, {self.counts['r2']}")
        twin = equivalence.rotate_dilation(
            data,
            cpmaps.haar_unitary(rng, data.r1),
            cpmaps.haar_unitary(rng, data.r2),
            [cpmaps.haar_unitary(rng, k) for k in data.k2i_dims],
        )
        self.inst = workdir / "inst.json"
        self.dil_a = workdir / "dilA.json"
        self.dil_b = workdir / "dilB.json"
        self.inst.write_text(serialize.emit_instance(inst), encoding="utf-8")
        self.dil_a.write_text(serialize.emit_dilation(inst, data), encoding="utf-8")
        self.dil_b.write_text(serialize.emit_dilation(inst, twin), encoding="utf-8")

    def op(self, index: int):
        inst, dil_a, dil_b = str(self.inst), str(self.dil_a), str(self.dil_b)
        return run_cli(["verify", inst, dil_a, "--json"]), run_cli(["equiv", inst, dil_a, dil_b, "--json"])

    def check(self, index: int, result) -> Outcome:
        (code_v, text_v, err_v), (code_e, text_e, err_e) = result
        if code_v != 0:
            return _cli_failure(code_v, err_v)
        if code_e != 0:
            return _cli_failure(code_e, err_e)
        report, witness = json.loads(text_v), json.loads(text_e)
        if not report["passed"]:
            return Outcome(False, "verify report did not pass")
        if not witness["diagram_commutes"]:
            return Outcome(False, "equivalence diagram does not commute")
        sizes = {p: p.stat().st_size for p in (self.inst, self.dil_a, self.dil_b)}
        return Outcome(
            True,
            worst_residual=max(report_residuals(report) + report_residuals(witness)),
            counts={
                **self.counts,
                "bytes_read": 2 * sizes[self.inst] + 2 * sizes[self.dil_a] + sizes[self.dil_b],
                "bytes_written": 0,
            },
        )


class FuzzSmall:
    """One trial of the fuzz pipeline per op, built from public calls."""

    name = "fuzz_small"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        pass  # every trial generates its own instance inside the op

    def op(self, index: int):
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))
        dims = cli._fuzz_dims(rng, max_n=3, max_block=3, max_h=4)  # the fuzz defaults
        inst = cpmaps.random_instance(int(rng.integers(0, 2**63 - 1)), **dims)
        valid = inst.is_valid(TOL)
        data = dilation.dilate(inst)
        report = dilation.verify_dilation(inst, data)
        twin = equivalence.rotate_dilation(
            data,
            cpmaps.haar_unitary(rng, data.r1),
            cpmaps.haar_unitary(rng, data.r2),
            [cpmaps.haar_unitary(rng, k) for k in data.k2i_dims],
        )
        witness = equivalence.build_unitaries(inst, data, twin)
        commutes = equivalence.verify_diagram(witness, inst, data, twin)
        return inst, valid, data, report, witness, commutes

    def check(self, index: int, result) -> Outcome:
        inst, valid, data, report, witness, commutes = result
        if not (valid and report.passed and commutes):
            return Outcome(False, f"valid={valid} passed={report.passed} commutes={commutes}")
        counts = instance_counts(inst)
        if (data.r1, data.r2) != (counts["r1"], counts["r2"]):
            return Outcome(False, f"r1, r2 = {data.r1}, {data.r2}; Choi ranks give "
                                  f"{counts['r1']}, {counts['r2']}")
        residuals = [v for name, v in report.residual_items() if not name.startswith("minimality")]
        residuals += [v for _, v in witness.residual_items()]
        residuals += [data.pi_welldef, data.psi_welldef]
        return Outcome(True, worst_residual=max(residuals),
                       counts={**counts, "bytes_read": 0, "bytes_written": 0})


WORKLOADS = {w.name: w for w in (DilateLarge, ReverifyWide, FuzzSmall)}
