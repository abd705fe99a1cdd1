"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion states its own tolerance inline.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import brute_force_gram, raw_gram, scalar_family, transpose_map
from cpdilate import cli
from cpdilate.cpmaps import CPBlockMap, haar_unitary, identity_instance, random_instance
from cpdilate.dilation import build_gram, dilate, verify_dilation
from cpdilate.equivalence import build_unitaries, rotate_dilation, verify_diagram
from cpdilate.errors import InconsistentSpansError, NotPSDError
from cpdilate.linalg import frob
from cpdilate.serialize import emit_dilation, emit_instance

RESIDUAL_TOL = 1e-9


def _verdict(num: int, label: str, failures: list) -> None:
    print(f"ACCEPTANCE {num} {label}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, "\n".join(str(f) for f in failures)


def sample_dims(rng: np.random.Generator) -> dict:
    """Deterministic draw within the acceptance bounds:
    n <= 3, each algebra block <= 3, h1 and h2 <= 4."""
    n = int(rng.integers(1, 4))
    nblocks = int(rng.integers(1, 3))
    block_dims = [int(rng.integers(1, 4)) for _ in range(nblocks)]
    mults = [int(rng.integers(0, 3)) for _ in range(nblocks)]
    if all(k == 0 for k in mults):
        mults[int(rng.integers(0, nblocks))] = 1
    h1 = int(rng.integers(1, 5))
    mult = max(1, math.ceil(h1 / sum(block_dims)))
    while sum(k * mult for k in mults) > 4:
        big = max(range(nblocks), key=lambda b: mults[b])
        if mults[big] > 1 or sum(1 for k in mults if k > 0) > 1:
            mults[big] -= 1
        else:
            break
    needed = max(sum(k * mult for k in mults), 1)
    h2 = int(rng.integers(min(needed, 4), 5))
    return dict(n=n, block_dims=block_dims, mults=mults, h1=h1, h2=h2)


def acceptance_instances(count: int, entropy: int = 20240801):
    rng = np.random.default_rng(entropy)
    out = []
    for _ in range(count):
        dims = sample_dims(rng)
        seed = int(rng.integers(0, 2**63 - 1))
        out.append(random_instance(seed, **dims))
    return out


def test_criterion_1_reconstruction_suite():
    """Dilate + verify 100 seeded instances; every residual <= 1e-9."""
    failures = []
    start = time.monotonic()
    for idx, inst in enumerate(acceptance_instances(100)):
        data = dilate(inst)
        report = verify_dilation(inst, data, tol=RESIDUAL_TOL)
        checked = {
            "phi_reconstruction": report.phi_reconstruction,
            "Phi_reconstruction": report.Phi_reconstruction,
            "pi_multiplicativity": report.pi_multiplicativity,
            "pi_star": report.pi_star,
            "pi_unital": report.pi_unital,
            "psi_representation": report.psi_representation,
            "psi_module_action": report.psi_module_action,
            "w_coisometry": report.w_coisometry,
        }
        for name, value in checked.items():
            if value > RESIDUAL_TOL:
                failures.append(f"instance {idx}: {name} = {value:.3e}")
        if report.minimality_k1_defect or report.minimality_k2_defect:
            failures.append(f"instance {idx}: minimality defect")
        if not report.passed:
            failures.append(f"instance {idx}: report did not pass")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s budget")
    print(f"[criterion 1 ran 100 instances in {elapsed:.1f}s]")
    _verdict(1, "reconstruction suite (100 seeds, tol 1e-9)", failures)


def test_criterion_2_gram_oracle_equivalence():
    """The raw Gram assembled from the Choi blocks that build_gram
    factors matches the brute-force double-loop oracle to 1e-12 on every
    sampled instance with raw dimension <= 64."""
    failures = []
    pool = [identity_instance(d).cp for d in (1, 2, 3)]
    pool.append(scalar_family(2, [[1.0, 1.0], [1.0, 1.0]]))
    pool += [inst.cp for inst in acceptance_instances(40, entropy=7)]
    checked = 0
    for cp in pool:
        raw_dim = cp.n * cp.algebra.dim * cp.h1
        if raw_dim > 64:
            continue
        checked += 1
        oracle = brute_force_gram(cp)
        err = frob(raw_gram(cp) - oracle) / max(frob(oracle), 1.0)
        if err > 1e-12:
            failures.append(f"raw_dim {raw_dim}: gram mismatch {err:.3e}")
    if checked < 20:
        failures.append(f"only {checked} instances within the size bound")
    print(f"[criterion 2 compared {checked} Gram matrices]")
    _verdict(2, "Gram vs brute-force oracle (tol 1e-12)", failures)


def test_criterion_3_known_dimensions():
    """Identity pair on M_d gives r1 = r2 = d; the all-ones scalar
    family on two slots collapses to r1 = 1."""
    failures = []
    for d in (1, 2, 3):
        inst = identity_instance(d)
        data = dilate(inst)
        # independent check: rank of the brute-force Gram at the cutoff
        lam = np.linalg.eigvalsh(brute_force_gram(inst.cp))
        oracle_rank = int((lam > 1e-10 * lam.max()).sum())
        if not (data.r1 == data.r2 == d):
            failures.append(f"d={d}: got r1={data.r1}, r2={data.r2}")
        if oracle_rank != d:
            failures.append(f"d={d}: oracle rank {oracle_rank}")
    g = build_gram(scalar_family(2, [[1.0, 1.0], [1.0, 1.0]]))
    if g.r1 != 1:
        failures.append(f"all-ones family: r1 = {g.r1}")
    _verdict(3, "known dilation dimensions", failures)


def test_criterion_4_equivalence_suite():
    """50 seeded instances: permuted and rotated minimal twins give
    unitary witnesses with all residuals <= 1e-9, and the rotated twin
    recovers the planted unitaries to 1e-9."""
    failures = []
    rng = np.random.default_rng(99)
    for idx, inst in enumerate(acceptance_instances(50, entropy=11)):
        data = dilate(inst)

        perm1 = np.zeros((data.r1, data.r1), dtype=complex)
        perm1[np.arange(data.r1), rng.permutation(data.r1)] = 1.0
        perm2 = np.zeros((data.r2, data.r2), dtype=complex)
        perm2[np.arange(data.r2), rng.permutation(data.r2)] = 1.0
        q1, q2 = haar_unitary(rng, data.r1), haar_unitary(rng, data.r2)

        for kind, (u1, u2) in (("permuted", (perm1, perm2)), ("rotated", (q1, q2))):
            twin = rotate_dilation(data, u1, u2,
                                   [haar_unitary(rng, k) for k in data.k2i_dims])
            witness = build_unitaries(inst, data, twin, tol=RESIDUAL_TOL)
            res = dict(witness.residual_items())
            for name in ("u1_unitarity", "u2_unitarity", "u1_S_intertwine",
                         "u1_pi_intertwine", "u2_W_intertwine", "u2_psi_intertwine"):
                if res[name] > RESIDUAL_TOL:
                    failures.append(f"instance {idx} ({kind}): {name} = {res[name]:.3e}")
            if not verify_diagram(witness, inst, data, twin, tol=RESIDUAL_TOL):
                failures.append(f"instance {idx} ({kind}): diagram does not commute")
            if frob(witness.u1 - u1) > RESIDUAL_TOL or frob(witness.u2 - u2) > RESIDUAL_TOL:
                failures.append(f"instance {idx} ({kind}): planted unitaries not recovered")
    _verdict(4, "unitary equivalence suite (50 seeds, tol 1e-9)", failures)


def test_criterion_5_negative_controls():
    """Invalid inputs must be rejected, sabotage must be detected."""
    failures = []

    if transpose_map().is_completely_n_positive(RESIDUAL_TOL):
        failures.append("transpose map accepted as completely positive")

    inst = random_instance(17, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
    flipped = CPBlockMap(inst.algebra, inst.n, inst.h1, -inst.cp.action)
    try:
        build_gram(flipped)
        failures.append("sign-flipped Gram not rejected")
    except NotPSDError:
        pass

    data = dilate(inst)
    data.pi_action = np.zeros_like(data.pi_action)
    report = verify_dilation(inst, data)
    if report.passed or report.phi_reconstruction < 0.1:
        failures.append(
            f"sabotaged dilation got residual {report.phi_reconstruction:.3e}"
        )

    other = random_instance(18, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
    try:
        build_unitaries(inst, dilate(inst), dilate(other), tol=RESIDUAL_TOL)
        failures.append("dilations of distinct instances not rejected")
    except InconsistentSpansError:
        pass

    _verdict(5, "negative controls", failures)


def test_criterion_6_conditional_isometry():
    """Unital diagonals make each S_i an isometry to 1e-10; otherwise
    the defect is reported and matches the unitality defect of phi_ii,
    |S_i* S_i - 1|^(1/2) = |phi_ii(1) - 1|^(1/2) within 1e-8."""
    failures = []
    for seed in range(10):
        inst = random_instance(seed, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        report = verify_dilation(inst, dilate(inst))
        if max(report.s_isometry_defect) > 1e-10:
            failures.append(f"seed {seed}: unital defect {max(report.s_isometry_defect):.3e}")

    scales = [0.6, 1.0, 1.3]
    inst = random_instance(23, n=3, block_dims=[2], mults=[1], h1=2, h2=3).slots_scaled(scales)
    report = verify_dilation(inst, dilate(inst))
    if report.s_isometry_in_pass:
        failures.append("non-unital instance not flagged")
    targets = inst.cp.diag_unital_defects()
    for i, (defect, target) in enumerate(zip(report.s_isometry_defect, targets)):
        if abs(defect - target) > 1e-10:
            failures.append(f"slot {i}: defect {defect:.3e} vs phi_ii(1) defect {target:.3e}")
        # the square-root comparison is only meaningful away from the
        # rounding floor, i.e. on the genuinely non-unital slots
        if target > 1e-8 and abs(math.sqrt(defect) - math.sqrt(target)) > 1e-8:
            failures.append(f"slot {i}: square-root defect mismatch")
    expected0 = 1 - scales[0] ** 2
    if abs(report.s_isometry_defect[0] - expected0) > 1e-10:
        failures.append(f"slot 0 defect {report.s_isometry_defect[0]:.3e} != {expected0:.3e}")
    _verdict(6, "conditional isometry of the slot maps", failures)


def test_criterion_7_determinism(tmp_path, capsys, monkeypatch):
    """generate and fuzz are bit-reproducible for fixed seeds."""
    monkeypatch.delenv("CPDILATE_TOL", raising=False)
    failures = []

    gen_args = ["generate", "--seed", "7", "--n", "2", "--blocks", "2,1",
                "--mults", "1,1", "--h1", "2", "--h2", "4"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(gen_args + ["-o", str(out1)]) == 0
    assert cli.main(gen_args + ["-o", str(out2)]) == 0
    if out1.read_bytes() != out2.read_bytes():
        failures.append("generate is not byte-reproducible")
    capsys.readouterr()  # drop the generate status lines

    fuzz_args = ["fuzz", "--trials", "5", "--seed", "42", "--json"]
    assert cli.main(fuzz_args) == 0
    first = capsys.readouterr().out
    assert cli.main(fuzz_args) == 0
    second = capsys.readouterr().out
    if first != second:
        failures.append("fuzz report is not byte-reproducible")
    report = json.loads(first)
    if not report["all_passed"]:
        failures.append("fuzz trials failed")

    capsys.readouterr()
    _verdict(7, "bit-reproducible generate and fuzz", failures)


def test_random_instance_validity_rate():
    """Every generated instance is valid at tolerance 1e-9; checked
    over 1000 seeds on a small shape."""
    failures = []
    for seed in range(1000):
        inst = random_instance(seed, n=2, block_dims=[2], mults=[1], h1=2, h2=2)
        if not inst.is_valid(RESIDUAL_TOL):
            failures.append(f"seed {seed} invalid")
    _verdict(0, "generator validity rate (1000 seeds)", failures)
