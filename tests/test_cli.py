import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import centrally_scaled, non_representation
from test_dilation import GRADED, gap_instance, hermiticity_perturbed
from test_serialize import (
    DIMENSION_FIELDS,
    GOLDEN_DILATION,
    GOLDEN_INSTANCE,
    NODE_KINDS,
    REJECTED_FORMS,
    TENSOR_LEVELS,
    corrupted_text,
    tensor_entry_replaced,
    tensor_made_ragged,
    tensor_node_replaced,
)
from cpdilate import cli, dilation, equivalence, linalg, serialize
from cpdilate.algebra import AlgebraDescriptor, ModuleDescriptor
from cpdilate.cpmaps import CPBlockMap, Instance, ModuleCPTuple, haar_unitary, random_instance
from cpdilate.dilation import build_gram, dilate
from cpdilate.equivalence import rotate_dilation
from cpdilate.errors import CPDilateError, DimensionTooLargeError, NotPSDError
from cpdilate.serialize import emit_dilation, emit_instance, parse_dilation, parse_instance


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CPDILATE_TOL", raising=False)


def write_instance(tmp_path, seed=7, **kw):
    kw.setdefault("n", 2)
    kw.setdefault("block_dims", [2])
    kw.setdefault("mults", [1])
    kw.setdefault("h1", 2)
    kw.setdefault("h2", 3)
    inst = random_instance(seed, **kw)
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(inst), encoding="utf-8")
    return inst, path


class TestGenerate:
    def test_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        rc = cli.main([
            "generate", "--seed", "1", "--n", "1", "--blocks", "1",
            "--mults", "1", "--h1", "1", "--h2", "1", "-o", str(out),
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        inst = parse_instance(out.read_text(encoding="utf-8"))
        assert inst.n == 1 and inst.h1 == 1

    def test_deterministic_bytes(self, tmp_path):
        args = ["generate", "--seed", "7", "--n", "2", "--blocks", "2",
                "--mults", "1", "--h1", "2", "--h2", "3"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["-o", str(out1)]) == 0
        assert cli.main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dimension_guardrail(self, tmp_path, capsys):
        rc = cli.main([
            "generate", "--seed", "1", "--n", "4", "--blocks", "10",
            "--mults", "1", "--h1", "30", "--h2", "30", "-o", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        assert "guardrail" in capsys.readouterr().err


class TestDilate:
    def test_pass_and_write(self, tmp_path, capsys):
        _, inst_path = write_instance(tmp_path)
        out = tmp_path / "dil.json"
        rc = cli.main(["dilate", str(inst_path), "-o", str(out)])
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out
        data, _ = parse_dilation(out.read_text(encoding="utf-8"))
        assert data.r1 >= 1

    def test_json_report(self, tmp_path, capsys):
        _, inst_path = write_instance(tmp_path)
        rc = cli.main(["dilate", str(inst_path), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "cpdilate/report"
        assert report["passed"] is True
        assert report["phi_reconstruction"] <= 1e-9

    def test_sign_flip_gives_validity_exit(self, tmp_path, capsys):
        # The gate before dilate checks compatibility, which a full flip
        # of phi breaks; positivity is read later, off build_gram's spectra.
        inst, inst_path = write_instance(tmp_path)
        flipped = parse_instance(inst_path.read_text(encoding="utf-8"))
        flipped.cp.action *= -1.0
        inst_path.write_text(emit_instance(flipped), encoding="utf-8")
        rc = cli.main(["dilate", str(inst_path)])
        assert rc == 3
        assert "tuple is not compatible with the map family" in capsys.readouterr().err

    def test_sign_flip_of_a_block_without_module_rows(self, tmp_path, capsys):
        # Inner products of V never land in a block with k_b = 0, so
        # compatibility cannot see a flip there; build_gram's spectrum does.
        inst, inst_path = write_instance(tmp_path, n=1, block_dims=[2, 1], mults=[1, 0], h2=4)
        flipped = parse_instance(inst_path.read_text(encoding="utf-8"))
        flipped.cp.action[:, :, 4:] *= -1.0
        assert flipped.compatibility_residual() <= 1e-12
        inst_path.write_text(emit_instance(flipped), encoding="utf-8")
        rc = cli.main(["dilate", str(inst_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "NotPSDError: map family is not completely n-positive: Choi block 1 " in err

    def test_hermiticity_violation_gives_validity_exit(self, tmp_path, capsys):
        # A break that compatibility sees is reported as incompatible ...
        inst, inst_path = write_instance(tmp_path)
        broken = parse_instance(inst_path.read_text(encoding="utf-8"))
        broken.cp.action[0, 1] += 0.5  # phi_01 is no longer phi_10*
        inst_path.write_text(emit_instance(broken), encoding="utf-8")
        rc = cli.main(["dilate", str(inst_path)])
        assert rc == 3
        assert "tuple is not compatible with the map family" in capsys.readouterr().err
        # ... and one in a block without module rows by build_gram's check.
        inst, inst_path = write_instance(tmp_path, block_dims=[2, 1], mults=[1, 0], h2=4)
        broken = parse_instance(inst_path.read_text(encoding="utf-8"))
        broken.cp.action[0, 1, 4] += 0.5
        assert broken.compatibility_residual() <= 1e-12
        inst_path.write_text(emit_instance(broken), encoding="utf-8")
        defect = broken.cp.hermiticity_defect()
        rc = cli.main(["dilate", str(inst_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "HermiticityViolationError" in err
        assert f"defect {defect:.3e}" in err

    def test_identity_instance_file(self, tmp_path, capsys):
        from cpdilate.cpmaps import identity_instance

        path = tmp_path / "ident.json"
        path.write_text(emit_instance(identity_instance(2)), encoding="utf-8")
        rc = cli.main(["dilate", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "r1=2 r2=2" in out

    @pytest.mark.parametrize("eps, code", [(3e-10, 3), (1e-16, 0)])
    def test_absolute_noise_on_a_small_slot(self, tmp_path, capsys, eps, code):
        # Slot 2 at scale 1e-4 with tuple noise eps: 3e-10 is within tol
        # absolutely but about 1e-6 at the slot's own scale, where is_valid
        # and the dilate command both judge it.
        inst = random_instance(3, **GRADED).slots_scaled([1.0, 1e-4])
        z = np.random.default_rng(0).standard_normal(inst.tup.action[1].shape)
        inst.tup.action[1] += eps * z / np.linalg.norm(z)
        assert inst.is_valid() == (code == 0)
        path = tmp_path / "inst.json"
        path.write_text(emit_instance(inst), encoding="utf-8")
        assert cli.main(["dilate", str(path)]) == code

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert cli.main(["dilate", str(bad)]) == 2

    def test_missing_file_exit(self, tmp_path):
        assert cli.main(["dilate", str(tmp_path / "nope.json")]) == 2


class TestOneChoiPass:
    """``cpdilate dilate`` factors each Choi block once, in ``build_gram``:
    from its tuple block when the block has module rows and
    ``psd_certified`` holds, by one ``hermitian_eig`` otherwise, and reads
    the positivity verdict off that factorization; ``eigvalsh`` never runs."""

    @staticmethod
    def counted(monkeypatch, targets) -> dict:
        """Count the calls of each ``(module, name)`` by name; the
        results of ``psd_certified`` are listed under ``"certified"``."""
        calls = dict.fromkeys((name for _, name in targets), 0)
        for module, name in targets:
            def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                out = _fn(*args, **kwargs)
                if _name == "psd_certified":
                    calls.setdefault("certified", []).append(out)
                return out
            monkeypatch.setattr(module, name, wrapper)
        return calls

    TARGETS = ((dilation, "hermitian_eig"), (dilation, "psd_certified"),
               (np.linalg, "eigh"), (np.linalg, "eigvalsh"))

    def test_one_eigendecomposition_per_block(self, tmp_path, monkeypatch, capsys):
        # blocks 0 and 1 have module rows, block 2 has none
        inst, inst_path = write_instance(tmp_path, block_dims=[2, 1, 2], mults=[1, 1, 0], h2=6)
        calls = self.counted(monkeypatch, self.TARGETS)
        assert cli.main(["dilate", str(inst_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert calls == {"hermitian_eig": 1, "psd_certified": 2, "certified": [True, True],
                         "eigh": 1, "eigvalsh": 0}

    def test_dilate_large_shape_runs_no_eigh(self, tmp_path, monkeypatch, capsys):
        _, inst_path = write_instance(tmp_path, n=3, block_dims=[8], mults=[2], h1=4, h2=12,
                                      k1_extra=1)
        calls = self.counted(monkeypatch, self.TARGETS)
        assert cli.main(["dilate", str(inst_path)]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert calls == {"hermitian_eig": 0, "psd_certified": 1, "certified": [True],
                         "eigh": 0, "eigvalsh": 0}

    def test_fuzz_takes_validity_from_dilate(self, monkeypatch, capsys):
        calls = self.counted(monkeypatch, self.TARGETS[1:])
        assert cli.main(["fuzz", "--trials", "20", "--seed", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(res["valid"] for res in report["results"])
        mults = [k for res in report["results"] for k in res["mults"]]
        assert calls == {"psd_certified": len(mults) - mults.count(0),
                         "certified": [True] * (len(mults) - mults.count(0)),
                         "eigh": mults.count(0), "eigvalsh": 0}

    def test_hermiticity_defect_computed_once(self, tmp_path, monkeypatch):
        seen = []
        defect = CPBlockMap.hermiticity_defect
        monkeypatch.setattr(CPBlockMap, "hermiticity_defect",
                            lambda self: seen.append(1) or defect(self))
        inst_path = tmp_path / "inst.json"
        assert cli.main(["generate", "--seed", "2", "--n", "2", "--blocks", "2,1", "--mults",
                         "1,1", "--h1", "2", "--h2", "4", "-o", str(inst_path)]) == 0
        assert len(seen) == 1
        assert cli.main(["dilate", str(inst_path)]) == 0
        assert len(seen) == 2

    def test_gap_instance_rejected_by_the_positivity_rule(self, tmp_path, capsys):
        inst = gap_instance()
        assert inst.cp.hermiticity_defect() == 0.0
        assert inst.compatibility_residual() <= 1e-12
        assert not inst.cp.is_completely_n_positive(1e-9)
        message = ("map family is not completely n-positive: Choi block 1 has eigenvalue "
                   "-5.000e-09 below -1.0e-09 * 1.000e+00")
        with pytest.raises(NotPSDError, match=f"^{re.escape(message)}$"):
            build_gram(inst.cp)
        path = tmp_path / "gap.json"
        path.write_text(emit_instance(inst), encoding="utf-8")
        assert cli.main(["dilate", str(path)]) == 3
        assert capsys.readouterr().err == f"error: NotPSDError: {message}\n"

    @pytest.mark.parametrize("inst", [gap_instance(-5e-10, scale=1.0), hermiticity_perturbed(5e-10)],
                             ids=["positivity", "hermiticity"])
    def test_valid_input_near_a_verdict_dilates(self, inst, tmp_path, capsys):
        # Each verdict has one rule, so is_valid true means dilate succeeds.
        assert inst.is_valid()
        path = tmp_path / "inst.json"
        path.write_text(emit_instance(inst), encoding="utf-8")
        assert cli.main(["dilate", str(path)]) == 0
        assert "overall: PASS" in capsys.readouterr().out


def generate_returning(inst, tmp_path, monkeypatch) -> int:
    """``cpdilate generate`` with the generator replaced by one that returns
    ``inst``; the flags only have to pass the dimension bounds."""
    monkeypatch.setattr(cli, "random_instance", lambda *args, **kwargs: inst)
    return cli.main(["generate", "--seed", "1", "--n", "2", "--blocks", "2,1", "--mults", "1,0",
                     "--h1", "2", "--h2", "4", "-o", str(tmp_path / "generated.json")])


def incompatible_and_not_positive():
    """``gap_instance`` (Choi block 1 not PSD) with phi flipped on block 0,
    which breaks compatibility there."""
    inst = gap_instance()
    inst.cp.action[:, :, :4] *= -1.0
    return inst


class TestOneGate:
    """``generate`` and ``dilate`` judge an instance by the same gates in one
    order: ``Instance.check_compatible``, then the Hermiticity and positivity
    verdicts of ``build_gram``; ``is_valid`` reaches the same verdict."""

    def test_generate_names_the_choi_block(self, tmp_path, monkeypatch, capsys):
        assert generate_returning(gap_instance(), tmp_path, monkeypatch) == 3
        assert capsys.readouterr().err.startswith(
            "error: NotPSDError: map family is not completely n-positive: "
            "Choi block 1 has eigenvalue ")
        assert not (tmp_path / "generated.json").exists()

    def test_compatibility_is_judged_first(self, tmp_path, monkeypatch, capsys):
        inst = incompatible_and_not_positive()
        with pytest.raises(CPDilateError) as info:
            inst.check_compatible(1e-9)
        want = f"error: CPDilateError: {info.value}\n"
        assert want.startswith("error: CPDilateError: tuple is not compatible with the map "
                               "family (residual ")
        with pytest.raises(NotPSDError):
            build_gram(inst.cp)
        path = tmp_path / "inst.json"
        path.write_text(emit_instance(inst), encoding="utf-8")
        assert cli.main(["dilate", str(path)]) == 3
        assert capsys.readouterr().err == want
        assert generate_returning(inst, tmp_path, monkeypatch) == 3
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("inst", [
        *(pytest.param(gap_instance(lam, scale=1.0), id=f"gap{lam:g}")
          for lam in (-5e-9, -1.5e-9, -0.9e-9, -5e-10, 0.0)),
        *(pytest.param(hermiticity_perturbed(eps), id=f"hermiticity{eps:g}")
          for eps in (5e-9, 1.5e-9, 0.9e-9, 5e-10, 0.0)),
    ])
    def test_generate_dilate_and_is_valid_agree(self, inst, tmp_path, monkeypatch, capsys):
        path = tmp_path / "inst.json"
        path.write_text(emit_instance(inst), encoding="utf-8")
        code = 0 if inst.is_valid() else 3
        assert cli.main(["dilate", str(path)]) == code
        err = capsys.readouterr().err
        assert generate_returning(inst, tmp_path, monkeypatch) == code
        assert capsys.readouterr().err == err


class TestOneRankRule:
    """Every rank decision is ``linalg.kept_ranks``: the Gram truncation and
    the W ranges in ``dilate``, the minimality counts in ``verify`` and both
    minimality checks in ``equiv``."""

    STAGES = ("build_gram", "build_W", "verify_dilation", "build_unitaries")

    def test_every_rank_decision_reaches_the_rule(self, tmp_path, monkeypatch, capsys):
        stages = []
        rule = linalg.kept_ranks

        def recording(*args, **kwargs):
            frame = sys._getframe(1)
            while frame and frame.f_code.co_name not in self.STAGES:
                frame = frame.f_back
            stages.append(frame and frame.f_code.co_name)
            return rule(*args, **kwargs)

        inst, inst_path = write_instance(tmp_path, n=3, block_dims=[2, 1], mults=[1, 1], h2=6)
        for module in (linalg, dilation):  # wherever the name is looked up
            monkeypatch.setattr(module, "kept_ranks", recording)
        dil_path = tmp_path / "dil.json"
        runs = (
            (["dilate", str(inst_path), "-o", str(dil_path)],
             ["build_gram"] + ["build_W"] * inst.n + ["verify_dilation"] * 2),
            (["verify", str(inst_path), str(dil_path)], ["verify_dilation"] * 2),
            (["equiv", str(inst_path), str(dil_path), str(dil_path)], ["build_unitaries"] * 4),
        )
        for argv, want in runs:
            stages.clear()
            assert cli.main(argv) == 0
            assert stages == want


# Valid instances whose dilation fails the exit contract until the blocks
# are equilibrated as the slots are (ROADMAP item 11): a central element
# z = sum_b c_b 1_b, with blocks 1e-5 to 1e-6 apart, is seen by the rank
# cutoff and the minimality count.  mults [1, 0] exits 3 (phi_reconstruction
# 5.8e-5 to 5.8e-7); mults [1, 1] exits 4 (WellDefinednessError).
CENTRAL_SCALES = [
    pytest.param([1, 0], [1e3, 1e3 * math.sqrt(s)], id=f"mults-1-0-s{s:g}")
    for s in (1e-10, 1e-11, 1e-12)
] + [pytest.param([1, 1], [1.0, math.sqrt(s)], id=f"mults-1-1-s{s:g}") for s in (1e-10, 1e-12)]


def centrally_scaled_instance(mults, c):
    inst = random_instance(3, n=2, block_dims=[2, 2], mults=mults, h1=2, h2=12, k1_extra=1)
    return centrally_scaled(inst, c)


class TestCentralScales:
    @pytest.mark.parametrize("mults, c", CENTRAL_SCALES)
    def test_input_is_valid(self, mults, c):
        assert centrally_scaled_instance(mults, c).is_valid()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 11: blocks are not equilibrated")
    @pytest.mark.parametrize("mults, c", CENTRAL_SCALES)
    def test_valid_input_dilates(self, tmp_path, mults, c):
        path = tmp_path / "inst.json"
        path.write_text(emit_instance(centrally_scaled_instance(mults, c)), encoding="utf-8")
        assert cli.main(["dilate", str(path), "-o", str(tmp_path / "dil.json")]) == 0


# Valid instances whose dilation verifies but is not equivalent to itself
# (ROADMAP items 11/12): a central element z = sum_b c_b 1_b puts block 1 at
# s times block 0 on the Choi scale, at absolute scale 1e-12.  build_gram's
# cutoff drops block 1 from K1 and K2, its module rows (about 1e-11) stay
# under the floor of the K2 solve residual, and build_W, which cuts the
# tuple's singular values (ratio sqrt(s)), keeps it, so the W_i ranges
# leave the embedded K2.  At s = 1e-8 block 1 is kept throughout.
SILENT_DROPS = [
    pytest.param([1, 1], s, (4, 2), id=f"mults-1-1-s{s:g}") for s in (1e-10, 1e-14)
] + [pytest.param([2, 1], 1e-12, (4, 4), id="mults-2-1-s1e-12")]


def dilated_drop_instance(tmp_path, mults, s) -> tuple[int, str, str]:
    inst = random_instance(3, n=2, block_dims=[2, 2], mults=mults, h1=2, h2=12, k1_extra=1)
    inst = centrally_scaled(inst, [1e-6, 1e-6 * math.sqrt(s)])
    assert inst.is_valid()
    inst_path, dil_path = tmp_path / "inst.json", tmp_path / "dil.json"
    inst_path.write_text(emit_instance(inst), encoding="utf-8")
    rc = cli.main(["dilate", str(inst_path), "-o", str(dil_path)])
    return rc, str(inst_path), str(dil_path)


class TestSilentBlockDrop:
    @pytest.mark.parametrize("mults, s, ranks", [
        *SILENT_DROPS, pytest.param([1, 1], 1e-8, (8, 4), id="mults-1-1-s1e-08-kept")])
    def test_valid_input_dilates_and_verifies(self, tmp_path, capsys, mults, s, ranks):
        rc, inst_path, dil_path = dilated_drop_instance(tmp_path, mults, s)
        assert rc == 0
        assert f"dilated: r1={ranks[0]} r2={ranks[1]} " in capsys.readouterr().out
        assert cli.main(["verify", inst_path, dil_path]) == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 11/12")
    @pytest.mark.parametrize("mults, s, ranks", SILENT_DROPS)
    def test_dilation_is_equivalent_to_itself(self, tmp_path, mults, s, ranks):
        rc, inst_path, dil_path = dilated_drop_instance(tmp_path, mults, s)
        assert rc == 0
        assert cli.main(["equiv", inst_path, dil_path, dil_path]) == 0


class TestGuardrail:
    """The largest Choi block side ``n * d_b * h1`` and the raw dimension
    ``n * dim A * h1`` are bounded wherever an instance is made or read;
    ``dilate`` bounds the entries of pi, and ``generate`` its carrier."""

    def test_side_not_raw_dimension(self, tmp_path, capsys):
        # raw Gram dim 1025 is small, but its one Choi block has side 1025
        rc = cli.main(["generate", "--seed", "1", "--n", "1", "--blocks", "1", "--mults", "1",
                       "--h1", "1025", "--h2", "1", "-o", str(tmp_path / "x.json")])
        assert rc == 2
        assert "a Choi block of side 1025, above the guardrail 1024" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_raw_dimension_within_side(self, tmp_path, capsys):
        # side 1 * 256 * 4 = 1024 passes, but dim A = 65536 gives raw 262,144;
        # the generator's pi tensor alone would be 65536 x 256 x 256
        rc = cli.main(["generate", "--seed", "1", "--n", "1", "--blocks", "256", "--mults", "1",
                       "--h1", "4", "--h2", "256", "-o", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "raw dimension n * dim A * h1 = 262144, above the guardrail 10000" in err
        assert not (tmp_path / "x.json").exists()

    def test_fuzz_raw_dimension_within_side(self, capsys):
        # side 1 * 64 * 16 = 1024; two blocks of M_64 give raw 1 * 8192 * 16
        rc = cli.main(["fuzz", "--trials", "1", "--max-n", "1", "--max-block", "64",
                       "--max-h", "16"])
        assert rc == 2
        assert "bounds admit raw dimension n * dim A * h1 = 131072" in capsys.readouterr().err

    def test_fuzz_bounds(self, capsys, monkeypatch):
        args = ["fuzz", "--trials", "1", "--max-n", "2", "--max-block", "3", "--max-h", "4"]
        monkeypatch.setattr(dilation, "MAX_CHOI_SIDE", 23)  # bounds admit side 2 * 3 * 4 = 24
        assert cli.main(args) == 2
        assert "bounds admit a Choi block of side 24" in capsys.readouterr().err
        monkeypatch.setattr(dilation, "MAX_CHOI_SIDE", 24)
        assert cli.main(args) == 0

    def test_read_side(self, tmp_path, capsys, monkeypatch):
        # block_dims [2, 1], n = 2, h1 = 2: the largest side is 2 * 2 * 2 = 8
        inst, inst_path = write_instance(tmp_path, block_dims=[2, 1], mults=[1, 1], h2=5)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(inst, dilate(inst)), encoding="utf-8")
        commands = (
            ["dilate", str(inst_path)],
            ["verify", str(inst_path), str(dil_path)],
            ["equiv", str(inst_path), str(dil_path), str(dil_path)],
        )
        monkeypatch.setattr(dilation, "MAX_CHOI_SIDE", 7)
        for argv in commands:
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert "DimensionTooLargeError: instance has a Choi block of side 8" in err
        monkeypatch.setattr(dilation, "MAX_CHOI_SIDE", 8)
        for argv in commands:
            assert cli.main(argv) == 0
        # raw dimension 2 * (4 + 1) * 2 = 20
        monkeypatch.setattr(dilation, "MAX_RAW_DIM", 19)
        for argv in commands:
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert "instance has raw dimension n * dim A * h1 = 20, above the guardrail" in err
        monkeypatch.setattr(dilation, "MAX_RAW_DIM", 20)
        for argv in commands:
            assert cli.main(argv) == 0

    def test_header_is_refused_before_tensors_are_decoded(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a tensor was decoded")

        monkeypatch.setattr(serialize, "_decode_complex", forbidden)
        header = {"format": "cpdilate/instance", "version": 1, "n": 1, "h1": 1025, "h2": 1,
                  "block_dims": [1], "mults": [1], "cp_action": [], "tuple_action": []}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(header), encoding="utf-8")
        message = "instance has a Choi block of side 1025, above the guardrail 1024"
        with pytest.raises(DimensionTooLargeError, match=f"^{re.escape(message)}$"):
            parse_instance(path.read_bytes())
        assert cli.main(["dilate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: DimensionTooLargeError: {message}\n"

    def test_pi_entries_within_side_and_raw_dimension(self, tmp_path, capsys):
        # A = C^1000 with n = h1 = 1: side 1, raw 1000, and every Choi block
        # is [1], so r1 = 1000 and pi would be 1000 x 1000 x 1000 (16 GB).
        alg = AlgebraDescriptor((1,) * 1000)
        mod = ModuleDescriptor(alg, (1,) + (0,) * 999)
        inst = Instance(CPBlockMap(alg, 1, 1, np.ones((1, 1, 1000, 1, 1))),
                        ModuleCPTuple(mod, 1, 1, 1, np.ones((1, 1, 1, 1))))
        assert inst.is_valid()
        path = tmp_path / "inst.json"
        path.write_text(emit_instance(inst), encoding="utf-8")
        assert cli.main(["dilate", str(path)]) == 2
        assert ("DimensionTooLargeError: pi would have dim A * r1^2 = 1000000000 entries, "
                "above the guardrail 4194304") in capsys.readouterr().err

    def test_pi_entries_bound_is_inclusive(self, tmp_path, monkeypatch):
        inst, inst_path = write_instance(tmp_path)
        entries = inst.algebra.dim * dilate(inst).r1 ** 2
        monkeypatch.setattr(dilation, "MAX_PI_ENTRIES", entries - 1)
        assert cli.main(["dilate", str(inst_path)]) == 2
        monkeypatch.setattr(dilation, "MAX_PI_ENTRIES", entries)
        assert cli.main(["dilate", str(inst_path)]) == 0

    @pytest.mark.parametrize("flags, message", [
        (["--blocks", "2", "--h1", "1", "--h2", "4", "--k1-extra", "600"],
         "requested dimensions give a carrier of side 1202, above the guardrail 1024"),
        (["--blocks", "1", "--h1", "1", "--h2", "1025"],
         "requested h2 = 1025, above the guardrail 1024"),
        (["--blocks", "16", "--h1", "4", "--h2", "16", "--k1-extra", "8"],
         "requested dimensions give dim A * carrier^2 = 5308416, above the guardrail 4194304"),
        (["--blocks", "1", "--mults", "100000", "--h1", "1", "--h2", "4"],
         "requested dimensions give dim V * sum k_b * copies * carrier = 10000000000, "
         "above the guardrail 4194304"),
        (["--n", "1024", "--blocks", "1", "--h1", "1", "--h2", "4", "--k1-extra", "1023"],
         "requested dimensions give n * carrier^2 = 1073741824, above the guardrail 4194304"),
    ])
    def test_generate_bounds_what_it_builds(self, tmp_path, capsys, monkeypatch, flags, message):
        # carrier side = sum d_b * max(1 + k1_extra, ceil(h1 / sum d_b)), with
        # copies = max(1 + k1_extra, ceil(h1 / sum d_b)); later flags win
        def unbounded(*args, **kwargs):
            raise AssertionError("random_instance called before the bounds")

        monkeypatch.setattr(cli, "random_instance", unbounded)
        out = tmp_path / "x.json"
        rc = cli.main(["generate", "--seed", "1", "--n", "1", "--mults", "1", *flags, "-o", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_generate_carrier_bound_is_inclusive(self, tmp_path, monkeypatch):
        # carrier side 2 * 2 = 4 on A = M_2: dim A * carrier^2 = 64
        argv = ["generate", "--seed", "1", "--n", "1", "--blocks", "2", "--mults", "1",
                "--h1", "1", "--h2", "4", "--k1-extra", "1", "-o", str(tmp_path / "x.json")]
        monkeypatch.setattr(dilation, "MAX_PI_ENTRIES", 63)
        assert cli.main(argv) == 2
        monkeypatch.setattr(dilation, "MAX_PI_ENTRIES", 64)
        assert cli.main(argv) == 0


class TestVerify:
    def test_roundtrip_pass(self, tmp_path):
        inst, inst_path = write_instance(tmp_path)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(inst, dilate(inst)), encoding="utf-8")
        assert cli.main(["verify", str(inst_path), str(dil_path)]) == 0

    def test_sabotaged_dilation_fails(self, tmp_path, capsys):
        inst, inst_path = write_instance(tmp_path)
        data = dilate(inst)
        data.pi_action = np.zeros_like(data.pi_action)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(inst, data), encoding="utf-8")
        rc = cli.main(["verify", str(inst_path), str(dil_path), "--json"])
        assert rc == 3
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["phi_reconstruction"] >= 0.1

    def test_unequilibrated_dilation_fails(self, tmp_path, monkeypatch, capsys):
        # The graded instance dilated with every slot scale c_i = 1, as the
        # construction did before it equilibrated the slots: the cutoff on
        # the whole Gram drops slot 2's directions (r1 = 4, not 6), and the
        # reconstruction is off at slot 2's own scale.
        inst = random_instance(3, **GRADED).slots_scaled([1.0, 1e-9])
        with monkeypatch.context() as m:
            m.setattr(CPBlockMap, "slot_scales", lambda self: np.ones(self.n))
            data = dilate(inst)
        assert (data.r1, data.r2) == (4, 2)
        inst_path, dil_path = tmp_path / "inst.json", tmp_path / "dil.json"
        inst_path.write_text(emit_instance(inst), encoding="utf-8")
        dil_path.write_text(emit_dilation(inst, data), encoding="utf-8")
        assert cli.main(["verify", str(inst_path), str(dil_path), "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["phi_reconstruction"] > 1e-2 and report["Phi_reconstruction"] > 1e-2
        assert cli.main(["dilate", str(inst_path), "-o", str(dil_path)]) == 0
        assert "dilated: r1=6 r2=3" in capsys.readouterr().out
        assert cli.main(["verify", str(inst_path), str(dil_path)]) == 0

    def test_mismatched_files(self, tmp_path):
        inst, inst_path = write_instance(tmp_path)
        other = random_instance(11, n=2, block_dims=[2], mults=[1], h1=3, h2=3)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(other, dilate(other)), encoding="utf-8")
        assert cli.main(["verify", str(inst_path), str(dil_path)]) == 3

    @pytest.mark.parametrize("variant", ["dilation", "non-unital", "bumped", "non-representation"])
    def test_printed_statuses_agree_with_passed(self, tmp_path, capsys, variant):
        inst = random_instance(7, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        if variant == "non-unital":
            inst = inst.slots_scaled([0.6, 1.3])
        data = dilate(inst)
        if variant == "bumped":
            data.pi_action[0] *= 1.001
        if variant == "non-representation":
            data = non_representation(inst, data)
        inst_path, dil_path = tmp_path / "inst.json", tmp_path / "dil.json"
        inst_path.write_text(emit_instance(inst), encoding="utf-8")
        dil_path.write_text(emit_dilation(inst, data), encoding="utf-8")
        args = ["verify", str(inst_path), str(dil_path)]

        code = cli.main(args + ["--json"])
        report = json.loads(capsys.readouterr().out)
        assert cli.main(args) == code == (0 if report["passed"] else 3)
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[1:] if not line.startswith(("note:", "overall:"))]
        statuses = {name: status for name, _, status in rows}
        assert set(statuses.values()) <= {"ok", "FAIL", "reported"}
        assert ("FAIL" in statuses.values()) == (not report["passed"])
        assert lines[-1] == f"overall: {'PASS' if report['passed'] else 'FAIL'}"
        assert report["passed"] == (variant in ("dilation", "non-unital"))
        assert ("reported" in statuses.values()) == (variant == "non-unital")
        if variant == "non-representation":
            assert statuses["minimality_k1_defect"] == "FAIL"
            assert report["minimality_k1_defect"] == -2.0


class TestDimensionFields:
    @pytest.mark.parametrize("form", REJECTED_FORMS)
    @pytest.mark.parametrize("kind, field", DIMENSION_FIELDS)
    def test_non_integer_gives_parse_exit(self, tmp_path, capsys, kind, field, form):
        bad = tmp_path / f"{kind}.json"
        bad.write_text(corrupted_text(kind, field, form), encoding="utf-8")
        if kind == "instance":
            rc = cli.main(["dilate", str(bad)])
        else:
            rc = cli.main(["verify", str(GOLDEN_INSTANCE), str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and f"field '{field}'" in err


def dilate_exit(tmp_path, capsys, data: bytes) -> tuple[int, str]:
    """Exit code and stderr of ``cpdilate dilate`` on a file holding ``data``."""
    path = tmp_path / "input.json"
    path.write_bytes(data)
    rc = cli.main(["dilate", str(path)])
    return rc, capsys.readouterr().err


def golden_with_meta_entry(entry: bytes) -> bytes:
    return GOLDEN_INSTANCE.read_bytes().replace(b'"meta":{', b'"meta":{"x":' + entry + b",")


class TestStrictReader:
    """What the strict reader rejects gives the parse exit, with the cause
    on stderr instead of a traceback."""

    def test_non_utf8_file(self, tmp_path, capsys):
        rc, err = dilate_exit(tmp_path, capsys, golden_with_meta_entry(b'"\xff"'))
        assert rc == 2
        assert "ParseError" in err and "UTF-8" in err

    def test_deep_nesting(self, tmp_path, capsys):
        rc, err = dilate_exit(tmp_path, capsys, b"[" * 100_000 + b"]" * 100_000)
        assert rc == 2
        assert "ParseError" in err and "nesting deeper than" in err

    def test_deep_nesting_in_a_fresh_process(self, tmp_path):
        # a million levels would overflow the parser's C stack; the depth
        # check refuses them first, and a fresh process keeps a crash apart
        path = tmp_path / "deep.json"
        path.write_bytes(b'{"a":' + b"[" * 1_000_000 + b"]" * 1_000_000 + b"}")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "cpdilate.cli", "dilate", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "nesting deeper than" in proc.stderr

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_version_must_be_an_integer(self, tmp_path, capsys, version):
        text = GOLDEN_INSTANCE.read_bytes().replace(b'"version":1', b'"version":' + version.encode())
        rc, err = dilate_exit(tmp_path, capsys, text)
        assert rc == 2
        assert "field 'version'" in err

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400"])
    def test_non_finite_tensor_entry(self, tmp_path, capsys, literal):
        rc, err = dilate_exit(tmp_path, capsys, tensor_entry_replaced(literal).encode())
        assert rc == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("literal", ['"1.5"', "true", "null"])
    def test_tensor_entry_that_is_not_a_number(self, tmp_path, capsys, literal):
        rc, err = dilate_exit(tmp_path, capsys, tensor_entry_replaced(literal).encode())
        assert rc == 2
        assert "tensor entries must be JSON numbers" in err

    @pytest.mark.parametrize("kind", NODE_KINDS)
    @pytest.mark.parametrize("key, level", TENSOR_LEVELS)
    def test_list_level_holding_no_list(self, tmp_path, capsys, key, level, kind):
        rc, err = dilate_exit(tmp_path, capsys, tensor_node_replaced(key, level, kind).encode())
        assert rc == 2
        assert "ParseError" in err

    def test_ragged_tensor_row(self, tmp_path, capsys):
        rc, err = dilate_exit(tmp_path, capsys, tensor_made_ragged("short row").encode())
        assert rc == 2
        assert "tensor nesting does not match declared shape" in err

    @pytest.mark.parametrize("value", [2**64, 10**30, -(2**63) - 1])
    def test_dimension_beyond_64_bits(self, tmp_path, capsys, value):
        payload = json.loads(GOLDEN_INSTANCE.read_text(encoding="utf-8"))
        payload["h1"] = value
        rc, err = dilate_exit(tmp_path, capsys, json.dumps(payload).encode())
        assert rc == 2
        assert "field 'h1'" in err

    def test_lone_surrogate_escape(self, tmp_path, capsys):
        rc, err = dilate_exit(tmp_path, capsys, golden_with_meta_entry(b'"\\ud800"'))
        assert rc == 2
        assert "surrogate" in err


class TestEquiv:
    def test_same_dilation_twice(self, tmp_path, capsys):
        inst, inst_path = write_instance(tmp_path)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(inst, dilate(inst)), encoding="utf-8")
        rc = cli.main(["equiv", str(inst_path), str(dil_path), str(dil_path)])
        assert rc == 0
        assert "diagram commutes: yes" in capsys.readouterr().out

    def test_rotated_copy(self, tmp_path):
        inst, inst_path = write_instance(tmp_path)
        data = dilate(inst)
        rng = np.random.default_rng(3)
        twin = rotate_dilation(
            data,
            haar_unitary(rng, data.r1),
            haar_unitary(rng, data.r2),
            [haar_unitary(rng, k) for k in data.k2i_dims],
        )
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        a_path.write_text(emit_dilation(inst, data), encoding="utf-8")
        b_path.write_text(emit_dilation(inst, twin), encoding="utf-8")
        assert cli.main(["equiv", str(inst_path), str(a_path), str(b_path)]) == 0

    def test_fresh_dilation_is_equivalent_to_the_golden_file(self, tmp_path, capsys):
        # dilate picks new K1 and K2 coordinates (the tuple factor); the
        # stored file from the eigh factor is the same dilation up to unitaries
        fresh = tmp_path / "fresh.json"
        assert cli.main(["dilate", str(GOLDEN_INSTANCE), "-o", str(fresh)]) == 0
        capsys.readouterr()
        assert cli.main(["equiv", str(GOLDEN_INSTANCE), str(GOLDEN_DILATION), str(fresh)]) == 0
        assert "diagram commutes: yes" in capsys.readouterr().out

    def test_diagram_residuals_computed_once(self, tmp_path, monkeypatch, capsys):
        # equiv and fuzz take the verdict from the witness's residuals
        calls = []
        original = equivalence._diagram_residuals

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(equivalence, "_diagram_residuals", counted)
        inst, inst_path = write_instance(tmp_path)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(inst, dilate(inst)), encoding="utf-8")
        assert cli.main(["equiv", str(inst_path), str(dil_path), str(dil_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["diagram_commutes"] is True
        assert len(calls) == 1
        assert cli.main(["fuzz", "--trials", "3", "--seed", "5"]) == 0
        assert len(calls) == 1 + 3

    def test_different_instances_rejected(self, tmp_path, capsys):
        inst_a, path_a = write_instance(tmp_path, seed=7)
        inst_b = random_instance(8, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        dil_a, dil_b = tmp_path / "da.json", tmp_path / "db.json"
        dil_a.write_text(emit_dilation(inst_a, dilate(inst_a)), encoding="utf-8")
        dil_b.write_text(emit_dilation(inst_b, dilate(inst_b)), encoding="utf-8")
        rc = cli.main(["equiv", str(path_a), str(dil_a), str(dil_b)])
        assert rc == 5
        assert "InconsistentSpans" in capsys.readouterr().err

    def test_non_representation_file(self, tmp_path, capsys):
        # pi(e_00) = 1 and pi = 0 on the other units of A = M_2 is not a
        # *-representation; the K1 minimality defect is -2.
        inst, inst_path = write_instance(tmp_path)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(inst, non_representation(inst, dilate(inst))),
                            encoding="utf-8")

        assert cli.main(["verify", str(inst_path), str(dil_path), "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["pi_multiplicativity"] >= 0.1
        assert (report["minimality_k1_defect"], report["minimality_k2_defect"]) == (-2.0, 0.0)

        assert cli.main(["equiv", str(inst_path), str(dil_path), str(dil_path)]) == 5
        err = capsys.readouterr().err
        assert "NotMinimalError" in err
        assert "pi or Psi is not a *-representation" in err


class TestFuzz:
    def test_single_trial(self, capsys):
        rc = cli.main(["fuzz", "--trials", "1", "--seed", "1",
                       "--max-n", "1", "--max-block", "1", "--max-h", "1"])
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_deterministic_json(self, capsys):
        args = ["fuzz", "--trials", "3", "--seed", "5", "--json"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["all_passed"] is True
        assert report["trials"] == 3
        assert len(report["results"]) == 3

    def test_histogram_and_worst(self, capsys):
        assert cli.main(["fuzz", "--trials", "2", "--seed", "9", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension_histogram"]
        assert all(v <= 1e-9 for v in report["worst_residuals"].values())

    def test_hundred_trials_all_pass(self, capsys):
        rc = cli.main(["fuzz", "--trials", "100", "--seed", "42",
                       "--max-n", "3", "--max-block", "3", "--max-h", "4", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert sum(1 for r in report["results"] if r["passed"]) == 100


class TestEnvOverride:
    def test_tolerance_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CPDILATE_TOL", "0.5")
        _, inst_path = write_instance(tmp_path)
        rc = cli.main(["dilate", str(inst_path), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerance"] == 0.5

    def test_environment_is_read_on_every_call(self, tmp_path, monkeypatch, capsys):
        _, inst_path = write_instance(tmp_path)
        tolerances = []
        for value, argv in (("0.5", []), ("0.25", []), (None, []), ("0.5", ["--tol", "0.125"])):
            if value is None:
                monkeypatch.delenv("CPDILATE_TOL")
            else:
                monkeypatch.setenv("CPDILATE_TOL", value)
            assert cli.main(["dilate", str(inst_path), "--json", *argv]) == 0
            tolerances.append(json.loads(capsys.readouterr().out)["tolerance"])
        assert tolerances == [0.5, 0.25, 1e-9, 0.125]

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("CPDILATE_TOL", "abc")
        assert cli.main(["fuzz", "--trials", "1"]) == 2
        assert cli.main(["fuzz", "--trials", "1", "--tol", "1e-9"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1", "10", "1e300"])
    def test_tolerance_out_of_range_in_environment(self, value, monkeypatch, capsys):
        # nan passes every gate (x > nan is false), 1 or more makes every
        # relative gate vacuous, and 0 or -1 fail a valid instance at rounding
        monkeypatch.setenv("CPDILATE_TOL", value)
        assert cli.main(["fuzz", "--trials", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: CPDILATE_TOL={value!r} must be > 0 and < 1\n")


def cli_exit(argv) -> int:
    """The exit status of ``cpdilate argv``: argparse exits by SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


GENERATE_BASE = ["generate", "--seed", "1", "--n", "2", "--blocks", "2", "--mults", "1",
                 "--h1", "2", "--h2", "4"]


class TestFlagRanges:
    """Out-of-range flag values exit 2 with a one-line message, before any
    work, and never reach the library's own ValueErrors."""

    @pytest.mark.parametrize("flags", [
        ["--blocks", "", "--mults", ""],
        ["--mults", "1,1"],
        ["--blocks", "0"],
        ["--mults", "0"],
        ["--k1-extra", "-1"],
        ["--k2-extra", "-2"],
        ["--seed", "-1"],
    ], ids=" ".join)
    def test_generate(self, flags, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert cli_exit([*GENERATE_BASE, *flags, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: " in err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--max-n", "0"],
        ["--max-block", "0"],
        ["--max-h", "0"],
        ["--trials", "-3"],
        ["--trials", "0"],
        ["--seed", "-1"],
    ], ids=" ".join)
    def test_fuzz(self, flags, capsys):
        assert cli_exit(["fuzz", "--trials", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"argument {flags[0]}: " in captured.err.splitlines()[-1]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1", "10", "1e300"])
    def test_tolerance_flag(self, value, tmp_path, capsys):
        _, inst_path = write_instance(tmp_path)
        assert cli_exit(["dilate", str(inst_path), "--tol", value]) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument --tol: must be > 0 and < 1, got {value!r}")

    def test_mults_per_block(self, tmp_path, capsys):
        argv = [*GENERATE_BASE, "--blocks", "2,1", "-o", str(tmp_path / "x.json")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: ParseError: --mults needs one entry per block (2), got 1\n")


class TestFixedCutoff:
    """The rank cutoff is ``linalg.DEFAULT_CUTOFF``, not an option."""

    def test_no_subcommand_takes_it(self, tmp_path, capsys):
        inst, inst_path = write_instance(tmp_path)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(inst, dilate(inst)), encoding="utf-8")
        for argv in (["dilate", str(inst_path)],
                     ["verify", str(inst_path), str(dil_path)],
                     ["equiv", str(inst_path), str(dil_path), str(dil_path)],
                     ["fuzz", "--trials", "1"]):
            assert cli_exit([*argv, "--cutoff", "1e-10"]) == 2
            assert "unrecognized arguments: --cutoff 1e-10" in capsys.readouterr().err

    def test_fuzz_report_names_it(self, capsys):
        assert cli.main(["fuzz", "--trials", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cutoff"] == 1e-10 == linalg.DEFAULT_CUTOFF


OPENBLAS = linalg._openblas_threads()


def blas_threads() -> int:
    return OPENBLAS[0]()


@pytest.mark.skipif(OPENBLAS is None, reason="no OpenBLAS loaded, so there is no thread count to set")
class TestOneBlasThread:
    """``cli.main`` runs each command on one BLAS thread, except the
    eigendecomposition in ``hermitian_eig``, and restores the caller's
    count on every exit path."""

    def test_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # a Choi side of 384 with mults [2]: its tuple SVD and products
        # wrote w_ops up to 1.0 apart at 1 and 2 threads
        inst = tmp_path / "inst.json"
        assert cli.main(["generate", "--seed", "7", "--n", "4", "--blocks", "16", "--mults", "2",
                         "--h1", "6", "--h2", "24", "--k1-extra", "2", "-o", str(inst)]) == 0
        src = str(Path(cli.__file__).parents[1])
        outputs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            dil = tmp_path / f"dil{threads}.json"
            reports = [subprocess.run([sys.executable, "-m", "cpdilate.cli", *argv, "--json"],
                                      capture_output=True, env=env, timeout=300).stdout
                       for argv in (["dilate", str(inst), "-o", str(dil)],
                                    ["verify", str(inst), str(dil)],
                                    ["equiv", str(inst), str(dil), str(dil)])]
            assert all(json.loads(r)["passed" if i < 2 else "diagram_commutes"]
                       for i, r in enumerate(reports))
            outputs[threads] = [dil.read_bytes(), *reports]
        assert outputs["1"] == outputs["2"]

    @pytest.mark.parametrize("case", ["ok", "parse", "report", "bad flag"])
    def test_the_scope_restores_the_count(self, case, tmp_path, monkeypatch):
        inst, inst_path = write_instance(tmp_path)
        data = dilate(inst)
        if case == "report":
            data.pi_action = np.zeros_like(data.pi_action)
        dil_path = tmp_path / "dil.json"
        dil_path.write_text(emit_dilation(inst, data), encoding="utf-8")
        if case == "parse":
            dil_path.write_bytes(b"{")
        argv = ["verify", str(inst_path), str(dil_path)] + (["--bogus"] if case == "bad flag" else [])
        inside = []
        default_tol = cli._default_tol
        monkeypatch.setattr(cli, "_default_tol", lambda: inside.append(blas_threads()) or default_tol())
        with linalg._blas_threads(2):
            assert cli_exit(argv) == {"ok": 0, "parse": 2, "report": 3, "bad flag": 2}[case]
            assert blas_threads() == 2
        assert inside == [1]

    def test_without_openblas_the_bytes_are_unchanged(self, tmp_path, monkeypatch, capsys):
        pinned, unpinned = tmp_path / "pinned.json", tmp_path / "unpinned.json"
        assert cli.main(["dilate", str(GOLDEN_INSTANCE), "-o", str(pinned), "--json"]) == 0
        pinned_report = capsys.readouterr().out
        monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
        with linalg._blas_threads(2):
            assert cli.main(["dilate", str(GOLDEN_INSTANCE), "-o", str(unpinned), "--json"]) == 0
        assert capsys.readouterr().out == pinned_report
        inst = parse_instance(GOLDEN_INSTANCE.read_bytes())
        assert unpinned.read_bytes() == pinned.read_bytes() == emit_dilation(inst, dilate(inst)).encode()

    def test_only_the_eigendecomposition_gets_threads(self, tmp_path, monkeypatch):
        # mults [0, 1]: block 0 has no module rows, so hermitian_eig
        # factors it; block 1 is factored through the tuple's SVD
        inst, inst_path = write_instance(tmp_path, n=2, block_dims=[2, 1], mults=[0, 1], h1=2, h2=4)
        seen = {"eigh": [], "svd": []}

        def recording(name, fn):
            return lambda *a, **kw: seen[name].append(blas_threads()) or fn(*a, **kw)

        monkeypatch.setattr(np.linalg, "eigh", recording("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "svd", recording("svd", np.linalg.svd))
        with linalg._blas_threads(2):
            assert cli.main(["dilate", str(inst_path)]) == 0
        assert seen["eigh"] and set(seen["eigh"]) == {2}
        assert seen["svd"] and set(seen["svd"]) == {1}
