"""Unitary equivalence of minimal dilations of one instance.

Any two minimal joint Stinespring representations of the same instance
are related by unitaries U1 : K1 -> K1' and U2 : K2 -> K2' that
intertwine the whole diagram: U1 S_i = S_i', U1 pi(a) = pi'(a) U1,
U2 W_i = W_i', U2 Psi(x) = Psi'(x) U1.

Both come from the matrix units.  The block span ``X_b`` of
``dilation.span_families`` spans ``pi(e^b_00) K1``, and intertwining gives
``U1 pi(e^b_pp) = pi'(e^b_p0) [U1 pi(e^b_00)] pi(e^b_0p)``, so one small
least-squares solve ``V_b X_b = X_b'`` per block fixes
``U1 = sum_{b,p} pi'(e^b_p0) V_b pi(e^b_0p)``.  On minimal data the
``Psi(f^b_r0)`` are partial isometries with orthogonal ranges summing to
K2, so ``U2 = sum_{b,r} Psi'(f^b_r0) U1 Psi(f^b_r0)*`` with no solve.  A
large residual of U1 or U2 on the full spanning families certifies that
the two data do not dilate the same instance.  W-intertwining is checked
in H2 coordinates through the recorded K2 embeddings.  All of it is
judged on the equilibrated instance, as in ``dilation.verify_dilation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .cpmaps import Instance
from .dilation import DilationData, check_shapes, minimality_defects, span_families
from .errors import InconsistentSpansError, NotMinimalError
from .linalg import DEFAULT_TOL, max_rel_residual, rel_residual, solve_lsq

__all__ = ["EquivalenceWitness", "rotate_dilation", "build_unitaries", "verify_diagram"]


@dataclass(eq=False)
class EquivalenceWitness:
    """The recovered unitaries plus the residuals of the diagram; the
    fields marked ``row``, in print order, are the residuals."""

    u1: np.ndarray = field(repr=False)  # (r1', r1)
    u2: np.ndarray = field(repr=False)  # (r2', r2)
    u1_unitarity: float = field(metadata={"row": "diagram"})
    u2_unitarity: float = field(metadata={"row": "diagram"})
    u1_S_intertwine: float = field(metadata={"row": "diagram"})
    u1_pi_intertwine: float = field(metadata={"row": "diagram"})
    u2_W_intertwine: float = field(metadata={"row": "diagram"})
    u2_psi_intertwine: float = field(metadata={"row": "diagram"})
    u1_solve_residual: float = field(metadata={"row": "solve"})
    u2_solve_residual: float = field(metadata={"row": "solve"})

    def residual_items(self) -> list[tuple[str, float]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self) if "row" in f.metadata]

    def rows(self, tol: float) -> list[tuple[str, float, str]]:
        """``(name, value, status)`` per row: ``ok`` at ``<= tol``, else ``FAIL``."""
        return [(name, v, "ok" if v <= tol else "FAIL") for name, v in self.residual_items()]

    def to_dict(self) -> dict:
        return {name: float(value) for name, value in self.residual_items()}

    def commutes(self, tol: float) -> bool:
        """Whether every diagram residual is within ``tol``: the verdict
        of ``verify_diagram``, without recomputing the residuals."""
        return all(getattr(self, f.name) <= tol
                   for f in fields(self) if f.metadata.get("row") == "diagram")


def rotate_dilation(
    data: DilationData,
    q1: np.ndarray,
    q2: np.ndarray,
    w_rotations=None,
) -> DilationData:
    """Equivalent representation in rotated coordinates.

    q1 and q2 are unitaries on the K1 and K2 coordinate spaces; the
    optional ``w_rotations`` re-bases each coisometry's rows.  The
    result represents the same instance, so recovering (q1, q2) is the
    canonical test case for ``build_unitaries``.
    """
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    if q1.shape != (data.r1, data.r1) or q2.shape != (data.r2, data.r2):
        raise ValueError("rotation shapes must match (r1, r1) and (r2, r2)")
    if w_rotations is not None:
        data = replace(data, w_ops=tuple(r @ w for r, w in zip(w_rotations, data.w_ops)))
    return replace(
        data,
        pi_action=q1 @ data.pi_action @ q1.conj().T,
        s_ops=q1 @ data.s_ops,
        psi_action=q2 @ data.psi_action @ q1.conj().T,
        k2_embed=data.k2_embed @ q2.conj().T,
    )


def _diagram_residuals(
    u1: np.ndarray,
    u2: np.ndarray,
    data_a: DilationData,
    data_b: DilationData,
) -> dict[str, float]:
    def unitarity(u: np.ndarray) -> float:
        return max(rel_residual(u.conj().T @ u, np.eye(u.shape[1], dtype=complex)),
                   rel_residual(u @ u.conj().T, np.eye(u.shape[0], dtype=complex)))

    res = {"u1_unitarity": unitarity(u1), "u2_unitarity": unitarity(u2)}
    res["u1_S_intertwine"] = max_rel_residual(u1 @ data_a.s_ops, data_b.s_ops)
    res["u1_pi_intertwine"] = max_rel_residual(u1 @ data_a.pi_action, data_b.pi_action @ u1)
    res["u2_psi_intertwine"] = max_rel_residual(u2 @ data_a.psi_action, data_b.psi_action @ u1)

    # U2 W_i = W_i' read in H2 coordinates: conjugating the range
    # projector W_i* W_i by the embedded U2 must give W_i'* W_i'.
    u2_h2 = data_b.k2_embed @ u2 @ data_a.k2_embed.conj().T  # (h2, h2)
    res["u2_W_intertwine"] = max_rel_residual(
        u2_h2 @ data_a.range_projectors(), data_b.range_projectors()
    )
    return res


def build_unitaries(
    inst: Instance,
    data_a: DilationData,
    data_b: DilationData,
    tol: float = DEFAULT_TOL,
) -> EquivalenceWitness:
    """Recover the unitaries relating two minimal dilations.

    One solve ``V_b X_b = X_b'`` per algebra block, then U1 and U2 in
    closed form (module docstring).  The solve residuals are
    ``|U X - X'|_F / max(|X'|_F, 1)`` over the full families
    ``X = [pi(e_alpha) S_i e_beta]`` for U1 and ``[Psi(f_gamma) S_i e_beta]``
    for U2.  Raises NotMinimalError when either input fails the span
    conditions and InconsistentSpansError when a solve residual exceeds
    ``tol`` (the two data do not dilate the same instance).
    """
    check_shapes(inst, data_a)
    check_shapes(inst, data_b)
    c = inst.cp.slot_scales()
    data_a, data_b = data_a.slots_scaled(1.0 / c), data_b.slots_scaled(1.0 / c)

    _, pi_s_a, psi_s_a, spans_a = span_families(inst, data_a)
    _, pi_s_b, psi_s_b, spans_b = span_families(inst, data_b)
    for label, data, spans in (("first", data_a, spans_a), ("second", data_b, spans_b)):
        defects = minimality_defects(inst, data, spans)
        if any(defects):
            why = "span rank defect" if min(defects) > 0 else "pi or Psi is not a *-representation"
            raise NotMinimalError(f"{label} dilation is not minimal ({why})")

    # U1 = sum_{b,p} pi'(e^b_p0) V_b pi(e^b_0p)
    u1, off = np.zeros((data_b.r1, data_a.r1), dtype=complex), 0
    for d, x_a, x_b in zip(inst.algebra.block_dims, spans_a, spans_b):
        v_t, _ = solve_lsq(x_a.T, x_b.T)
        cols_b = data_b.pi_action[off : off + d * d : d]  # pi'(e^b_p0)
        moved = v_t.T @ data_a.pi_action[off : off + d]   # V_b pi(e^b_0p)
        u1 += np.hstack(cols_b) @ np.vstack(moved)
        off += d * d
    res1 = rel_residual(u1 @ pi_s_a, pi_s_b)
    if res1 > tol:
        raise InconsistentSpansError(
            f"K1 spanning families do not match (residual {res1:.3e} > {tol:.1e}); "
            "the two data do not dilate the same instance"
        )

    # U2 = sum_{b,r} Psi'(f^b_r0) U1 Psi(f^b_r0)*
    gens = [g for g, (_, _, q) in enumerate(inst.module.basis_labels) if q == 0]
    u2 = np.hstack(data_b.psi_action[gens] @ u1) @ np.hstack(data_a.psi_action[gens]).conj().T
    res2 = rel_residual(u2 @ psi_s_a, psi_s_b)
    if res2 > tol:
        raise InconsistentSpansError(
            f"K2 spanning families do not match (residual {res2:.3e} > {tol:.1e})"
        )

    res = _diagram_residuals(u1, u2, data_a, data_b)
    return EquivalenceWitness(
        u1=u1,
        u2=u2,
        u1_solve_residual=res1,
        u2_solve_residual=res2,
        **res,
    )


def verify_diagram(
    witness: EquivalenceWitness,
    inst: Instance,
    data_a: DilationData,
    data_b: DilationData,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Recompute all six diagram residuals from the witness unitaries
    and return whether every one is within ``tol``."""
    check_shapes(inst, data_a)
    check_shapes(inst, data_b)
    c = inst.cp.slot_scales()
    data_a, data_b = data_a.slots_scaled(1.0 / c), data_b.slots_scaled(1.0 / c)
    res = _diagram_residuals(witness.u1, witness.u2, data_a, data_b)
    return replace(witness, **res).commutes(tol)
