"""Dense complex linear algebra for small qubit registers.

Everything in the simulator lives on at most three qubits, so states and
operators are plain dense numpy arrays: density matrices with physicality
checks, and batched evolution, partial traces and Pauli expectation values
on stacks of them.

Conventions used package-wide:

* qubit 0 is the leftmost tensor factor, so the basis index of
  ``|b0 b1 ... b_{n-1}>`` is the integer with ``b0`` as its most
  significant bit;
* normalization factors are always explicit; every state is normalized;
* every :class:`DensityMatrix` is validated on construction (Hermitian
  within 1e-10, unit trace within 1e-10, eigenvalues >= -1e-9) by
  :func:`validate_density`, which also checks whole stacks of states and
  certifies positivity by one Cholesky factorization, falling back on
  ``eigvalsh`` only to decide and report a failure;
* an operator acts only on its own qubit axes, through one ``einsum``
  contraction (``_apply_on``), and is never lifted to the full register:
  states evolve only through :func:`evolve`, which applies it to raw
  ``(..., 2^n, 2^n)`` stacks, and the pulse compiler and the correction
  table compose their unitaries with it;
* every product, complex or the decay fit's real dot products, is an
  ``einsum`` contraction without ``optimize``, so none reaches BLAS and no
  output bit depends on the BLAS kernel: the package calls LAPACK only for
  the positivity certificate (a pass/fail), and BLAS never.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericalInvariantError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_SLACK = 1e-9

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"I": IDENTITY_2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# Two-qubit gates act on adjacent factors (control = leftmost of the pair).
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def rotation_x(angle: float) -> np.ndarray:
    """exp(-i*angle*X/2)."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=complex)


def rotation_y(angle: float) -> np.ndarray:
    """exp(-i*angle*Y/2)."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def validate_density(
    matrices: np.ndarray,
    hermiticity_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    psd_slack: float = PSD_SLACK,
) -> np.ndarray:
    """The density-matrix rule (Hermitian, unit trace, eigenvalues >= -psd_slack) on one
    matrix or a ``(..., d, d)`` stack; NaN fails every guard.  A violation raises
    with ``index``, the position of the worst matrix (the first NaN one, if any) in
    the stack's leading axes.

    Positivity is certified by one Cholesky factorization of H + psd_slack·I for
    the whole stack, which completes exactly when every member is positive definite
    and is backward stable (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 10).  Only when it fails (or psd_slack is not finite) does one
    ``eigvalsh`` call decide and report.

    Returns the Hermitian part H = (M + M†)/2, which damps floating-point drift;
    the checks run first so genuine violations are not silently absorbed.

    A stack that passes pays one reduction per rule: each guard takes one global
    max, and the per-matrix maxima that name the failing ``index`` are formed
    only on failure.
    """
    m = np.asarray(matrices, dtype=complex)
    batch, dim = m.shape[:-2], m.shape[-1]
    dagger = m.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the guard below
        asymmetry = np.abs(m - dagger)
    deviation = float(asymmetry.max())
    if not deviation <= hermiticity_tol:
        message = f"matrix deviates from Hermitian by {deviation:.3e} (tol {hermiticity_tol:.1e})"
        raise _violation(message, np.argmax(asymmetry.max(axis=(-2, -1))), batch)
    trace_devs = np.abs(m.trace(axis1=-2, axis2=-1) - 1.0)
    trace_dev = float(trace_devs.max())
    if not trace_dev <= trace_tol:
        raise _violation(f"trace deviates from 1 by {trace_dev:.3e}", np.argmax(trace_devs), batch)
    # A fresh C-ordered sum, halved in place by complex division, not by x * 0.5:
    # (-0.0 + 1j) / 2 is 0.5j, but (-0.0 + 1j) * 0.5 is -0.0 + 0.5j.
    hermitian = np.add(m, dagger, order="C")
    hermitian /= 2.0
    del dagger, asymmetry  # not alive beside the certificate's copy and factor
    # The guards above have failed any NaN or inf entry: Cholesky factors NaN without raising.
    if math.isfinite(psd_slack):
        shifted = hermitian.copy()
        shifted.reshape(batch + (dim * dim,))[..., :: dim + 1] += psd_slack
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            pass  # some member is not certified; eigvalsh decides and names the worst
        else:
            return hermitian
    eigmins = np.linalg.eigvalsh(hermitian).min(axis=-1)
    eigmin = float(eigmins.min())
    if not eigmin >= -psd_slack:
        raise _violation(f"eigenvalue {eigmin:.3e} < -{psd_slack:.1e}", np.argmin(eigmins), batch)
    return hermitian


def _violation(message: str, worst: np.intp, batch: tuple[int, ...]) -> NumericalInvariantError:
    """The error of a failed check, located at flat position ``worst`` of a stack's
    leading axes of shape ``batch``."""
    error = NumericalInvariantError(message)
    error.index = tuple(int(i) for i in np.unravel_index(worst, batch))
    return error


def _apply_on(op: np.ndarray, tensor: np.ndarray, axes: tuple[int, ...], m: int) -> np.ndarray:
    """A ``(..., 2^k, 2^k)`` operator applied to k of the last ``m`` axes of a
    ``(..., 2, ..., 2)`` tensor, ``axes[0]`` taking the operator's leftmost factor,
    by one ``einsum``; the other axes stay in place and leading axes broadcast."""
    new = {a: m + i for i, a in enumerate(axes)}
    op = op.reshape(op.shape[:-2] + (2,) * (2 * len(axes)))
    subs = list(range(m))
    return np.einsum(op, [..., *new.values(), *axes], tensor, [..., *subs], [..., *(new.get(q, q) for q in subs)])


def evolve(stack: np.ndarray, elements, targets: tuple[int, ...]) -> np.ndarray:
    """sum_i A_i rho A_i† on ``targets`` for every rho of a ``(..., 2^n, 2^n)`` stack,
    unvalidated.  A unitary is a one-element set; terms add up in element order.

    An element may carry leading batch axes, which must equal the stack's
    leading axes and index them (a sweep's relaxation gives each delay its own
    channel this way); a zero element adds exact zeros, so zeros in a set
    leave its result unchanged.  Raises ``ValueError`` on bad targets or
    batch axes."""
    stack = np.asarray(stack, dtype=complex)
    n, k = stack.shape[-1].bit_length() - 1, len(targets)
    if len(set(targets)) != k or not all(0 <= t < n for t in targets):
        raise ValueError(f"targets {targets} invalid for a {n}-qubit register")
    tens = stack.reshape(stack.shape[:-2] + (2,) * (2 * n))
    cols = tuple(n + t for t in targets)
    out = np.zeros_like(tens)
    for a in elements:
        a = np.asarray(a, dtype=complex)
        if a.shape[:-2] != stack.shape[:-2][: a.ndim - 2]:
            raise ValueError(f"element batch axes {a.shape[:-2]} are not the leading axes of a {stack.shape} stack")
        if a.ndim > 2:
            a = a.reshape(a.shape[:-2] + (1,) * (stack.ndim - a.ndim) + a.shape[-2:])
        # A rho A†: A on the row axes of the targets, then conj(A) on their column axes.
        out += _apply_on(a.conj(), _apply_on(a, tens, targets, 2 * n), cols, 2 * n)
    return out.reshape(stack.shape)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one positive-semidefinite Hermitian operator on n qubits."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.num_qubits
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not fit {self.num_qubits} qubits")
        validate_density(m)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def reduce_stack(stack: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Partial trace of every matrix of a ``(..., 2^n, 2^n)`` stack onto ``keep``."""
    keep = sorted(keep)
    n = stack.shape[-1].bit_length() - 1
    if not keep or len(set(keep)) != len(keep) or any(q < 0 or q >= n for q in keep):
        raise ValueError(f"invalid qubit indices {keep} for {n}-qubit state")
    tens = stack.reshape(stack.shape[:-2] + (2,) * (2 * n))
    # Row subscript q, column subscript n+q; tracing a qubit identifies the pair.
    row = list(range(n))
    col = [q if q not in keep else n + q for q in range(n)]
    out_subs = [row[q] for q in keep] + [col[q] for q in keep]
    dim = 2 ** len(keep)
    return np.einsum(tens, [..., *row, *col], [..., *out_subs]).reshape(stack.shape[:-2] + (dim, dim))


def real_expectations(stack: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """tr(rho * P) for every rho of a ``(..., d, d)`` stack and every P of an
    ``(m, d, d)`` stack of Hermitian operators, as a real ``(..., m)`` array.

    The imaginary part is dropped: for a Pauli operator and a 2x2 Hermitian part
    as ``validate_density`` returns (M + M†)/2, it is exactly 0.0.
    """
    return np.einsum("...ij,mji->...m", stack, operators).real
