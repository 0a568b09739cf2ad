"""Seeded random generators for states, unitaries, channels, and encodings.

Channels are sampled by carving Kraus blocks out of Haar-random isometries
into a dilated space, which covers the CPTP set with full measure. Mixed
states come from partial traces of larger pure states. Every function takes
an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel
from .errors import ContractViolation


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector of the given dimension."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state: partial trace of a pure state on dim x rank."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: the square :func:`haar_isometry`."""
    return haar_isometry(dim, dim, rng)


def haar_isometry(dim_out: int, dim_in: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (dim_out x dim_in) via phase-corrected QR of a Ginibre matrix."""
    if dim_out < dim_in:
        raise ContractViolation("isometry needs dim_out >= dim_in")
    g = rng.standard_normal((dim_out, dim_in)) + 1j * rng.standard_normal((dim_out, dim_in))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_channel(
    dim_in: int,
    rng: np.random.Generator,
    dim_out: int | None = None,
    kraus_count: int = 2,
) -> KrausChannel:
    """Random CPTP map via a Haar isometry into a dilated output space.

    ``kraus_count`` is raised to ceil(dim_in / dim_out) when needed so the
    dilation can hold an isometry.
    """
    dim_out = dim_in if dim_out is None else dim_out
    kraus_count = max(kraus_count, -(-dim_in // dim_out))
    v = haar_isometry(dim_out * kraus_count, dim_in, rng)
    ops = [v[k * dim_out : (k + 1) * dim_out, :] for k in range(kraus_count)]
    return KrausChannel(ops)


def random_isometric_encoding(
    d_s: int, d_f: int, d_r: int, rng: np.random.Generator, full_rank: bool = True
):
    """Random encoding with a Haar basis and a random cofactor state."""
    from .codes import IsometricEncoding, SubsystemDecomposition

    d_p = d_s * d_f + d_r
    dec = SubsystemDecomposition(d_s, d_f, d_r, haar_unitary(d_p, rng))
    rank = d_f if full_rank else int(rng.integers(1, d_f + 1))
    return IsometricEncoding(dec, random_density(d_f, rng, rank=rank))


def random_preserved_system(
    d_s: int,
    d_f: int,
    d_r: int,
    rng: np.random.Generator,
    d_g: int | None = None,
    kraus_count: int = 2,
    cofactor_channel: KrausChannel | None = None,
):
    """Random (encoding, channel) pair with the code preserved by design.

    The channel rotates the logical factor by a Haar unitary, pushes the
    cofactor through a random CPTP map into a possibly different cofactor
    space embedded by a Haar isometry, and routes the remainder to a fixed
    image state to stay trace preserving. Returns (encoding, channel).
    """
    encoding = random_isometric_encoding(d_s, d_f, d_r, rng)
    d_p = encoding.dim_physical
    if cofactor_channel is not None:
        d_g = cofactor_channel.dim_out
    elif d_g is None:
        d_g = d_f
    if d_s * d_g > d_p:
        raise ContractViolation("image cofactor does not fit the physical space")
    if cofactor_channel is None:
        cofactor_channel = random_channel(d_f, rng, dim_out=d_g, kraus_count=kraus_count)
    v_s = haar_unitary(d_s, rng)
    w = haar_isometry(d_p, d_s * d_g, rng)
    u1 = encoding.decomposition.block_columns
    ops = [w @ np.kron(v_s, b) @ u1.conj().T for b in cofactor_channel.kraus]
    if d_r:
        target = w[:, 0]
        rest = encoding.decomposition.basis[:, d_s * d_f :]
        ops.extend(np.outer(target, rest[:, c].conj()) for c in range(d_r))
    return encoding, KrausChannel(ops)
