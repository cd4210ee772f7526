"""Lower-order effective-field contributions and SI nondimensionalization.

The nonlocal stray field needs boundary-element machinery and is out of
scope; the local substitutes here (zero, uniaxial anisotropy, Zhang-Li
spin torque) keep the role of a bounded lower-order operator.  pi_apply
and applied_field take the resolved field.pi and field.applied sections
of a config as they are: scheme.CONFIG_TABLE states their keys per kind,
and SimulationConfig.from_dict checks their values.
"""

from dataclasses import dataclass

import numpy as np

MU0 = 4e-7 * np.pi

# Second muMAG #4 switching field, mu0 * H_ext in millitesla.
MUMAG4_FIELD_MT = (-35.5, -6.3, 0.0)


class FieldConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SIParameters:
    """Physical material and discretization parameters (SI units)."""

    A: float          # exchange constant, J/m
    Ms: float         # saturation magnetization, A/m
    mu0: float        # vacuum permeability, N/A^2
    gamma0: float     # gyromagnetic ratio, N/A^2
    L: float          # spatial rescaling length, m
    dt_phys: float    # physical time step, s
    dx_phys: float    # physical mesh size, m

    def __post_init__(self):
        for name in ("A", "Ms", "mu0", "gamma0", "L", "dt_phys", "dx_phys"):
            if getattr(self, name) <= 0:
                raise FieldConfigError(f"SI parameter {name} must be positive")


def mumag4_parameters(dt_phys=0.1e-12, dx_phys=5e-9):
    """Permalloy parameters of the muMAG #4 configuration."""
    return SIParameters(A=1.3e-11, Ms=8.0e5, mu0=MU0, gamma0=2.21e5, L=1e-9,
                        dt_phys=dt_phys, dx_phys=dx_phys)


def nondimensionalize(si):
    """Dimensionless exchange length squared, time step and mesh size.

    ell_ex2 = 2A / (mu0 Ms^2 L^2), k = gamma0 Ms dt, h = dx / L.
    """
    return {
        "ell_ex2": 2.0 * si.A / (si.mu0 * si.Ms**2 * si.L**2),
        "k": si.gamma0 * si.Ms * si.dt_phys,
        "h": si.dx_phys / si.L,
    }


def applied_field_mumag4(mu0_H_mT=MUMAG4_FIELD_MT, mu0=MU0):
    """Dimensionless applied field from mu0*H_ext given in mT.

    Convention: divide by mu0 only (A/m), matching the reported value
    (-28250, -5013.4, 0) for the second muMAG #4 field.
    """
    return np.asarray(mu0_H_mT, dtype=np.float64) * 1e-3 / mu0


def mumag5_spin_velocity(gamma0=2.21e5, Ms=8.0e5, L=1e-9):
    """Dimensionless Zhang-Li spin velocity of muMAG #5: (72.17, 0, 0)/(gamma0 Ms L)."""
    return np.array([72.17, 0.0, 0.0]) / (gamma0 * Ms * L)


def nodal_directional_derivative(mesh, m, u):
    """(u . grad) m recovered at nodes by volume-weighted element averaging."""
    vol, grad = mesh.element_geometry()
    mloc = m[mesh.tets]                                   # (M, 4, 3)
    grad_m = np.einsum("ead,eac->edc", grad, mloc)        # (M, 3, 3): d/dx_d of comp c
    elem_val = np.einsum("d,edc->ec", np.asarray(u, dtype=np.float64), grad_m)
    # summed over local vertex 0 of every element, then vertex 1, 2 and 3
    nodes = mesh.tets.T.ravel()
    weighted = np.tile(elem_val * vol[:, None], (4, 1))
    num = np.stack([np.bincount(nodes, weighted[:, c], mesh.N) for c in range(3)], axis=1)
    return num / np.bincount(nodes, np.tile(vol, 4), mesh.N)[:, None]


def pi_apply(pi, mesh, m):
    """Nodal values of the lower-order contribution pi(m) of the resolved
    field.pi section pi: zero, uniaxial anisotropy, or Zhang-Li."""
    m = np.asarray(m, dtype=np.float64)
    if pi["kind"] == "zero":
        return np.zeros_like(m)
    if pi["kind"] == "uniaxial":
        axis = np.asarray(pi["axis"], dtype=np.float64)
        return pi["strength"] * np.outer(m @ axis, axis)
    adv = nodal_directional_derivative(mesh, m, pi["u"])  # zhang_li
    return np.cross(m, adv) + pi["beta_zl"] * adv


def applied_field(applied, mesh):
    """Nodal values of the applied field f of the resolved field.applied
    section applied: a constant vector, or the academic expression
    10(sin x1, cos x1, 0).  Neither depends on time."""
    if applied["kind"] == "constant":
        return np.tile(np.asarray(applied["value"], dtype=np.float64), (mesh.N, 1))
    x1 = mesh.nodes[:, 0]
    out = np.zeros((mesh.N, 3))
    out[:, 0] = 10.0 * np.sin(x1)
    out[:, 1] = 10.0 * np.cos(x1)
    return out
