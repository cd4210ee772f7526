"""Lower-order effective-field contributions and the applied field.

The nonlocal stray field needs boundary-element machinery and is out of
scope; the local substitutes here (zero, uniaxial anisotropy, Zhang-Li
spin torque) keep the role of a bounded lower-order operator.  pi_apply
and applied_field take the resolved field.pi and field.applied sections
of a config as they are: scheme.CONFIG_TABLE states their keys per kind,
and SimulationConfig.from_dict checks their values.  A config gives every
coefficient dimensionless; tests/oracles.py restates how the bundled muMAG
configs' numbers follow from SI units.
"""

import numpy as np


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
