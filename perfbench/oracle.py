"""Independent spectra of the kicked Floquet maps of a sweep config.

run.py starts this script once per sweep-L4 run, after the timed samples,
and checks every sample's star eigenvalues against what it writes:

    python3 perfbench/oracle.py CONFIG.json OUT.json

For each (h, eta) grid point, in the order of `opentc sweep`, it takes H, D
and M_z from `opentc.xy.NumericGenerator` and builds the rest itself: the
generator -i[H, rho] + [M_z, rho D] + [D^dag rho, M_z] as a matrix with
numpy's kron, exp(L T) with scipy's expm, the kick U_K = exp(-i (pi + eta)
M_z / 2), and every eigenvalue of U_K exp(L T) U_K^dag with numpy's eigvals.
So it shares none of the dense path under test: `NumericGenerator.matrix`,
`floquet.matrix_exp`, `spectral.decompose` and `floquet.find_star`.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import scipy.linalg

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from opentc import experiments, xy  # noqa: E402


def floquet_eigenvalues(cfg, h: float, eta: float) -> np.ndarray:
    params = xy.XYParams(j=cfg.j, gamma=cfg.resolved_gamma(h), h=h,
                         length=cfg.length)
    bath = xy.BathSpec(kappa0=cfg.kappa0 * cfg.j, beta=cfg.beta)
    gen = xy.NumericGenerator(params, bath)
    hm, d, z = gen.hamiltonian, gen.dissipator, gen.mz_diag
    eye = np.eye(hm.shape[0])
    mz = np.diag(z)
    d_dag = d.conj().T
    # row-major vectorization: vec(A rho B) = kron(A, B^T) vec(rho)
    lmat = (-1j * (np.kron(hm, eye) - np.kron(eye, hm.T))
            + np.kron(mz, d.T) - np.kron(eye, (d @ mz).T)
            + np.kron(d_dag, mz) - np.kron(mz @ d_dag, eye))
    prop = scipy.linalg.expm(cfg.period * lmat)
    u = np.exp(-0.5j * (np.pi + eta) * z)
    kick = (u[:, None] * u.conj()[None, :]).reshape(-1)
    return np.linalg.eigvals(kick[:, None] * prop)


def main() -> int:
    cfg_path, out_path = sys.argv[1:3]
    cfg = experiments.load_config(cfg_path)
    points = []
    for h in cfg.h_grid:
        for eta in cfg.eta_grid:
            w = floquet_eigenvalues(cfg, h, eta)
            points.append({"h": h, "eta": eta, "re": w.real.tolist(),
                           "im": w.imag.tolist()})
    with open(out_path, "w") as fh:
        json.dump({"period": cfg.period, "order": cfg.order,
                   "points": points}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
