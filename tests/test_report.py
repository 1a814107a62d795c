"""The report format, byte for byte: every CSV and JSON sidecar that the
reports write, built from literal values."""

import numpy as np

from gmclab import estimators as est
from gmclab import measure as ms


def written(path):
    with open(path, newline="") as fh:
        csv_text = fh.read()
    with open(str(path) + ".json") as fh:
        return csv_text, fh.read()


def test_scaling_report_bytes(tmp_path):
    rep = est.ScalingReport(
        rows=[est.MomentRow(p=2, c=0.1, moment=1e-300,
                            se=0.30000000000000004, flagged=True),
              est.MomentRow(p=0.5, c=0.125, moment=1.5, se=2.5e-17)],
        zeta_hat={2: (1.5, 0.25, 0.99), 0.5: (0.5625, 0.0, 1.0)},
        zeta_analytic={2: 1.5, 0.5: 0.5625}, scale_range=(0.1, 0.125),
        meta={"seed": 7, "regions": "boxes"})
    rep.write(tmp_path / "zeta.csv")
    assert written(tmp_path / "zeta.csv") == (
        "p,c,moment,se,flagged\r\n"
        "2,0.1,1e-300,0.30000000000000004,1\r\n"
        "0.5,0.125,1.5,2.5e-17,0\r\n",
        '{\n'
        '  "zeta_hat": {\n'
        '    "2": [\n      1.5,\n      0.25,\n      0.99\n    ],\n'
        '    "0.5": [\n      0.5625,\n      0.0,\n      1.0\n    ]\n'
        '  },\n'
        '  "zeta_analytic": {\n    "2": 1.5,\n    "0.5": 0.5625\n  },\n'
        '  "scale_range": [\n    0.1,\n    0.125\n  ],\n'
        '  "seed": 7,\n'
        '  "regions": "boxes"\n'
        '}')


def test_degeneracy_report_bytes(tmp_path):
    rep = est.DegeneracyReport(
        fits=[est.DegeneracyFit(lam2=0.5, alpha=0.5, exponent=-1e-300,
                                exponent_se=0.1, predicted=0.0,
                                drift=0.30000000000000004, plateau=True),
              est.DegeneracyFit(lam2=2.5, alpha=0.5, exponent=0.1875,
                                exponent_se=1e-5, predicted=0.1875,
                                drift=0.5, plateau=False)],
        epsilons=(0.0625, 0.03125), meta={"seed": 3, "replicas": 2})
    rep.write(tmp_path / "deg.csv")
    assert written(tmp_path / "deg.csv") == (
        "lam2,alpha,exponent,exponent_se,predicted,drift,plateau\r\n"
        "0.5,0.5,-1e-300,0.1,0.0,0.30000000000000004,1\r\n"
        "2.5,0.5,0.1875,1e-05,0.1875,0.5,0\r\n",
        '{\n  "epsilons": [\n    0.0625,\n    0.03125\n  ],\n'
        '  "seed": 3,\n  "replicas": 2\n}')


def test_dissipation_report_bytes(tmp_path):
    rep = est.DissipationReport(
        radii=(0.5, 0.25), variances=(0.1, np.float64(1e-300)),
        variance_ses=(0.30000000000000004, 2.0), means=(1.0, 0.75),
        mean_ses=(1e-05, 0.125), slope=0.5, slope_se=0.1,
        intercept=-0.25, skew_z=(-1.5, 3.0), meta={"replicas": 2})
    rep.write(tmp_path / "diss.csv")
    assert written(tmp_path / "diss.csv") == (
        "l,var_ln_eps,var_se,mean_eps,mean_se,skew_z\r\n"
        "0.5,0.1,0.30000000000000004,1.0,1e-05,-1.5\r\n"
        "0.25,1e-300,2.0,0.75,0.125,3.0\r\n",
        '{\n  "slope": 0.5,\n  "slope_se": 0.1,\n  "intercept": -0.25,\n'
        '  "replicas": 2\n}')


def test_mrw_and_dissipation_sample_bytes(tmp_path):
    ms.write_mrw_csv(tmp_path / "mrw.csv", np.array([0.5, 1.0]),
                     [np.array([0.1, -1e-300]), np.array([2.0, 0.0])])
    ms.write_dissipation_csv(tmp_path / "eps.csv",
                             {0.5: [1.5, 1e-300], 0.25: [0.1]}, 2.0)
    with open(tmp_path / "mrw.csv", newline="") as fh:
        assert fh.read() == ("replica,t,X\r\n0,0.5,0.1\r\n0,1.0,-1e-300\r\n"
                             "1,0.5,2.0\r\n1,1.0,0.0\r\n")
    with open(tmp_path / "eps.csv", newline="") as fh:
        assert fh.read() == ("l,replica,eps_l,mean_eps\r\n0.5,0,1.5,2.0\r\n"
                             "0.5,1,1e-300,2.0\r\n0.25,0,0.1,2.0\r\n")
