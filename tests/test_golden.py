"""CLI output bytes pinned by sha256 digests recorded before the
serialization rewrite (per-cell ``repr`` loops and the pure-Python indented
``json`` encoder), so the bulk writers are checked against the old bytes and
not only against themselves.

Every case runs on one fixed-seed diagonal ramp (or Laplacian) instance.
Only files whose numbers come from elementwise arithmetic are pinned: files
holding BLAS reductions (norms, means, sine synthesis by a matrix product)
may differ in the last bit between BLAS builds.
"""

import hashlib

import pytest

from ophp.cli import main

EXAMPLE = ["--dim", "12", "--seed", "3"]

# name -> (argv after the subcommand, {file: sha256 of its bytes})
CASES = {
    "example-1": (
        ["example", "--which", "1", *EXAMPLE],
        {
            "config.json": "0813213b98ee3ca73193a59229eca2879c5c1718d6460acca19ba25f5271a7cd",
            "expected.json": "4f9e72d8e99b949ce0a93d479112faedf59ad1484e0b233812ebfd12cda761cd",
            "operator.json": "8837801de9eec79dfcfc5c29057318529a109e192417a7e8883e8b989b0a3bc8",
            "sigma_u.json": "bcdfdc5317dc57b1f74da1a1963bc4ff43acb399ae693aab5de5bc1c7036ee68",
            "sigma_v.json": "aa0e0e0aa1a6032413bec0a125feb12189c88c710fe717fcd3b932b1e1cb7a9c",
            "x.csv": "187980028b0819cc44bafdb1403f56d9565752835514d4067ac31f9eb70c1cdb",
        },
    ),
    "example-2": (
        ["example", "--which", "2", *EXAMPLE],
        {
            "config.json": "a3ab8c212bf3a0ad13498ff6e2e2f87a8388507580491e8977f392ac99741c6c",
            "expected.json": "76fb535a039221c8dda4b06a4ed86d9f0e2b72c1cddc95012104b333a2053c00",
            "operator.json": "e57daca8e2e9de19c713f5c8c6ed320f9d96503f0d1310f9dfcbae1e0d28a01d",
        },
    ),
    "filter": (
        ["filter", "--config", "{ramp}/config.json"],
        {
            "residual.csv": "c09854c6bcd41380674f82c7f38934ceb44b9a6589b39327380f066c939971e8",
            "trend.csv": "4321ef258a4036faf140c89dbf5535d8cdc87981ac37140ad7686325b83d48e1",
        },
    ),
    "optimal-b": (
        ["optimal-b", "--config", "{ramp}/config.json"],
        {
            "bhat.json": "7bd36ef62c6b859a53fde34b66ad508c6a9f2232aee383bb4ec582b2480e198a",
        },
    ),
    # n = 1 from the config's decay exponents, then the explicit index 0
    # (the model's own covariances, null component included) and 2.
    "scale": (
        ["scale", "--config", "{ramp}/config.json"],
        {
            "scale.json": "50739c7fb303011f0dcfbde31307b7d6cf2f70e198534ab69790088613b8562a",
        },
    ),
    "scale-n0": (
        ["scale", "--config", "{ramp}/config.json", "--scale-n", "0"],
        {
            "scale.json": "f226cd64e640fb79b540279ca364a2b58decaeac7ab8c73274f6ce77bb288634",
        },
    ),
    "scale-n2": (
        ["scale", "--config", "{ramp}/config.json", "--scale-n", "2"],
        {
            "scale.json": "03a6c7f909a864bb94cf2a1cf4ebe238ffa6e9076638d7648105d92257cf3d50",
        },
    ),
    "simulate": (
        ["simulate", "--config", "{ramp}/config.json", "--count", "300", "--seed", "5"],
        {
            "samples.csv": "c3b343605b850676811a0fd29d76a6ea16a6e936455bf81bacc34228de981bae",
        },
    ),
}


def run_case(name, tmp_path):
    """Run one case (after the ramp example it reads) and return its digests."""
    ramp = tmp_path / "ramp"
    if not ramp.exists():
        assert main(["example", "--which", "1", *EXAMPLE, "--out", str(ramp)]) == 0
    argv, pinned = CASES[name]
    out = tmp_path / name
    argv = [a.format(ramp=ramp) for a in argv]
    assert main([*argv, "--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in pinned}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path):
    assert run_case(name, tmp_path) == CASES[name][1]
