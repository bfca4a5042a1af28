"""Pinned output bits of the dense kernels, the tensor-train register and the file writer.

Each digest is the sha256 of a kernel's outputs, as raw bytes in order, on a
fixed grid of seeded inputs, or of the bytes of a file written by
``save_circuit`` (two, in order, for the closest learn) or ``save_mps``.  A
change to one of these kernels that moves any bit of any output fails here,
so a speed-up that claims equal results has to show it.  Sides of 256 and
more round differently with the number of BLAS threads, so the digests are
computed in a child process with one thread.  They were taken with NumPy 2.4
on OpenBLAS 0.3.31 (its SkylakeX kernels); a different BLAS build or CPU
kernel may round the eigensolver paths differently.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from test_linalg import _top_case, random_hermitian

from mpslearn import backend, disentangler, learner, linalg, mps, planner, tomography

PINNED = {
    "require_hermitian": "92b409580744bad9741cdde28261916db4a931364128bb378cef204ff0e136bb",
    "top_eigenvector": "23829669fab99fdfa56c1468d47628371216ed86125f81954c9c7610ae450ff0",
    "build_rank_capped_from_factor": "0aec5b0473afecf1f306487a369632db6db63163c584feebeaf18cc8115ff306",
    "MPSBackend.rdm_factor": "11e16f4695286edd5f5dc96e2d4bee2d06fe46022219bae872e68753bd4e5c8c",
    "MPSBackend.state": "f24d18d0c562d4670fca440fcc09c2d8e68541d691687682f606010617188c0a",
    "save_circuit.exact": "44ef522afefdfe4ef5dba052511a15581fe3632909a9522eeba9e72ee4da5c54",
    "save_circuit.bounded_noise": "b4f6776652957019892ced2b62275351caefec5c9dde577a36a422897a4d8823",
    "save_circuit.bounded_noise_wide": "3a988dff2cb14d9ab503a8000eb4aaa998bc8ac36c71053bd9c4d3e28b05610c",
    "save_circuit.closest": "61b45e85e406100ece34505cf5f8d985decade6650c85f1c92e58ee30ecc9e8d",
    "save_mps": "1e39fe51129309fc4c9594cc5e73fd062d56df5f8fec39a923a58cf36e7f5639",
}


def _require_hermitian_outputs():
    rng = np.random.default_rng(2201)
    for dim in (1, 2, 5, 127, 128, 129, 257, 1024):
        a = random_hermitian(dim, rng)
        a += 1e-12 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        yield linalg.require_hermitian(a)


def _top_eigenvector_outputs():
    # a random Hermitian matrix of side 1024 takes the eigvalsh fallback, about 1 s
    kinds = ("random", "tied-top", "rank1-floor", "frobenius-edge")
    for dim in (4, 64, 256, 1024):
        for kind in kinds[1:] if dim == 1024 else kinds:
            yield linalg.top_eigenvector(_top_case(dim, kind, seed=dim))


def _factor_outputs():
    # (side, d, D**2, p, columns): k < d**p columns take the null-space completion
    rng = np.random.default_rng(2202)
    for dim, d, rank, p, k in (
        (16, 2, 4, 2, 2), (16, 2, 4, 2, 6), (81, 3, 4, 2, 3), (256, 2, 16, 4, 16),
        (256, 2, 16, 6, 16), (256, 2, 16, 6, 4),
    ):
        factor = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        dz = disentangler.build_rank_capped_from_factor(factor, d, rank, p)
        yield dz.isometry
        yield dz.selected


def _register_outputs():
    # every two-site factor, its centre moved there and back, after each compression
    rng = np.random.default_rng(2203)
    for d, D, steps in ((2, 4, ((1, 4, 2), (6, 4, 2), (2, 4, 2), (3, 3, 1))), (3, 3, ((2, 3, 1),))):
        register = backend.MPSBackend(mps.random_mps(mps.StateSpec(n=12, d=d, D=D, seed=2203)))
        for lo, y, dropped in steps:
            labels = register.sites[lo : lo + y]
            g = rng.standard_normal((d**y, d ** (y - dropped)))
            w = np.linalg.qr(g + 1j * rng.standard_normal(g.shape))[0]
            register.compress(w, labels, labels[:dropped])
            for k in range(register.n - 1):
                yield register.rdm_factor(register.sites[k : k + 2])


def _state_outputs():
    # the site tensors of the held state, cut from the centre, after each
    # compression; then those of a layered learn's extracted train
    rng = np.random.default_rng(2204)
    for d, D, steps in ((2, 4, ((1, 4, 2), (6, 4, 2), (2, 4, 2), (3, 3, 1))), (3, 3, ((2, 3, 1),))):
        register = backend.MPSBackend(mps.random_mps(mps.StateSpec(n=12, d=d, D=D, seed=2204)))
        for lo, y, dropped in steps:
            labels = register.sites[lo : lo + y]
            g = rng.standard_normal((d**y, d ** (y - dropped)))
            w = np.linalg.qr(g + 1j * rng.standard_normal(g.shape))[0]
            register.compress(w, labels, labels[:dropped])
            yield from register.state.tensors
    state = mps.random_mps(mps.StateSpec(n=24, d=2, D=3, seed=2204))
    circuit, report = learner.learn(state, 2, 3, 0.2, 0.01, seed=2204)
    assert report.M >= 2
    yield from learner.extract_mps(circuit).tensors


def _file_bytes(save, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        save(obj, path)
        return path.read_bytes()


def _file_digest(save, obj):
    return hashlib.sha256(_file_bytes(save, obj)).hexdigest()


def _learned(D, mode, seed, n=16):
    state = mps.random_mps(mps.StateSpec(n=n, d=2, D=D, seed=seed))
    return learner.learn(state, 2, D, 0.2, 0.01, mode=mode, seed=seed)[0]


def _closest_files():
    # a layered closest learn under bounded noise, of an MPS and of its vector:
    # the dense block path of both registers
    chain = mps.random_mps(mps.StateSpec(n=12, d=2, D=2, seed=2208))
    schedule = learner.LearnSchedule(2, planner.eta_closest(0.5, 2, 2, 12))
    mode = tomography.BoundedNoiseMode(seed=2208)
    for state in (chain, mps.expand(chain)):
        circuit, report = learner.learn(
            state, 2, 2, 0.5, 0.01, variant="closest", mode=mode, seed=2208, schedule=schedule
        )
        assert report.M >= 2
        yield _file_bytes(learner.save_circuit, circuit)


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _digests():
    return {
        "require_hermitian": _digest(_require_hermitian_outputs()),
        "top_eigenvector": _digest(_top_eigenvector_outputs()),
        "build_rank_capped_from_factor": _digest(_factor_outputs()),
        "MPSBackend.rdm_factor": _digest(_register_outputs()),
        "MPSBackend.state": _digest(_state_outputs()),
        "save_circuit.exact": _file_digest(learner.save_circuit, _learned(4, None, 2205)),
        "save_circuit.bounded_noise": _file_digest(
            learner.save_circuit, _learned(2, tomography.BoundedNoiseMode(seed=2206), 2206)
        ),
        # n = 64: a first layer of 16 blocks, whose marginals the learner stacks
        "save_circuit.bounded_noise_wide": _file_digest(
            learner.save_circuit, _learned(2, tomography.BoundedNoiseMode(seed=2209), 2209, n=64)
        ),
        "save_circuit.closest": hashlib.sha256(b"".join(_closest_files())).hexdigest(),
        "save_mps": _file_digest(
            mps.save_mps, mps.random_mps(mps.StateSpec(n=24, d=3, D=5, seed=2207))
        ),
    }


def test_dense_kernel_bits_are_pinned():
    threads = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import json, test_pinned_bits as t; print(json.dumps(t._digests()))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == PINNED
