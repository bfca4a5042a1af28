"""File fuzzer: every leaf of a saved circuit or state file, mutated.

A mutated file must either load or raise the loader's typed error
(``MalformedCircuit``, ``InvalidSpec``).  A circuit that loads must walk
backward, densely and as a tensor train, or raise a ``TooLarge``: no other
exception may escape.
"""
import json

import pytest

from mpslearn import errors, learner, mps

# generic replacements for any leaf, then per-kind ones
VALUES = (None, True, False, 0, 1, -1, 2, 3, 2**31, 10**30, 0.5, float("nan"), float("inf"), "",
          "x", [], {})


def _mutations(leaf):
    yield from VALUES
    if isinstance(leaf, str):
        yield from (leaf[:-4], leaf + "AAAA", "A" * len(leaf), leaf.swapcase())
    elif isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
        yield from (leaf + 1, leaf - 1, 2 * leaf, -leaf)


def _leaves(node, path=()):
    """Paths to every scalar and every empty container of a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, path, value):
    copy = json.loads(json.dumps(doc))
    _get(copy, path[:-1])[path[-1]] = value
    return copy


def _fuzz(tmp_path, saved, load, refused, use):
    """Every escape, as ``(leaf path, value, exception)``, over all mutations."""
    doc = json.loads(saved.read_text())
    escapes, path = [], tmp_path / "mutated.json"
    for leaf in _leaves(doc):
        for value in _mutations(_get(doc, leaf)):
            path.write_text(json.dumps(_mutated(doc, leaf, value)))
            try:
                loaded = load(path)
            except refused:
                continue
            except Exception as exc:  # an escape from the loader
                escapes.append((leaf, value, repr(exc)))
                continue
            for walk in use:
                try:
                    walk(loaded)
                except errors.TooLarge:
                    pass
                except Exception as exc:  # an escape from a walk of a loaded file
                    escapes.append((leaf, value, f"{walk.__name__}: {exc!r}"))
    return escapes


@pytest.mark.parametrize("n, d, D, variant", [(8, 2, 2, "exact"), (4, 2, 2, "exact"), (7, 3, 2, "closest")],
                         ids=["layered", "trivial", "closest-d3"])
def test_no_mutated_circuit_file_escapes_the_typed_errors(tmp_path, n, d, D, variant):
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, seed=50 + n))
    circuit, _ = learner.learn(state, d, D, 0.2, 0.01, variant=variant, seed=50)
    saved = tmp_path / "circuit.json"
    learner.save_circuit(circuit, saved)
    walks = (learner.reconstruct_state, learner.extract_mps)
    assert _fuzz(tmp_path, saved, learner.load_circuit, errors.MalformedCircuit, walks) == []


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_no_mutated_state_file_escapes_invalid_spec(tmp_path, boundary):
    saved = tmp_path / "state.json"
    mps.save_mps(mps.random_mps(mps.StateSpec(n=5, d=2, D=2, boundary=boundary, seed=51)), saved)
    assert _fuzz(tmp_path, saved, mps.load_mps, errors.InvalidSpec, ()) == []
