"""The shared host mechanisms: every name registry and the atomic writer.

All six registries — kernel, topology, execution backend, adaptive
profile, workload, point function — are one :class:`repro.util.Registry`,
so one parametrized suite pins their common rules: the unknown-name
error (a ``KeyError`` *and* a ``ValueError`` naming the kind and the
choices), duplicate and empty names rejected, and re-registering the
same object a no-op.
"""

from __future__ import annotations

import fnmatch
import json
import os

import pytest

from repro.apps.harness import WORKLOADS
from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.scheduler import KERNELS
from repro.exp import (
    ADAPTIVE_PROFILES,
    BACKENDS,
    POINT_FUNCTIONS,
    make_backend,
    resolve,
)
from repro.network.topology import TOPOLOGIES, make_topology
from repro.util import Registry, UnknownNameError, atomic_write_text

#: (registry, its kind, a built-in name, the public lookup path).
CASES = {
    "kernel": (KERNELS, "batch",
               lambda name: Ultracomputer(MachineConfig(n_pes=4, kernel=name))),
    "topology": (TOPOLOGIES, "omega", lambda name: make_topology(name, 16)),
    "backend": (BACKENDS, "pool", make_backend),
    "adaptive profile": (ADAPTIVE_PROFILES, "fig7.simulated",
                         ADAPTIVE_PROFILES.__getitem__),
    "workload": (WORKLOADS, "faa-counter", WORKLOADS.__getitem__),
    "point function": (POINT_FUNCTIONS, "debug.echo", resolve),
}


@pytest.fixture(params=sorted(CASES))
def case(request, monkeypatch):
    """One registry, with its entries copied so registrations made by a
    test are undone afterwards."""
    registry, builtin, lookup = CASES[request.param]
    resolve("debug.echo")  # load the built-in point functions
    monkeypatch.setattr(registry, "_entries", dict(registry._entries))
    return request.param, registry, builtin, lookup


def test_kind_is_the_registry_name(case):
    kind, registry, builtin, _ = case
    assert registry.kind == kind
    assert builtin in registry
    assert builtin in registry.names()
    assert list(registry.names()) == sorted(registry.names())


@pytest.mark.parametrize("caught", [KeyError, ValueError])
def test_unknown_name_names_kind_and_choices(case, caught):
    kind, registry, _, lookup = case
    with pytest.raises(caught) as info:
        lookup("no-such-name")
    assert isinstance(info.value, UnknownNameError)
    message = str(info.value)
    assert message.startswith(f"unknown {kind} 'no-such-name'; choose from ")
    assert str(list(registry.names())) in message


def test_duplicate_name_with_other_object_rejected(case):
    kind, registry, builtin, _ = case
    original = registry[builtin]
    with pytest.raises(ValueError, match=f"{kind} '{builtin}' is already registered"):
        registry.register(builtin, object())
    assert registry[builtin] is original


def test_reregistering_same_object_is_noop(case):
    _, registry, builtin, _ = case
    before = registry.names()
    original = registry[builtin]
    assert registry.register(builtin, original) is original
    assert registry.names() == before
    assert registry[builtin] is original


@pytest.mark.parametrize("name", ["", None])
def test_empty_name_rejected(case, name):
    kind, registry, _, _ = case
    before = registry.names()
    with pytest.raises(ValueError, match=f"{kind} name must be a non-empty"):
        registry.register(name, object())
    assert registry.names() == before


def test_unknown_name_error_pickles():
    # Pool workers send lookup failures back to the driver pickled.
    import pickle

    with pytest.raises(UnknownNameError) as info:
        Registry("thing")["x"]
    again = pickle.loads(pickle.dumps(info.value))
    assert isinstance(again, UnknownNameError)
    assert str(again) == str(info.value)


# ----------------------------------------------------------------------
# atomic writer
# ----------------------------------------------------------------------
#: The globs the readers of published files use: cache entries, shard
#: result blocks, shard queue blocks, flight dumps.
READER_GLOBS = ("??/*.json", "block-*.json", "queue/*.json", "crash-*.json")


def _files(root):
    return sorted(
        os.path.relpath(os.path.join(d, f), root)
        for d, _, files in os.walk(root) for f in files
    )


def test_write_replaces_and_makes_directories(tmp_path):
    target = tmp_path / "ab" / "abcdef.json"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text(encoding="utf-8") == "second"
    assert _files(tmp_path) == [os.path.join("ab", "abcdef.json")]


@pytest.mark.parametrize("name", [
    "ab/abcdef0123456789abcdef.json",
    "results/block-00001.json",
    "queue/block-00002.s01.g1.json",
    "crash-steal-1234567890.json",
])
def test_failed_write_leaves_old_file_and_no_temp(tmp_path, monkeypatch, name):
    target = tmp_path / name
    atomic_write_text(target, json.dumps({"old": True}))
    temps = []

    def failing_replace(src, dst):
        assert os.path.isfile(src)
        temps.append(src)
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(target, json.dumps({"new": True}))
    [temp] = temps
    base = os.path.basename(temp)
    assert os.path.dirname(temp) == str(target.parent)
    assert base.startswith(".") and base.endswith(".tmp")
    for pattern in READER_GLOBS:
        assert not fnmatch.fnmatch(base, pattern.rsplit("/", 1)[-1]), pattern
    assert json.loads(target.read_text(encoding="utf-8")) == {"old": True}
    assert _files(tmp_path) == [os.path.join(*name.split("/"))]


def test_failed_write_mid_text_leaves_old_file_and_no_temp(tmp_path):
    target = tmp_path / "ab" / "abcdef.json"
    atomic_write_text(target, "old")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "new \ud800")  # unencodable surrogate
    assert target.read_text(encoding="utf-8") == "old"
    assert _files(tmp_path) == [os.path.join("ab", "abcdef.json")]
