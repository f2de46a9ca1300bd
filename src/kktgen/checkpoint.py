"""Checkpoint files: a sectioned binary container for runs.

Layout (all little-endian): magic ``KGCK``, version u32, section count
u32, then per section a u16 name length, the UTF-8 name, a u64 payload
length and the raw payload.  Sections hold parameter blobs (models
module format), JSON metadata, optimizer moments and counters, so a
generator run can resume bit-exactly.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .homogeneity import QuasiHomogeneousProfile
from .models import (deserialize_params, read_struct, serialize_params,
                     spec_from_json)

CHECKPOINT_MAGIC = b"KGCK"
CHECKPOINT_VERSION = 1


def write_sections(path, sections):
    """Write the container atomically.

    The bytes go to a temporary file in the target's directory, which then
    replaces the target, so a failed write leaves any old file intact.
    """
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", len(sections))
    for name, payload in sections.items():
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<Q", len(payload))
        blob += payload
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(blob))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_sections(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    if bytes(view[:4]) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    what = f"{path}: checkpoint"
    (version,), pos = read_struct("<I", view, 4, what)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (count,), pos = read_struct("<I", view, pos, what)
    sections = {}
    for _ in range(count):
        (name_len,), pos = read_struct("<H", view, pos, what)
        (name, payload_len), pos = read_struct(f"<{name_len}sQ", view, pos,
                                               what)
        if pos + payload_len > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        sections[name.decode("utf-8")] = bytes(view[pos:pos + payload_len])
        pos += payload_len
    return sections


def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def _floats_bytes(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _floats_from(payload):
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)


def _adam_bytes(adam):
    return (_json_bytes({"t": adam.t}) + b"\x00"
            + _floats_bytes(np.concatenate([adam.m, adam.v])))


def _adam_load(adam, payload):
    head, raw = payload.split(b"\x00", 1)
    meta = json.loads(head.decode("utf-8"))
    mv = _floats_from(raw)
    half = mv.size // 2
    adam.load_state({"m": mv[:half], "v": mv[half:], "t": meta["t"]})


# ---------------------------------------------------------------------------
# classifier checkpoints


def save_classifier(path, spec, params, config_hash="", profile=None,
                    extra=None):
    sections = {
        "meta": _json_bytes({"kind": "classifier",
                             "config_hash": config_hash,
                             **(extra or {})}),
        "spec": _json_bytes(spec.to_json()),
        "params": serialize_params(spec, params),
    }
    if profile is not None:
        sections["profile"] = _json_bytes(profile.to_json())
    write_sections(path, sections)


def load_classifier(path):
    """Returns (spec, params, profile-or-None, meta dict)."""
    sections = read_sections(path)
    try:
        meta = json.loads(sections["meta"].decode("utf-8"))
        spec = spec_from_json(json.loads(sections["spec"].decode("utf-8")))
        params = deserialize_params(sections["params"], spec)
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt classifier checkpoint ({exc})")
    if meta.get("kind") != "classifier":
        raise ValueError(f"{path}: not a classifier checkpoint")
    profile = None
    if "profile" in sections:
        profile = QuasiHomogeneousProfile.from_json(
            json.loads(sections["profile"].decode("utf-8")))
    return spec, params, profile, meta


def attach_profile(path, profile):
    """Rewrite the checkpoint with the scaling profile embedded."""
    sections = read_sections(path)
    sections["profile"] = _json_bytes(profile.to_json())
    write_sections(path, sections)


# ---------------------------------------------------------------------------
# generator checkpoints


def save_generator(path, gen_spec, mult_spec, state, config_hash="",
                   extra=None):
    sections = {
        "meta": _json_bytes({"kind": "generator",
                             "config_hash": config_hash,
                             "step": state.step,
                             **(extra or {})}),
        "gen_spec": _json_bytes(gen_spec.to_json()),
        "mult_spec": _json_bytes(mult_spec.to_json()),
        "gen_params": serialize_params(gen_spec, state.gen_params),
        "mult_params": serialize_params(mult_spec, state.mult_params),
        "alphas": _floats_bytes(state.alphas),
        "deltas": _floats_bytes(
            state.deltas if state.deltas is not None else []),
    }
    if state.optimizers:
        sections["opt.theta"] = _adam_bytes(state.optimizers["theta"])
        sections["opt.eta"] = _adam_bytes(state.optimizers["eta"])
        for t, adam in enumerate(state.optimizers["alpha"]):
            sections[f"opt.alpha{t}"] = _adam_bytes(adam)
    write_sections(path, sections)


def load_generator(path, config=None):
    """Returns (gen_spec, mult_spec, state, meta).

    ``config`` (a GeneratorTrainConfig) is needed to rebuild optimizer
    learning rates when the checkpoint is used to resume training.
    """
    from .training import Adam, GeneratorTrainState  # cycle-free at runtime

    sections = read_sections(path)
    try:
        meta = json.loads(sections["meta"].decode("utf-8"))
        gen_spec = spec_from_json(
            json.loads(sections["gen_spec"].decode("utf-8")))
        mult_spec = spec_from_json(
            json.loads(sections["mult_spec"].decode("utf-8")))
        gen_params = deserialize_params(sections["gen_params"], gen_spec)
        mult_params = deserialize_params(sections["mult_params"], mult_spec)
        alphas = _floats_from(sections["alphas"])
        deltas = _floats_from(sections["deltas"])
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt generator checkpoint ({exc})")
    if meta.get("kind") != "generator":
        raise ValueError(f"{path}: not a generator checkpoint")
    state = GeneratorTrainState(gen_params, mult_params, alphas,
                                deltas if deltas.size else None,
                                step=int(meta.get("step", 0)))
    if config is not None and "opt.theta" in sections:
        optimizers = {
            "theta": Adam(len(gen_params), config.lr_theta),
            "eta": Adam(len(mult_params), config.lr_eta),
            "alpha": [Adam(1, config.alpha_lr(t))
                      for t in range(alphas.size)],
        }
        _adam_load(optimizers["theta"], sections["opt.theta"])
        _adam_load(optimizers["eta"], sections["opt.eta"])
        for t in range(alphas.size):
            _adam_load(optimizers["alpha"][t], sections[f"opt.alpha{t}"])
        state.optimizers = optimizers
    return gen_spec, mult_spec, state, meta
