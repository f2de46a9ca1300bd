"""Checkpoint files: a sectioned binary container for runs.

Layout (all little-endian): magic ``KGCK``, version u32, section count
u32, then per section a u16 name length, the UTF-8 name, a u64 payload
length and the raw payload.  Sections hold parameter blobs (models
module format), JSON metadata, optimizer moments and counters and the
loss history, so a generator run can resume bit-exactly.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .homogeneity import QuasiHomogeneousProfile, check_groups
from .models import (GeneratorSpec, MlpSpec, MultiplierSpec,
                     deserialize_params, from_json, read_struct,
                     serialize_params, to_json)
from .training import HISTORY_KEYS, GeneratorTrainState, generator_optimizers

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


def _adam_load(adam, name, payload):
    head, raw = payload.split(b"\x00", 1)
    adam.t = _count(name, _json(name, head), "t", 0)
    mv = _floats_from(raw)
    # a shorter m or v would broadcast into the moments
    if mv.size != 2 * adam.m.size:
        raise ValueError(f"{name}: {mv.size} moments for "
                         f"{adam.m.size} parameters, not {2 * adam.m.size}")
    adam.m[:], adam.v[:] = mv[:adam.m.size], mv[adam.m.size:]


def _json(name, raw, cls=None):
    """The JSON object ``raw`` of section ``name``, as a ``cls`` if one is
    given (:func:`from_json`); a ValueError names the section."""
    try:
        obj = json.loads(raw.decode("utf-8"))
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        return obj if cls is None else from_json(cls, obj)
    except ValueError as exc:  # and JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{name}: {exc}") from None


def _count(name, obj, key, low):
    """``obj[key]`` of section ``name``, a JSON integer of at least 0 or 1."""
    value = obj.get(key)
    if type(value) is not int or not value >= low:
        raise ValueError(f"{name}: {key} {json.dumps(value)} is not a "
                         f"{'positive' if low else 'nonnegative'} integer")
    return value


def _read_checkpoint(path, kind):
    """The sections and the ``meta`` dict of a checkpoint of ``kind``
    ("classifier" or "generator"), whose kind is checked before any other
    section is read."""
    sections = read_sections(path)
    try:
        meta = json.loads(sections["meta"].decode("utf-8"))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: corrupt {kind} checkpoint ({exc})")
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} checkpoint")
    return sections, meta


# ---------------------------------------------------------------------------
# classifier checkpoints


def save_classifier(path, spec, params, config_hash="", extra=None):
    """A classifier checkpoint; :func:`attach_profile` adds the profile."""
    write_sections(path, {
        "meta": _json_bytes({"kind": "classifier",
                             "config_hash": config_hash,
                             **(extra or {})}),
        "spec": _json_bytes(to_json(spec)),
        "params": serialize_params(spec, params),
    })


def load_classifier(path):
    """Returns (spec, params, profile-or-None, meta dict)."""
    sections, meta = _read_checkpoint(path, "classifier")
    try:
        spec = _json("spec", sections["spec"], MlpSpec)
        params = deserialize_params(sections["params"], spec)
        profile = None
        if "profile" in sections:
            profile = _json("profile", sections["profile"],
                            QuasiHomogeneousProfile)
            check_groups(params, profile.lambdas)
        if "dataset_size" in meta:  # the size of its training set
            _count("meta", meta, "dataset_size", 1)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: corrupt classifier checkpoint ({exc})")
    return spec, params, profile, meta


def attach_profile(path, profile):
    """Rewrite the checkpoint with the scaling profile embedded."""
    sections = read_sections(path)
    # with what the profile derives, for a reader of the file
    sections["profile"] = _json_bytes({
        **to_json(profile), "lambda_max": profile.lambda_max,
        "tilde_mask": sorted(profile.tilde_mask)})
    write_sections(path, sections)


# ---------------------------------------------------------------------------
# generator checkpoints


def save_generator(path, gen_spec, mult_spec, state, config_hash=""):
    sections = {
        "meta": _json_bytes({"kind": "generator",
                             "config_hash": config_hash,
                             "step": state.step}),
        "gen_spec": _json_bytes(to_json(gen_spec)),
        "mult_spec": _json_bytes(to_json(mult_spec)),
        "gen_params": serialize_params(gen_spec, state.gen_params),
        "mult_params": serialize_params(mult_spec, state.mult_params),
        "alphas": _floats_bytes(state.alphas),
        "deltas": _floats_bytes(state.deltas),
        # one row of HISTORY_KEYS per step
        "history": _floats_bytes(state.history),
    }
    if state.optimizers:
        sections["opt.theta"] = _adam_bytes(state.optimizers["theta"])
        sections["opt.eta"] = _adam_bytes(state.optimizers["eta"])
    write_sections(path, sections)


def load_generator(path, config=None):
    """Returns (gen_spec, mult_spec, state, meta).

    ``config`` (a GeneratorTrainConfig) is needed to rebuild optimizer
    learning rates when the checkpoint is used to resume training; the
    state then carries its optimizers and its loss history, and a
    checkpoint without their sections is incomplete.  Sections it does
    not read are ignored.
    """
    sections, meta = _read_checkpoint(path, "generator")
    names = {"theta": "opt.theta", "eta": "opt.eta"}
    missing = [name for name in [*names.values(), "history"]
               if name not in sections]
    if config is not None and missing:
        raise ValueError(f"{path}: incomplete generator checkpoint "
                         f"(missing {', '.join(missing)}); it cannot "
                         f"resume training")
    try:
        gen_spec = _json("gen_spec", sections["gen_spec"], GeneratorSpec)
        mult_spec = _json("mult_spec", sections["mult_spec"],
                          MultiplierSpec)
        gen_params = deserialize_params(sections["gen_params"], gen_spec)
        mult_params = deserialize_params(sections["mult_params"], mult_spec)
        alphas = _floats_from(sections["alphas"])
        deltas = _floats_from(sections["deltas"])
        if not deltas.size == alphas.size == gen_spec.num_classifiers:
            raise ValueError(f"{deltas.size} deltas for {alphas.size} alphas"
                             f" of {gen_spec.num_classifiers} classifiers")
        # where the run's seed table starts on a resume
        step = _count("meta", meta, "step", 0)
        state = GeneratorTrainState(gen_params, mult_params, alphas, deltas,
                                    step=step)
        if config is not None:
            state.optimizers = generator_optimizers(state, config)
            for key, name in names.items():
                _adam_load(state.optimizers[key], name, sections[name])
            width = len(HISTORY_KEYS)
            table = _floats_from(sections["history"])
            if table.size != step * width:
                raise ValueError(f"{table.size} history values for {step} "
                                 f"steps of {width} columns")
            state.history = list(map(tuple, table.reshape(step,
                                                          width).tolist()))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: corrupt generator checkpoint ({exc})")
    return gen_spec, mult_spec, state, meta
