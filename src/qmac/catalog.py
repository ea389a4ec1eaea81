"""Bundled example channels.

Three small channels ship with the package and can be addressed by name
anywhere a channel path is accepted:

- ``adder-classical``: two binary senders, output is their sum (a classical
  deterministic channel embedded as diagonal states on a 3-level system).
- ``qubit-pure-mac``: two binary senders steering one qubit through four
  pure states; a minimal genuinely quantum two-sender channel.
- ``holevo-two-state``: one binary sender emitting |0><0| or |+><+|; its
  single bound is the two-state Holevo quantity.
"""

from __future__ import annotations

from importlib import resources

from .channel import CqMacChannel, channel_from_dict
import json

BUILTIN_CHANNELS = ("adder-classical", "qubit-pure-mac", "holevo-two-state")


def builtin_channel_text(name: str) -> str:
    """Raw JSON text of a bundled channel; accepts the name with or without .json."""
    stem = name[:-5] if name.endswith(".json") else name
    if stem not in BUILTIN_CHANNELS:
        raise KeyError(f"no bundled channel named {name!r}; "
                       f"available: {', '.join(BUILTIN_CHANNELS)}")
    return resources.files("qmac.data").joinpath(f"{stem}.json").read_text(encoding="utf-8")


def load_builtin_channel(name: str) -> CqMacChannel:
    return channel_from_dict(json.loads(builtin_channel_text(name)))
