"""Fixture: the one module the unseeded-rng rule lets construct RNGs."""

import random

import numpy as np


def derive_rng(seed):
    return np.random.default_rng(seed)


def legacy_stream(seed):
    return random.Random(seed)
