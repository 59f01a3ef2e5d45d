"""Fixture package: its ``seeding`` module is named ``repro.seeding``."""
