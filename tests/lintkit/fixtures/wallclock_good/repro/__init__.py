"""Fixture package: its module names are the rule's real fingerprint roots."""
