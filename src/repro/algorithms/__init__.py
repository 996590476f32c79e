"""Algorithmic substrates: edit distances, matching, clique enumeration."""
