"""Rendering substrate: style resolution, font metrics, layout -> content lines."""
