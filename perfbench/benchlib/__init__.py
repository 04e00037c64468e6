"""Helpers of the benchmark's Python front end (statistics, span summaries)."""
