"""Benchmark for the crawl/parse engine; see run.py."""
