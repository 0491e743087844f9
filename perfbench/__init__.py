"""Replan-latency benchmark for visiplan; see README.md."""
