"""Userspace SRv6 dataplane with pluggable packet programs and a
deterministic network simulator."""

from .scenario import fixture_path
