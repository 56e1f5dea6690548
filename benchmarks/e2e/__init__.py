"""bench_e2e: wall-clock benchmark of one view operation through the stack.

One command measures ``start_use_image -> end_use_image -> push_image``
through view -> cache manager -> ShardRouter -> codec -> reliable/aio
transport -> directory shard -> WAL on real localhost sockets, for the
composed fast path and for whatever the builders default to.  See
``README.md`` in this directory; ``spec.py`` is the list of workloads
and metrics, ``BENCHMARK.json`` at the repo root is generated from it.
"""
