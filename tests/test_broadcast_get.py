"""``util.broadcast_get`` is the one worker-side reader of broadcasts.

Code shipped by value (``util.ensure_worker_importable``'s fallback,
forced here by the ``by_value`` fixture) unpickles with fresh copies of
the module globals it references, once per task, as on a worker.  A broadcast read must outlive those copies: the process
cache keeps one entry per ref for the whole worker process, up to the
``lru_cache_get`` bound."""

import inspect

from rapidocr_ray.util import broadcast_get, ensure_worker_importable, lru_cache_get

# pickled by reference (importable by name), so every unpickled copy of
# a reader calls this one function and appends to this one list
BUILDS: list = []


def count_build(value):
    BUILDS.append(value)
    return {"value": value}


def test_by_value_copies_share_one_broadcast_read(ray_session, by_value):
    from ray import cloudpickle

    ensure_worker_importable()
    BUILDS.clear()
    ref = ray_session.put([1, 2, 3])

    def read(r):
        return broadcast_get(r, count_build)

    a = cloudpickle.loads(cloudpickle.dumps(read))
    b = cloudpickle.loads(cloudpickle.dumps(read))
    # each copy carries its own unpickled helper, as two tasks would
    assert a.__globals__["broadcast_get"] is not b.__globals__["broadcast_get"]
    first = a(ref)
    assert b(ref) is first
    assert first == {"value": [1, 2, 3]}
    assert BUILDS == [[1, 2, 3]]

    # a list of block refs is one entry; build sees the list of values
    blocks = [ray_session.put("x"), ray_session.put("y")]
    assert a(blocks) is b(blocks) == {"value": ["x", "y"]}
    assert BUILDS == [[1, 2, 3], ["x", "y"]]


def test_broadcast_cache_rebuilds_the_oldest_ref_past_its_bound(ray_session):
    bound = inspect.signature(lru_cache_get).parameters["maxsize"].default
    refs = [ray_session.put(i) for i in range(bound + 1)]
    BUILDS.clear()
    for r in refs:
        broadcast_get(r, count_build)
    assert BUILDS == list(range(bound + 1))
    broadcast_get(refs[-1], count_build)  # newest: still cached
    assert len(BUILDS) == bound + 1
    broadcast_get(refs[0], count_build)  # oldest: evicted, read again
    assert BUILDS == list(range(bound + 1)) + [0]
