"""Known-bad fixture for the catalog pass: counter, metric, recorder-event,
inspector-command and stop_reason literals that are in no catalog
vocabulary (typos of real names and never-declared names), in each
checked position, next to clean members of each vocabulary."""


def record(counters, registry, recorder, bytes_read):
    counters.inc("ccsr.bytes_red", bytes_read)  # violation: typo
    counters.inc("nodes")  # clean: STAT_KEYS member
    counters.inc("plan_cache.hits")  # clean: KNOWN_COUNTERS member
    registry.gauge("reed_seconds").set(1.0)  # violation: typo
    registry.counter("embeddings").set(3)  # clean: KNOWN_METRICS member
    recorder.record("degrad", rung="evict_memo")  # violation: typo
    recorder.record("degrade", rung="evict_memo")  # clean: KNOWN_EVENTS


def finish(runtime, result, make_result):
    runtime.stop_reason = "time-limit"  # violation: wrong spelling
    if result.stop_reason == "memory":  # violation: not a member
        pass
    if result.stop_reason == "cancelled":  # clean: STOP_REASONS member
        pass
    return make_result(stop_reason="emb_limit")  # violation: not a member


def poke(client, inspector):
    client.request("stauts")  # violation: typo of "status"
    client.request("status")  # clean: KNOWN_COMMANDS member
    client.request("shutdown")  # violation: never a declared command
    inspector.handle("progres", {})  # violation: typo of "progress"
    inspector.handle("cancel", {})  # clean: KNOWN_COMMANDS member


HANDLERS = {
    "progress": "_cmd_progress",  # clean: KNOWN_COMMANDS member
    "cancel-all": "_cmd_cancel_all",  # violation: not declared
}
