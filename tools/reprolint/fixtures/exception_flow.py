"""Known-bad fixture for the exception_flow pass: a budget raise escapes
through two call frames to an API root with no handler anywhere, and two
local handlers swallow the limit signal without a stop-reason outcome
(one only sets a ``truncated`` flag, which records no stop)."""


class TimeLimitExceeded(Exception):
    pass


class EmbeddingLimitExceeded(Exception):
    pass


def tick(budget):
    if budget <= 0:
        # violation: escapes tick -> search -> run_query (a root) with
        # no handler mapping it to a STOP_REASONS outcome
        raise TimeLimitExceeded("out of time")


def search(budget):
    total = 0
    for step in range(3):
        tick(budget - step)
        total += 1
    return total


def run_query(budget):
    return search(budget)


def swallow(budget):
    try:
        if budget <= 0:
            raise EmbeddingLimitExceeded("cap reached")
    except EmbeddingLimitExceeded:
        # violation: neither maps to a stop reason nor re-raises
        return None
    return budget


def flag_only(budget):
    truncated = False
    try:
        if budget <= 0:
            raise EmbeddingLimitExceeded("cap reached")
    except EmbeddingLimitExceeded:
        # violation: a local flag is not a stop_reason
        truncated = True
    return truncated
