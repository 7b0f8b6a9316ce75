"""Fixture: how loop depth, straight-line runs and liveness reach findings.

Each case pins one piece of control flow that decides whether a rule
fires: a marker on a line that must fire names the finding in
``tests/test_symloc.py``; a marker on a line that must stay silent is
asserted to carry no finding.
"""


# -- loop depth ---------------------------------------------------------------


def poll_until_ready(obj):
    while not obj.sinvoke("ready"):  # <<SINVOKE_IN_WHILE_TEST>>
        pause()


def iterate_remote_list(obj):
    for item in obj.sinvoke("items"):  # <<SINVOKE_IN_FOR_ITER>>
        use(item)


def comprehension_ranks(obj, rows):
    names = [name.upper() for name in obj.sinvoke("names")]  # <<COMP_FIRST_ITER>>
    cells = [c for row in rows for c in row.sinvoke("cells")]  # <<COMP_SECOND_ITER>>
    grid = [[c.sinvoke("v") for c in row] for row in rows]  # <<COMP_NESTED>>
    return names, cells, grid


def deferred_calls(obj, items):
    for item in items:
        hooks.append(lambda: obj.sinvoke("late"))  # <<LAMBDA_BODY>>

        def later():
            return obj.sinvoke("later")  # <<NESTED_DEF_BODY>>

        hooks.append(later)


def outer_with_worker(objs):
    def worker():
        for obj in objs:
            obj.sinvoke("tick")  # <<NESTED_DEF_LOOP>>

    return worker


class Poller:
    def sweep(self, objs):
        for obj in objs:
            obj.migrate(self.home)  # <<METHOD_MIGRATE>>


# -- liveness: read later, or never --------------------------------------------


def captured_by_lambda(obj, flag):
    value = obj.sinvoke("get")  # <<LAMBDA_CAPTURE>>
    if flag:
        return lambda: value
    return None


def read_in_later_loop(obj, items):
    base = obj.sinvoke("base")  # <<READ_IN_LOOP>>
    for item in items:
        item.add(base)


def read_in_handler(obj):
    token = obj.sinvoke("token")  # <<READ_IN_HANDLER>>
    try:
        risky()
    except ValueError:
        report(token)


def read_in_handler_of_retry(obj, attempts):
    token = obj.sinvoke("token")  # <<READ_IN_RETRY_HANDLER>>
    for attempt in attempts:
        try:
            attempt.run()
            break
        except ValueError:
            report(token)


def read_in_finally(obj):
    lease = obj.sinvoke("lease")  # <<READ_IN_FINALLY>>
    try:
        return work()
    finally:
        release(lease)


def read_as_store_base(obj, key):
    table = obj.sinvoke("table")  # <<READ_AS_STORE_BASE>>
    if key:
        table[key] = 1


def read_when_no_case_matches(obj, mode):
    value = obj.sinvoke("get")  # <<READ_AFTER_UNMATCHED_CASE>>
    match mode:
        case "reset":
            value = 0
    return value


def rebound_before_read(obj):
    value = obj.sinvoke("get")  # <<REBOUND>>
    value = 0
    return value


def rebound_on_every_branch(obj, flag):
    value = obj.sinvoke("get")  # <<REBOUND_IN_BRANCHES>>
    if flag:
        value = 1
    else:
        value = 2
    return value


# -- straight-line runs --------------------------------------------------------


def with_body_continues_run(obj, lock):
    size = obj.sinvoke("size")  # <<WITH_DISTANCE>>
    with lock:
        step_one()
        step_two()
    return size


def with_body_continues_discarded(obj, lock):
    obj.sinvoke("warm")  # <<WITH_DISCARDED>>
    with lock:
        step_one()


def for_breaks_distance(obj, items):
    size = obj.sinvoke("size")  # <<FOR_BREAKS_DISTANCE>>
    for item in items:
        step(item)
    step_one()
    step_two()
    return size


def while_breaks_discarded(obj, items):
    obj.sinvoke("warm")  # <<WHILE_BREAKS_DISCARDED>>
    while items:
        items.pop()
    step_one()
    step_two()


def try_breaks_discarded(obj):
    obj.sinvoke("warm")  # <<TRY_BREAKS_DISCARDED>>
    try:
        step_one()
        step_two()
    finally:
        step_three()


def if_header_ends_run(obj, flag):
    obj.sinvoke("warm")  # <<IF_ENDS_RUN>>
    if flag:
        step_one()
    step_two()
    step_three()


def match_header_ends_run(obj, mode):
    obj.sinvoke("warm")  # <<MATCH_ENDS_RUN>>
    match mode:
        case "fast":
            step_one()
    step_two()
    step_three()


def while_else_after_break(obj, queue):
    while queue:
        if queue.pop() is None:
            break
    else:
        obj.sinvoke("flush")  # <<WHILE_ELSE_DISCARDED>>
        note("flushed")
        note("done")


def after_while_else_starts_run(obj, queue):
    while queue:
        if queue.pop() is None:
            break
    else:
        obj.sinvoke("flush")  # <<AFTER_WHILE_ELSE>>
        note("flushed")
    note("done")
