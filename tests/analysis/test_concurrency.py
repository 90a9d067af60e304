"""The interprocedural concurrency pass: LOCK002, BLK001, TLS001.

Each rule gets a positive (fires on the seeded pattern), a negative
(stays silent on the disciplined version), and a noqa case (per-line
suppression works).  Fixtures are synthetic trees under ``tmp_path`` so
the assertions are about the analyzer, not the shipped code — the
shipped tree's cleanliness is asserted in ``test_meta.py``.
"""

from __future__ import annotations

import textwrap

from repro.analysis.concurrency import analyze_concurrency, lock_graph_summary


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def _codes(violations):
    return [violation.rule for violation in violations]


# ----------------------------------------------------------------------
# LOCK002 — lock-order inversion
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_inverted_order_in_one_module_fires(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def forward():
                with A:
                    with B:
                        pass

            def backward():
                with B:
                    with A:
                        pass
        """)
        violations = analyze_concurrency([str(tmp_path)])
        assert "LOCK002" in _codes(violations)
        # both inversion sites report, naming the cycle
        messages = [v.message for v in violations if v.rule == "LOCK002"]
        assert len(messages) == 2
        assert all("cycle" in message for message in messages)

    def test_consistent_order_is_clean(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def forward():
                with A:
                    with B:
                        pass

            def also_forward():
                with A:
                    with B:
                        pass
        """)
        assert analyze_concurrency([str(tmp_path)]) == []

    def test_cycle_through_a_callee_fires(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def takes_b():
                with B:
                    pass

            def outer():
                with A:
                    takes_b()

            def inverted():
                with B:
                    with A:
                        pass
        """)
        violations = analyze_concurrency([str(tmp_path)])
        assert "LOCK002" in _codes(violations)

    def test_reentrant_same_lock_is_not_a_cycle(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading

            A = threading.RLock()

            def nested():
                with A:
                    with A:
                        pass
        """)
        assert analyze_concurrency([str(tmp_path)]) == []

    def test_noqa_suppresses_lock002(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def forward():
                with A:
                    with B:  # repro: noqa[LOCK002]
                        pass

            def backward():
                with B:
                    with A:  # repro: noqa[LOCK002]
                        pass
        """)
        assert analyze_concurrency([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# BLK001 — blocking call under a lock
# ----------------------------------------------------------------------
class TestBlockingUnderLock:
    def test_sleep_under_lock_fires(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading
            import time

            L = threading.Lock()

            def hold_and_sleep():
                with L:
                    time.sleep(0.5)
        """)
        violations = analyze_concurrency([str(tmp_path)])
        assert _codes(violations) == ["BLK001"]
        assert "time.sleep" in violations[0].message

    def test_sleep_outside_lock_is_clean(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading
            import time

            L = threading.Lock()

            def disciplined():
                with L:
                    value = 1
                time.sleep(0.5)
                return value
        """)
        assert analyze_concurrency([str(tmp_path)]) == []

    def test_transitive_blocking_through_callee_fires(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading
            import time

            L = threading.Lock()

            def slow_helper():
                time.sleep(0.5)

            def hold_and_call():
                with L:
                    slow_helper()
        """)
        violations = analyze_concurrency([str(tmp_path)])
        assert _codes(violations) == ["BLK001"]
        assert "slow_helper" in violations[0].message

    def test_blocking_ok_lock_is_exempt(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import time

            from repro.analysis.lockcheck import named_lock

            SEND = named_lock("test.send", blocking_ok=True)

            def serialised_io():
                with SEND:
                    time.sleep(0.5)
        """)
        assert analyze_concurrency([str(tmp_path)]) == []

    def test_file_io_under_lock_fires(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading

            L = threading.Lock()

            def hold_and_read(path):
                with L:
                    with open(path) as handle:
                        return handle.read()
        """)
        assert "BLK001" in _codes(analyze_concurrency([str(tmp_path)]))

    def test_noqa_suppresses_blk001(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading
            import time

            L = threading.Lock()

            def justified():
                with L:
                    time.sleep(0.5)  # repro: noqa[BLK001]
        """)
        assert analyze_concurrency([str(tmp_path)]) == []

    def test_condition_wait_on_own_lock_is_exempt(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading

            COND = threading.Condition()

            def waiter():
                with COND:
                    COND.wait(1.0)
        """)
        assert analyze_concurrency([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# TLS001 — thread-local policy discipline
# ----------------------------------------------------------------------
class TestThreadLocalPolicy:
    def test_bare_use_expression_fires(self, tmp_path):
        _write(tmp_path, "mod.py", """
            from repro.nn.fused import use_fused

            def misuse():
                use_fused(True)
        """)
        violations = analyze_concurrency([str(tmp_path)])
        assert _codes(violations) == ["TLS001"]

    def test_with_use_is_clean(self, tmp_path):
        _write(tmp_path, "mod.py", """
            from repro.nn.fused import use_fused

            def disciplined():
                with use_fused(True):
                    pass
        """)
        assert analyze_concurrency([str(tmp_path)]) == []

    def test_with_setter_fires(self, tmp_path):
        _write(tmp_path, "mod.py", """
            from repro.nn.fused import set_fused

            def misuse():
                with set_fused(True):
                    pass
        """)
        assert _codes(analyze_concurrency([str(tmp_path)])) == ["TLS001"]

    def test_setter_in_serving_path_fires(self, tmp_path):
        serve_dir = tmp_path / "serve"
        serve_dir.mkdir()
        (serve_dir / "__init__.py").write_text("")
        _write(serve_dir, "handler.py", """
            from repro.nn.fused import set_fused

            def handle(request):
                set_fused(True)
        """)
        assert "TLS001" in _codes(analyze_concurrency([str(tmp_path)]))

    def test_setter_outside_serving_is_clean(self, tmp_path):
        _write(tmp_path, "script.py", """
            from repro.nn.fused import set_fused

            def configure():
                set_fused(True)
        """)
        assert analyze_concurrency([str(tmp_path)]) == []

    def test_noqa_suppresses_tls001(self, tmp_path):
        _write(tmp_path, "mod.py", """
            from repro.nn.fused import use_fused

            def justified():
                use_fused(True)  # repro: noqa[TLS001]
        """)
        assert analyze_concurrency([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# lock graph summary
# ----------------------------------------------------------------------
class TestLockGraphSummary:
    def test_summary_shape(self, tmp_path):
        _write(tmp_path, "mod.py", """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def forward():
                with A:
                    with B:
                        pass
        """)
        summary = lock_graph_summary([str(tmp_path)])
        assert sorted(summary) == ["cycles", "edges", "locks"]
        assert any(lock.endswith(".A") for lock in summary["locks"])
        assert len(summary["edges"]) == 1
        edge = summary["edges"][0]
        assert edge["from"].endswith(".A") and edge["to"].endswith(".B")
        assert edge["sites"][0]["line"] > 0
        assert summary["cycles"] == []

    def test_shipped_tree_has_acyclic_graph(self):
        from pathlib import Path

        import repro

        summary = lock_graph_summary([str(Path(repro.__file__).parent)])
        assert summary["cycles"] == []
        # The documented registry order is part of the shipped graph.
        pairs = {(edge["from"], edge["to"]) for edge in summary["edges"]}
        assert ("serve.registry.per-model", "serve.registry.state") in pairs
