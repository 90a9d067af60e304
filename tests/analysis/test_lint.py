"""Per-rule linter tests: positive, negative, and noqa for every rule."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.lint import format_json, format_text, lint_source


def _lint(code: str, path: str = "src/repro/example.py"):
    return lint_source(textwrap.dedent(code), path)


def _codes(violations):
    return [violation.rule for violation in violations]


class TestRNG001:
    def test_legacy_global_flagged(self):
        violations = _lint("""
            import numpy as np
            x = np.random.normal(size=3)
        """)
        assert _codes(violations) == ["RNG001"]
        assert "np.random.normal" in violations[0].message

    def test_unseeded_default_rng_flagged(self):
        assert _codes(_lint("""
            import numpy as np
            rng = np.random.default_rng()
        """)) == ["RNG001"]

    def test_seeded_generator_clean(self):
        assert _lint("""
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.normal(size=3)
            other = np.random.Generator(np.random.PCG64(7))
        """) == []

    def test_noqa_suppresses(self):
        assert _lint("""
            import numpy as np
            rng = np.random.default_rng()  # repro: noqa[RNG001]
        """) == []


class TestMUT001:
    def test_subscript_assignment_flagged(self):
        assert _codes(_lint("""
            def f(t, x):
                t.data[0] = x
        """)) == ["MUT001"]

    def test_augmented_assignment_flagged(self):
        assert _codes(_lint("""
            def f(t, x):
                t.data += x
        """)) == ["MUT001"]

    def test_mutating_method_flagged(self):
        assert _codes(_lint("""
            def f(t):
                t.data.fill(0.0)
        """)) == ["MUT001"]

    def test_rebinding_clean(self):
        assert _lint("""
            def f(t, x):
                t.data = t.data - x
                value = t.data[0]
                t.grad.fill(0.0)
        """) == []

    def test_noqa_suppresses(self):
        assert _lint("""
            def f(t, x):
                t.data += x  # repro: noqa[MUT001]
        """) == []


class TestLOCK001:
    def test_unlocked_module_dict_flagged(self):
        violations = _lint("""
            _REGISTRY = {}
        """, path="src/repro/serve/example.py")
        assert _codes(violations) == ["LOCK001"]
        assert "_REGISTRY" in violations[0].message

    def test_lock_in_module_clean(self):
        assert _lint("""
            import threading
            _REGISTRY = {}
            _REGISTRY_LOCK = threading.Lock()
        """, path="src/repro/serve/example.py") == []

    def test_outside_threaded_scope_clean(self):
        assert _lint("_REGISTRY = {}", path="src/repro/metrics/example.py") == []

    def test_dunder_metadata_clean(self):
        assert _lint(
            '__all__ = ["a", "b"]', path="src/repro/serve/example.py"
        ) == []

    def test_streaming_module_in_scope(self):
        assert _codes(_lint(
            "_STATE = []", path="src/repro/streaming.py"
        )) == ["LOCK001"]

    def test_noqa_suppresses(self):
        assert _lint("""
            _REGISTRY = {}  # repro: noqa[LOCK001]
        """, path="src/repro/serve/example.py") == []


class TestEXC001:
    def test_bare_except_flagged(self):
        assert _codes(_lint("""
            def f():
                try:
                    pass
                except:
                    pass
        """)) == ["EXC001"]

    def test_typed_except_clean(self):
        assert _lint("""
            def f():
                try:
                    pass
                except ValueError:
                    pass
        """) == []

    def test_noqa_suppresses(self):
        assert _lint("""
            def f():
                try:
                    pass
                except:  # repro: noqa[EXC001]
                    pass
        """) == []


class TestDET001:
    def test_tensor_of_data_flagged(self):
        assert _codes(_lint("""
            def f(t):
                return Tensor(t.data * 2.0)
        """)) == ["DET001"]

    def test_as_tensor_of_data_flagged(self):
        assert _codes(_lint("""
            def f(t):
                return as_tensor(t.data)
        """)) == ["DET001"]

    def test_detach_function_whitelisted(self):
        assert _lint("""
            def detach(t):
                return Tensor(t.data)
        """) == []

    def test_plain_data_read_clean(self):
        assert _lint("""
            def f(t):
                return float(t.data.sum())
        """) == []

    def test_noqa_suppresses(self):
        assert _lint("""
            def f(t):
                return Tensor(t.data * 2.0)  # repro: noqa[DET001]
        """) == []


class TestF64001:
    def test_astype_flagged_in_scope(self):
        assert _codes(_lint("""
            import numpy as np
            def f(x):
                return x.astype(np.float64)
        """, path="src/repro/nn/functional.py")) == ["F64001"]

    def test_dtype_keyword_flagged_in_scope(self):
        assert _codes(_lint("""
            import numpy as np
            def f(n):
                return np.zeros(n, dtype=np.float64)
        """, path="src/repro/core/model.py")) == ["F64001"]

    def test_comparison_clean(self):
        assert _lint("""
            import numpy as np
            def f(x):
                return x.dtype == np.float64
        """, path="src/repro/nn/functional.py") == []

    def test_out_of_scope_clean(self):
        assert _lint("""
            import numpy as np
            def f(x):
                return x.astype(np.float64)
        """, path="src/repro/masking/frequency.py") == []

    def test_noqa_suppresses(self):
        assert _lint("""
            import numpy as np
            def f(x):
                return x.astype(np.float64)  # repro: noqa[F64001]
        """, path="src/repro/nn/functional.py") == []


class TestJIT001:
    def test_tensor_in_jit_module_flagged(self):
        assert _codes(_lint("""
            def replay(slots):
                return Tensor(slots["x"])
        """, path="src/repro/nn/jit.py")) == ["JIT001"]

    def test_as_tensor_in_jit_module_flagged(self):
        assert _codes(_lint("""
            def trace(fn, x):
                return as_tensor(x)
        """, path="src/repro/nn/jit.py")) == ["JIT001"]

    def test_other_modules_out_of_scope(self):
        assert _lint("""
            def f(x):
                return Tensor(x)
        """, path="src/repro/nn/functional.py") == []

    def test_raw_numpy_clean(self):
        assert _lint("""
            import numpy as np
            def replay(slots):
                return np.add(slots["a"], slots["b"])
        """, path="src/repro/nn/jit.py") == []

    def test_noqa_suppresses(self):
        assert _lint("""
            def replay(slots):
                return Tensor(slots["x"])  # repro: noqa[JIT001]
        """, path="src/repro/nn/jit.py") == []


class TestReporters:
    def test_text_report_lists_locations(self):
        violations = _lint("""
            import numpy as np
            x = np.random.normal(size=3)
        """)
        text = format_text(violations)
        assert "RNG001" in text and "example.py:3" in text
        assert "1 violation(s)" in text

    def test_text_report_clean(self):
        assert format_text([]) == "clean"

    def test_json_report_round_trips(self):
        import json

        violations = _lint("""
            import numpy as np
            x = np.random.normal(size=3)
        """)
        payload = json.loads(format_json(violations))
        assert payload[0]["rule"] == "RNG001"
        assert payload[0]["line"] == 3

    def test_multiple_codes_in_one_noqa(self):
        assert _lint("""
            import numpy as np
            x = np.random.normal(np.random.default_rng())  # repro: noqa[RNG001, MUT001]
        """) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        assert _codes(_lint("""
            import numpy as np
            x = np.random.normal(size=3)  # repro: noqa[MUT001]
        """)) == ["RNG001"]
