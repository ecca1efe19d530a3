"""Unit tests for the repo-specific AST lint pass (repro.check.lint)."""

from __future__ import annotations

from repro.check.lint import RULES, lint_file, lint_paths, lint_source

SIM_PATH = "src/repro/gpusim/fake.py"
COLORING_PATH = "src/repro/coloring/fake.py"
HARNESS_PATH = "src/repro/harness/fake.py"
OBS_PATH = "src/repro/obs/fake.py"


def _rules(violations) -> set[str]:
    return {v.rule for v in violations}


class TestRC001Random:
    def test_legacy_global_rng_flagged(self):
        assert _rules(lint_source("import numpy as np\nx = np.random.rand(3)\n")) == {
            "RC001"
        }

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _rules(lint_source(src)) == {"RC001"}

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint_source(src) == []

    def test_seeded_bit_generators_clean(self):
        src = "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n"
        assert lint_source(src) == []

    def test_full_numpy_spelling_flagged(self):
        assert _rules(lint_source("import numpy\nnumpy.random.shuffle(x)\n")) == {
            "RC001"
        }


class TestRC002WallClock:
    def test_time_call_in_sim_domain_flagged(self):
        src = "import time\nt = time.perf_counter()\n"
        assert _rules(lint_source(src, SIM_PATH)) == {"RC002"}
        assert _rules(lint_source(src, COLORING_PATH)) == {"RC002"}

    def test_sleep_in_sim_domain_flagged(self):
        assert _rules(lint_source("import time\ntime.sleep(1)\n", SIM_PATH)) == {
            "RC002"
        }

    def test_datetime_now_in_sim_domain_flagged(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert _rules(lint_source(src, COLORING_PATH)) == {"RC002"}

    def test_wall_clock_fine_outside_sim_domain(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, HARNESS_PATH) == []
        assert lint_source(src, OBS_PATH) == []


class TestRC003FrozenCSR:
    def test_subscript_store_flagged(self):
        src = "def kernel(g):\n    g.indptr[0] = 1\n"
        assert _rules(lint_source(src, SIM_PATH)) == {"RC003"}

    def test_augmented_store_flagged(self):
        src = "def kernel(g):\n    g.indices[3] += 1\n"
        assert _rules(lint_source(src, COLORING_PATH)) == {"RC003"}

    def test_attribute_rebinding_flagged(self):
        src = "def kernel(g, arr):\n    g.indices = arr\n"
        assert _rules(lint_source(src, SIM_PATH)) == {"RC003"}

    def test_setflags_unfreeze_flagged(self):
        src = "def kernel(g):\n    g.indptr.setflags(write=True)\n"
        assert _rules(lint_source(src, SIM_PATH)) == {"RC003"}

    def test_mutation_fine_outside_kernel_code(self):
        src = "def builder(g):\n    g.indptr[0] = 1\n"
        assert lint_source(src, HARNESS_PATH) == []

    def test_local_array_mutation_clean(self):
        src = "def kernel(colors, v):\n    colors[v] = 0\n"
        assert lint_source(src, SIM_PATH) == []


class TestRC004BoundedTraces:
    LOOP_SRC = (
        "def f(self, events):\n"
        "    for ev in events:\n"
        "        self.trace.append(ev)\n"
    )

    def test_append_in_loop_flagged_outside_obs(self):
        assert _rules(lint_source(self.LOOP_SRC, SIM_PATH)) == {"RC004"}
        assert _rules(lint_source(self.LOOP_SRC, HARNESS_PATH)) == {"RC004"}

    def test_append_in_while_loop_flagged(self):
        src = (
            "def f(self, q):\n"
            "    while q:\n"
            "        self.trace.append(q.pop())\n"
        )
        assert _rules(lint_source(src, SIM_PATH)) == {"RC004"}

    def test_straight_line_append_is_bounded_and_clean(self):
        # loop-context-aware: a once-per-call append cannot grow without
        # bound — the pre-CFG rule flagged this as a false positive
        src = "def f(self, ev):\n    self.trace.append(ev)\n"
        assert lint_source(src, SIM_PATH) == []
        assert lint_source(src, HARNESS_PATH) == []

    def test_append_after_loop_clean(self):
        src = (
            "def f(self, events):\n"
            "    for ev in events:\n"
            "        x = ev\n"
            "    self.trace.append(x)\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_module_level_loop_flagged(self):
        src = "for ev in events:\n    trace.append(ev)\n"
        assert _rules(lint_source(src, SIM_PATH)) == {"RC004"}

    def test_nested_function_depth_is_per_scope(self):
        # the helper's append is straight-line *in its own scope*; the
        # rule does not track call sites (documented limitation)
        src = (
            "def outer(self, events):\n"
            "    def emit(ev):\n"
            "        self.trace.append(ev)\n"
            "    for ev in events:\n"
            "        emit(ev)\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_loop_inside_nested_function_flagged(self):
        src = (
            "def outer(self):\n"
            "    def drain(events):\n"
            "        for ev in events:\n"
            "            self.trace.append(ev)\n"
        )
        assert _rules(lint_source(src, SIM_PATH)) == {"RC004"}

    def test_trace_append_allowed_inside_obs(self):
        assert lint_source(self.LOOP_SRC, OBS_PATH) == []

    def test_other_appends_clean(self):
        src = (
            "def f(self, events):\n"
            "    for ev in events:\n"
            "        self.rows.append(ev)\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_suppression_still_works_in_loop(self):
        src = (
            "def f(self, events):\n"
            "    for ev in events:\n"
            "        self.trace.append(ev)  # check: allow(RC004)\n"
        )
        assert lint_source(src, SIM_PATH) == []


class TestRC006SqliteOwnership:
    STORE_PATH = "src/repro/store/db.py"

    def test_connect_outside_store_flagged(self):
        src = 'import sqlite3\nconn = sqlite3.connect("runs.sqlite")\n'
        assert _rules(lint_source(src, HARNESS_PATH)) == {"RC006"}

    def test_connect_inside_store_clean(self):
        src = 'import sqlite3\nconn = sqlite3.connect("runs.sqlite")\n'
        assert lint_source(src, self.STORE_PATH) == []

    def test_check_same_thread_false_flagged_even_in_store(self):
        src = (
            "import sqlite3\n"
            'conn = sqlite3.connect("runs.sqlite", check_same_thread=False)\n'
        )
        assert _rules(lint_source(src, self.STORE_PATH)) == {"RC006"}

    def test_check_same_thread_true_clean_in_store(self):
        src = (
            "import sqlite3\n"
            'conn = sqlite3.connect("runs.sqlite", check_same_thread=True)\n'
        )
        assert lint_source(src, self.STORE_PATH) == []

    def test_other_sqlite_api_clean(self):
        src = "import sqlite3\nrow = sqlite3.Row\n"
        assert lint_source(src, HARNESS_PATH) == []

    def test_suppression_comment(self):
        src = (
            "import sqlite3\n"
            'c = sqlite3.connect("x.db")  # check: allow(RC006)\n'
        )
        assert lint_source(src, HARNESS_PATH) == []


class TestRC008NarrowIndexArith:
    GRAPHS_PATH = "src/repro/graphs/fake.py"

    def test_narrowing_astype_flagged(self):
        src = "import numpy as np\nids = xs.astype(np.int32)\n"
        assert _rules(lint_source(src, self.GRAPHS_PATH)) == {"RC008"}
        assert _rules(lint_source(src, COLORING_PATH)) == {"RC008"}

    def test_string_dtype_spelling_flagged(self):
        src = 'ids = xs.astype("i4")\n'
        assert _rules(lint_source(src, self.GRAPHS_PATH)) == {"RC008"}

    def test_dtype_keyword_flagged(self):
        src = "import numpy as np\nids = xs.astype(dtype=np.uint16)\n"
        assert _rules(lint_source(src, self.GRAPHS_PATH)) == {"RC008"}

    def test_widening_astype_clean(self):
        src = "import numpy as np\nids = xs.astype(np.int64)\n"
        assert lint_source(src, self.GRAPHS_PATH) == []

    def test_bare_indices_arithmetic_flagged(self):
        src = "key = owner * n + graph.indices\n"
        assert _rules(lint_source(src, self.GRAPHS_PATH)) == {"RC008"}
        assert _rules(lint_source(src, COLORING_PATH)) == {"RC008"}

    def test_widened_indices_arithmetic_clean(self):
        src = "import numpy as np\nkey = owner * n + indices.astype(np.int64)\n"
        assert lint_source(src, self.GRAPHS_PATH) == []

    def test_indices_compare_and_index_clean(self):
        # comparisons and plain subscripting never overflow — only
        # arithmetic that can outgrow int32 is in scope
        src = "ok = (indices < n).all()\nx = colors[indices]\n"
        assert lint_source(src, self.GRAPHS_PATH) == []

    def test_outside_index_domain_clean(self):
        src = "import numpy as np\nids = xs.astype(np.int32)\n"
        assert lint_source(src, HARNESS_PATH) == []
        assert lint_source(src, SIM_PATH) == []

    def test_suppression_comment(self):
        src = (
            "import numpy as np\n"
            "ids = xs.astype(np.int32)  # check: allow(RC008)\n"
        )
        assert lint_source(src, self.GRAPHS_PATH) == []


class TestMechanics:
    def test_inline_suppression(self):
        src = "import numpy as np\nx = np.random.rand(3)  # check: allow(RC001)\n"
        assert lint_source(src) == []

    def test_suppression_is_rule_specific(self):
        src = "import numpy as np\nx = np.random.rand(3)  # check: allow(RC002)\n"
        assert _rules(lint_source(src)) == {"RC001"}

    def test_syntax_error_reported_not_raised(self):
        (v,) = lint_source("def broken(:\n")
        assert v.rule == "RC000"

    def test_violation_str_is_location_prefixed(self):
        (v,) = lint_source("import numpy as np\nx = np.random.rand(3)\n", "m.py")
        assert str(v).startswith("m.py:2:")

    def test_every_rule_documented(self):
        assert set(RULES) == {
            "RC001",
            "RC002",
            "RC003",
            "RC004",
            "RC006",
            "RC008",
        }

    def test_lint_file_and_paths(self, tmp_path):
        bad = tmp_path / "gpusim" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        assert _rules(lint_file(bad)) == {"RC002"}
        assert _rules(lint_paths([str(tmp_path)])) == {"RC002"}

    def test_repo_source_tree_is_clean(self):
        assert lint_paths(("src",)) == []
