"""Unit checks for run.py's helpers: the execution-knob policy and the
source digest.

    python3 -B perfbench/test_run.py
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class KnobPolicy(unittest.TestCase):
    def test_clears_only_stray_knobs_and_records_them(self):
        env, cleared = run.clean_environment({
            "PATH": "/bin", "CT_SAT_BACKEND": "cdcl", "CT_SAT_PORTFOLIO_WIDTH": "2",
            "CT_FUZZ_SEED": "3", "CT_SCENARIO": "adaptive", "CT_STREAMING": "1",
            "CT_PLATFORM_SHARDS": "4", "CT_SAT_DELTA": "0", "CT_SAT_PORTFOLIO": "1"})
        self.assertEqual(cleared, ["CT_PLATFORM_SHARDS", "CT_SAT_BACKEND", "CT_SAT_DELTA",
                                   "CT_SAT_PORTFOLIO", "CT_SAT_PORTFOLIO_WIDTH",
                                   "CT_SCENARIO", "CT_STREAMING"])
        self.assertEqual(env["CT_FUZZ_SEED"], "3")
        self.assertEqual(env["PATH"], "/bin")
        for name in cleared:
            self.assertNotIn(name, env)

    def test_clean_environment_keeps_builds_inside_the_checkout(self):
        env, cleared = run.clean_environment({})
        self.assertEqual(cleared, [])
        self.assertTrue(env["CCACHE_DIR"].startswith(str(run.BUILD_DIR)))


class SourceDigest(unittest.TestCase):
    def make_tree(self, base):
        (base / "src" / "a").mkdir(parents=True)
        (base / "perfbench").mkdir()
        (base / "CMakeLists.txt").write_text("project(x)\n")
        (base / "src" / "a" / "x.cpp").write_text("int x;\n")
        (base / "perfbench" / "run.py").write_text("pass\n")

    def test_digest_follows_source_content(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            base = Path(tmp)
            self.make_tree(base)
            first = run.source_digest(base)
            self.assertEqual(first, run.source_digest(base))
            (base / "src" / "a" / "x.cpp").write_text("int y;\n")
            self.assertNotEqual(first, run.source_digest(base))

    def test_a_tree_outside_git_has_no_sha(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            base = Path(tmp).resolve()
            self.make_tree(base)
            self.assertEqual(run.git_sha(base), "none")


if __name__ == "__main__":
    unittest.main()
