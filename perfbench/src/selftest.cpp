// Unit checks for the benchmark's own helpers (bench_core.h): span
// self-time arithmetic, order statistics with sample counts, the CT_*
// variables of the run context, hashing, and the ledger's cross-run
// comparison.  Exits non-zero if any check failed.  The optional
// argument names a writable directory for the ledger check's file.
//
//   .bench_build/cmake/perfbench_selftest [work-dir]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_core.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

perfbench::Span span(const char* name, double a, double b, int parent) {
  perfbench::Span s;
  s.name = name;
  s.start_s = a;
  s.end_s = b;
  s.parent = parent;
  return s;
}

void self_time_arithmetic() {
  // root [0,10] with children [1,3] and [2,6] (overlapping: union 1..6)
  // and [8,9]; the second child has a grandchild [4,5].
  const std::vector<perfbench::Span> spans = {
      span("root", 0, 10, -1), span("a", 1, 3, 0), span("b", 2, 6, 0),
      span("c", 8, 9, 0),      span("b1", 4, 5, 2)};
  const std::vector<double> self = perfbench::self_times(spans);
  CHECK(near(self[0], 10 - 5 - 1));  // union of children covers 6 of 10
  CHECK(near(self[1], 2));
  CHECK(near(self[2], 3));
  CHECK(near(self[3], 1));
  CHECK(near(self[4], 1));

  // A child poking outside its parent only counts inside the parent.
  const std::vector<perfbench::Span> skew = {span("p", 0, 4, -1), span("k", 3, 7, 0)};
  CHECK(near(perfbench::self_times(skew)[0], 3));

  // Self times sum per name; the sum of all self times is the roots'
  // wall time.
  const std::vector<perfbench::Span> repeat = {span("root", 0, 10, -1), span("seg", 0, 2, 0),
                                               span("seg", 2, 5, 0)};
  const auto by_name = perfbench::self_time_by_name(repeat);
  CHECK(near(by_name.at("seg"), 5));
  CHECK(near(by_name.at("root"), 5));

  // The recorder nests scopes and refuses out-of-order closes.
  perfbench::Tracer tracer;
  {
    perfbench::Tracer::Scope outer(tracer, "outer");
    perfbench::Tracer::Scope inner(tracer, "inner");
  }
  CHECK(tracer.spans().size() == 2);
  CHECK(tracer.spans()[1].parent == 0);
  CHECK(tracer.spans()[0].end_s >= tracer.spans()[1].end_s);
  CHECK(tracer.cost_s() > 0.0);
  CHECK(tracer.cost_s() <= tracer.spans()[0].end_s);
  const int a = tracer.open("x");
  tracer.open("y");
  bool threw = false;
  try {
    tracer.close(a);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

void order_statistics() {
  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(near(perfbench::median({7.0}), 7.0));
  CHECK(near(perfbench::quantile({0, 10, 20, 30, 40}, 0.75), 30.0));
  CHECK(near(perfbench::quantile({0, 10}, 0.9), 9.0));
  bool threw = false;
  try {
    perfbench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);

  // The reported percentile keeps at least ten samples above it.
  CHECK(perfbench::reportable_percentile(13) == 0);
  CHECK(perfbench::reportable_percentile(20) == 50);
  CHECK(perfbench::reportable_percentile(40) == 75);
  CHECK(perfbench::reportable_percentile(100) == 90);
  CHECK(perfbench::reportable_percentile(1000) == 99);
  const std::string line = perfbench::describe_timing({1, 2, 3});
  CHECK(line.find("(n=3)") != std::string::npos);
  CHECK(line.find("p75") == std::string::npos);
}

void run_context() {
  const auto ct = perfbench::ct_variables(
      {"PATH=/usr/bin", "CT_UPDATE_GOLDEN=1", "NOEQUALS", "CT_FUZZ_SEED=7", "XCT_A=1"});
  const std::vector<std::pair<std::string, std::string>> want = {{"CT_FUZZ_SEED", "7"},
                                                                 {"CT_UPDATE_GOLDEN", "1"}};
  CHECK(ct == want);
  CHECK(perfbench::ct_variables({"HOME=/x"}).empty());
}

void hashing_and_ledger(const std::string& work_dir) {
  // FNV-1a with monitor_daemon's offset basis, so report hashes compare.
  CHECK(perfbench::fnv1a("") == 1469598103934665603ULL);
  CHECK(perfbench::fnv1a("a") == 0x44bd8ad473cd9906ULL);
  CHECK(perfbench::hex64(0x218b0ce5b3cbe612ULL) == "218b0ce5b3cbe612");
  CHECK(perfbench::hex64(0x0fULL) == "f");  // monitor_daemon prints no leading zeros
  perfbench::Fnv1a x;
  x.integer(1);
  perfbench::Fnv1a y;
  y.integer(256);
  CHECK(x.value() != y.value());

  std::istringstream known("# comment\n\nyear.1.report_hash abc\nyear.1.cnfs_main 42\n");
  const auto kv = perfbench::parse_key_values(known);
  CHECK(kv.size() == 2);
  CHECK(kv.at("year.1.cnfs_main") == "42");

  const std::string path =
      (std::filesystem::path(work_dir) / "perfbench_selftest_ledger.txt").string();
  std::filesystem::remove(path);
  {
    perfbench::CheckTally tally;
    perfbench::Ledger ledger(path);
    CHECK(ledger.check(tally, "year.1.report_hash", "abc"));  // recorded, not a check
    CHECK(tally.attempted() == 0);
    CHECK(ledger.check(tally, "year.1.report_hash", "abc"));  // same run, repeated
    CHECK(tally.attempted() == 1 && tally.failed() == 0);
    ledger.flush();
  }
  {
    perfbench::CheckTally tally;
    perfbench::Ledger ledger(path);  // a later run sees the first run's value
    CHECK(!ledger.check(tally, "year.1.report_hash", "abd"));
    CHECK(tally.attempted() == 1 && tally.failed() == 1);
    CHECK(tally.failures().front().find("abd") != std::string::npos);
    CHECK(ledger.check(tally, "year.1.report_hash", "abc"));
    CHECK(tally.failed() == 1);
  }
  std::filesystem::remove(path);

  CHECK(perfbench::json_number(0.1) == "0.1");
  CHECK(perfbench::json_number(1234.5678) == "1234.5678");
  CHECK(perfbench::json_string("a\"b") == "\"a\\\"b\"");
}

}  // namespace

int main(int argc, char** argv) {
  self_time_arithmetic();
  order_statistics();
  run_context();
  hashing_and_ledger(argc > 1 ? argv[1] : ".");
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
