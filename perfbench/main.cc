// The GVEX benchmark program.
//
//   gvex_perfbench --workload explain_enz|serve_read|serve_ingest
//                  --seed N --seconds S --trace 0|1
//
// Prints a human-readable report, then, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of a separate traced run. Exits 1 when any correctness
// check failed, 2 on a usage error. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "fixture.h"
#include "gvex/common/logging.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gvex_perfbench --workload explain_enz|serve_read|"
               "serve_ingest --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0.0) return Usage();
  void (*run)(const perfbench::Options&, perfbench::RunResult*) = nullptr;
  if (options.workload == "explain_enz") {
    run = perfbench::RunExplainEnz;
  } else if (options.workload == "serve_read") {
    run = perfbench::RunServeRead;
  } else if (options.workload == "serve_ingest") {
    run = perfbench::RunServeIngest;
  } else {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  // Per-graph warnings (e.g. infeasible explanations) would flood the log.
  gvex::SetLogLevel(gvex::LogLevel::kError);

  perfbench::RunResult result;
  std::printf("== %s seed %llu, %.0f s%s ==\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? ", traced" : "");
  run(options, &result);
  if (options.trace) {
    // The traced run reports per-layer metrics only.
    result.Remove("setup_s");
    result.Remove("peak_rss_mb");
  }
  result.PrintTable();
  std::printf("%s\n", result.Json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
