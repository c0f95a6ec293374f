// chaos_harness: seeded chaos scenarios over a primary/standby/publisher
// topology (tools/chaos/chaos.h).
//
//   chaos_harness [--seeds N] [--start-seed S] [--steps K]
//                 [--fault-probability P] [--replay SEED]
//
// Default mode runs N consecutive seeds, re-runs every determinism-check
// seed to assert same-seed => byte-identical event log, and exits 0 only
// when every invariant held across every schedule. --replay runs one
// seed and prints its full event log (the debugging entry point: take a
// failing seed from CI, replay it locally under a debugger).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tools/chaos/chaos.h"

namespace {

struct HarnessOptions {
  int seeds = 25;
  uint64_t start_seed = 1;
  int steps = 30;
  double fault_probability = 0.4;
  long replay = -1;       // >= 0: run one seed, print the event log
  int determinism_every = 5;  // re-run every Nth seed for log identity
};

bool ParseArgs(int argc, char** argv, HarnessOptions* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](long* value) {
      if (i + 1 >= argc) return false;
      *value = std::atol(argv[++i]);
      return true;
    };
    long value = 0;
    if (arg == "--seeds" && next(&value)) {
      out->seeds = static_cast<int>(value);
    } else if (arg == "--start-seed" && next(&value)) {
      out->start_seed = static_cast<uint64_t>(value);
    } else if (arg == "--steps" && next(&value)) {
      out->steps = static_cast<int>(value);
    } else if (arg == "--replay" && next(&value)) {
      out->replay = value;
    } else if (arg == "--determinism-every" && next(&value)) {
      out->determinism_every = static_cast<int>(value);
    } else if (arg == "--fault-probability" && i + 1 < argc) {
      out->fault_probability = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: chaos_harness [--seeds N] [--start-seed S] "
                   "[--steps K] [--fault-probability P] "
                   "[--determinism-every N] [--replay SEED]\n");
      return false;
    }
  }
  return out->seeds > 0 && out->steps > 0;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return 2;

  std::printf("building chaos fixture (trains a small GCN)...\n");
  std::fflush(stdout);
  auto fixture = gvex::cluster::MakeChaosFixture();
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture: %s\n", fixture.status().ToString().c_str());
    return 1;
  }

  auto run = [&](uint64_t seed) {
    gvex::cluster::ChaosOptions scenario;
    scenario.seed = seed;
    scenario.steps = opts.steps;
    scenario.fault_probability = opts.fault_probability;
    scenario.generations = fixture->generations;
    scenario.queries = fixture->queries;
    return gvex::cluster::RunChaosScenario(scenario);
  };

  if (opts.replay >= 0) {
    auto report = run(static_cast<uint64_t>(opts.replay));
    if (!report.ok()) {
      std::fprintf(stderr, "replay: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", report->EventLog().c_str());
    for (const std::string& v : report->violations) {
      std::printf("VIOLATION: %s\n", v.c_str());
    }
    return report->violations.empty() ? 0 : 1;
  }

  int bad_seeds = 0;
  uint64_t total_faults = 0, total_publish_failures = 0, total_syncs = 0;
  for (int i = 0; i < opts.seeds; ++i) {
    const uint64_t seed = opts.start_seed + static_cast<uint64_t>(i);
    auto report = run(seed);
    if (!report.ok()) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   report.status().ToString().c_str());
      return 1;
    }
    total_faults += report->faults_armed;
    total_publish_failures += report->publish_failures;
    total_syncs += report->syncs;
    if (!report->violations.empty()) {
      ++bad_seeds;
      std::printf("seed %llu: %zu violation(s)\n",
                  static_cast<unsigned long long>(seed),
                  report->violations.size());
      for (const std::string& v : report->violations) {
        std::printf("  VIOLATION: %s\n", v.c_str());
      }
      std::printf("  replay with: chaos_harness --replay %llu --steps %d\n",
                  static_cast<unsigned long long>(seed), opts.steps);
    }
    if (opts.determinism_every > 0 && i % opts.determinism_every == 0) {
      auto again = run(seed);
      if (!again.ok() || again->EventLog() != report->EventLog()) {
        ++bad_seeds;
        std::printf("seed %llu: NON-DETERMINISTIC event log across reruns\n",
                    static_cast<unsigned long long>(seed));
      }
    }
    std::fflush(stdout);
  }
  std::printf("chaos: %d seeds x %d steps, %llu faults armed, "
              "%llu publish failures, %llu sync rounds, %d bad seed(s)\n",
              opts.seeds, opts.steps,
              static_cast<unsigned long long>(total_faults),
              static_cast<unsigned long long>(total_publish_failures),
              static_cast<unsigned long long>(total_syncs), bad_seeds);
  return bad_seeds == 0 ? 0 : 1;
}
