// ODNET benchmark program. Runs one workload of the paper's model against
// the library and prints its metrics as one JSON line:
//
//   odnet_bench --workload serve|eval|train|train_ps --seed N --seconds S
//               [--trace 0|1] [--trace-file PATH]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write their spans as a Chrome trace. README.md in
// this directory describes the workloads and every metric.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "odbench/harness.h"
#include "src/tensor/cpu_capability.h"

extern char** environ;

namespace odbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "odnet_bench: %s\nusage: odnet_bench --workload "
               "serve|eval|train|train_ps --seed N --seconds S [--trace 0|1] "
               "[--trace-file PATH]\n",
               why);
  return 2;
}

/// ODNET_* variables change what is measured (pool width, parallel
/// threshold, plan fusion, CPU tier, telemetry), so none may be set.
std::vector<std::string> OdnetEnvironment() {
  std::vector<std::string> found;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ODNET_", 6) == 0) {
      found.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  return found;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0 && args->seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    *error = "--workload, --seed and a positive --seconds are required";
    return false;
  }
  const std::string& w = args->workload;
  if (w != "serve" && w != "eval" && w != "train" && w != "train_ps") {
    *error = "unknown workload " + w;
    return false;
  }
  return true;
}

/// Self time per span name, largest first, as "# self_ms" lines.
void PrintProfile(const SpanRecorder& spans) {
  std::vector<std::pair<std::string, double>> rows;
  for (const auto& [name, ns] : spans.SelfTimeByName()) {
    rows.emplace_back(name, ns / 1e6);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [name, ms] : rows) {
    std::printf("# self_ms %s: %.3f\n", name.c_str(), ms);
  }
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  const std::vector<std::string> env = OdnetEnvironment();
  if (!env.empty()) {
    std::string names;
    for (const std::string& n : env) names += " " + n;
    std::fprintf(stderr,
                 "odnet_bench: refusing to run with ODNET_* set:%s\n",
                 names.c_str());
    return 2;
  }

  Report::Info("workload", args.workload);
  Report::Info("seed", std::to_string(args.seed));
  Report::Info("seconds", std::to_string(args.seconds));
  Report::Info("trace", args.trace ? "1" : "0");
  Report::Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  Report::Info("cpu_tier", odnet::tensor::CpuCapabilityName(
                               odnet::tensor::ActiveCpuCapability()));
  Report::Info("build_type", ODBENCH_BUILD_TYPE);
  Report::Info("compiler", ODBENCH_COMPILER);
  Report::Info("users", std::to_string(kNumUsers));
  Report::Info("cities", std::to_string(kNumCities));
  std::fflush(stdout);

  Report report;
  SpanRecorder spans(args.trace);
  if (args.workload == "serve") {
    RunServe(args, &spans, &report);
  } else if (args.workload == "eval") {
    RunEval(args, &spans, &report);
  } else {
    RunTrain(args, args.workload == "train_ps", &spans, &report);
  }
  if (args.trace) {
    PrintProfile(spans);
    if (!spans.WriteChromeTrace(args.trace_file)) {
      report.CheckFailed("cannot write trace file " + args.trace_file);
    }
    Report::Info("trace_file", args.trace_file);
    Report::Info("spans", std::to_string(spans.size()));
  }
  report.PrintPhaseCounts();
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace odbench

int main(int argc, char** argv) { return odbench::Main(argc, argv); }
