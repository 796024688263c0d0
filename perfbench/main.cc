// Repository benchmark program: runs one workload and prints one JSON line
// with its end-to-end metrics (and, with --trace 1, its per-layer metrics),
// the correctness verdict, the deterministic digest and run diagnostics.
// perfbench/run.py builds this binary and turns the line into the
// benchmark's result.
//
//   perfbench --workload bulk_100k|heal_1k|churn_10k --seed N --seconds S
//             --trace 0|1 [--trace-out spans.json]

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Summary;

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void WriteMetrics(std::ostream& out, const std::vector<Metric>& metrics) {
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << Quote(metrics[i].name) << ": {\"value\": "
        << metrics[i].value << ", \"unit\": " << Quote(metrics[i].unit)
        << "}";
  }
  out << "}";
}

int Usage() {
  std::cerr << "usage: perfbench --workload bulk_100k|heal_1k|churn_10k "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds < 1) return Usage();

  // End-to-end numbers are serial; the probe opts into 4 threads itself.
  m2m::SetGlobalParallelism(1);
  perfbench::Tracer tracer(options.trace);
  perfbench::RunResult result;
  if (options.workload == "bulk_100k") {
    result = perfbench::RunBulk(options, tracer);
  } else if (options.workload == "heal_1k") {
    result = perfbench::RunHeal(options, tracer);
  } else if (options.workload == "churn_10k") {
    result = perfbench::RunChurn(options, tracer);
  } else {
    return Usage();
  }
  if (options.trace) {
    perfbench::AddSpanMetrics(tracer, result);
    if (!trace_out.empty() && !tracer.WriteJson(trace_out)) {
      result.FailCheck("cannot write " + trace_out);
    }
  }

  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (result.correct() ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed
      << ", \"digest\": " << Quote(result.digest.Hex())
      << ", \"end_to_end\": ";
  WriteMetrics(out, result.end_to_end);
  out << ", \"per_layer\": ";
  WriteMetrics(out, result.per_layer);
  out << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, summary] : result.samples) {
    out << (first ? "" : ", ") << Quote(name) << ": {\"n\": " << summary.count
        << ", \"median\": " << summary.median;
    if (summary.tail_percentile > 0) {
      out << ", \"p" << summary.tail_percentile << "\": " << summary.tail;
    }
    out << "}";
    first = false;
  }
  out << "}, \"info\": {\"host_cpus\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
      << ", \"threads\": 1, \"seed\": " << options.seed
      << ", \"seconds\": " << options.seconds;
  for (const auto& [name, value] : result.info) {
    out << ", " << Quote(name) << ": " << value;
  }
  out << "}, \"errors\": [";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    out << (i ? ", " : "") << Quote(result.errors[i]);
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}
