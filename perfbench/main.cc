// perfbench: runs one round of one workload of the repository benchmark
// and prints one JSON line with the round's parameters, its checks and
// its metrics. perfbench/run.py runs the rounds of a run, each in a
// process of its own, and aggregates them.
//
//   perfbench --workload fanout|durable|crawl --seed N --traced 0|1
//             --scratch DIR [--trace-file PATH]
//   perfbench --probe
//
// A round builds its inputs from --seed, times its set-up, runs a fixed
// number of ops per client thread and checks the outcome; a failed check
// prints the line with "correct": false and exits 1. --probe times the
// fixed CPU loop and prints its milliseconds.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "obs/export.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RoundInputs;
using perfbench::RoundResult;

struct Workload {
  std::function<RoundResult(const RoundInputs&)> run;
  std::map<std::string, long> params;  ///< fixed sizes, all recorded
};

std::map<std::string, Workload> Workloads() {
  std::map<std::string, Workload> w;
  w["fanout"] = {perfbench::RunFanoutRound,
                 {{"groups", 8},
                  {"values", 16},
                  {"initial_facts", 4},
                  {"sessions", 512},
                  {"pollers", 2},
                  {"applies", 1200},
                  {"polls_per_apply", 200},
                  {"scrape_every", 200},
                  {"engine_threads", 1}}};
  w["durable"] = {perfbench::RunDurableRound,
                  {{"groups", 8},
                   {"values", 16},
                   {"initial_facts", 4},
                   {"appliers", 2},
                   {"applies_per_applier", 1000},
                   {"polls_per_apply", 2},
                   {"prologue_applies", 400},
                   {"snapshot_every", 500},
                   {"retry_attempts", 4},
                   {"engine_threads", 1}}};
  w["crawl"] = {perfbench::RunCrawlRound,
                {{"queries", 4},
                 {"items", 80},
                 {"sellers", 30},
                 {"seed_items", 24},
                 {"max_steps", 1000},
                 {"engine_threads", 1}}};
  return w;
}

/// Client threads and connections, from the sizes the workloads read:
/// fanout runs one applier and `pollers` poller threads over in-process
/// channels; durable runs `appliers` applier threads plus one subscriber
/// thread, one TCP connection each; crawl runs its one driver thread.
std::map<std::string, long> ClientShape(const std::string& workload,
                                        const RoundInputs& in) {
  if (workload == "fanout") {
    return {{"client_threads", in.Param("pollers") + 1}, {"connections", 0}};
  }
  if (workload == "durable") {
    const long threads = in.Param("appliers") + 1;
    return {{"client_threads", threads}, {"connections", threads}};
  }
  return {{"client_threads", 1}, {"connections", 0}};
}

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && model.front() == ' ') model.erase(0, 1);
        while (!model.empty() && model.back() == '\n') model.pop_back();
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fanout|durable|crawl --seed N "
               "--traced 0|1 --scratch DIR [--trace-file PATH]\n"
               "       perfbench --probe\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--probe") == 0) {
    std::printf("%.6f\n", perfbench::CpuProbeMs());
    return 0;
  }
  std::string workload_name;
  RoundInputs in;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      in.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--traced") {
      in.traced = value == "1";
    } else if (flag == "--scratch") {
      in.scratch_dir = value;
    } else if (flag == "--trace-file") {
      in.trace_file = value;
    } else {
      return Usage();
    }
  }
  std::map<std::string, Workload> workloads = Workloads();
  auto it = workloads.find(workload_name);
  if (it == workloads.end() || in.scratch_dir.empty()) return Usage();
  const Workload& workload = it->second;
  in.params = workload.params;
  std::error_code ec;
  std::filesystem::create_directories(in.scratch_dir, ec);

  const uint64_t start = perfbench::NowNs();
  RoundResult r = workload.run(in);
  r.metrics["report.round_s"] =
      static_cast<double>(perfbench::NowNs() - start) / 1e9;

  rar::JsonWriter jw;
  jw.BeginObject().Key("params").BeginObject();
  jw.Field("workload", workload_name)
      .Field("round_seed", in.seed)
      .Field("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Field("cpu_model", CpuModel())
      .Field("compiler", PERFBENCH_COMPILER)
      .Field("build_type", PERFBENCH_BUILD_TYPE);
  for (const auto& [k, v] : workload.params) {
    jw.Field(k, static_cast<int64_t>(v));
  }
  for (const auto& [k, v] : ClientShape(workload_name, in)) {
    jw.Field(k, static_cast<int64_t>(v));
  }
  if (workload_name == "durable") {
    jw.Field("fsync_policy", "group_commit")
        .Field("wal_filesystem", perfbench::FilesystemName(in.scratch_dir))
        .Field("wal_sync", "tmpfs semantics: fsync issued, not waited on");
  }
  jw.EndObject();
  jw.Field("correct", r.correct)
      .Field("error", r.error)
      .Field("attempted", r.attempted)
      .Field("failed", r.failed);
  jw.Key("metrics").BeginObject();
  for (const auto& [name, value] : r.metrics) jw.Field(name, value);
  jw.EndObject().EndObject();
  std::printf("%s\n", jw.str().c_str());
  return r.correct ? 0 : 1;
}
