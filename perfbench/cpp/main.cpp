//===- perfbench/cpp/main.cpp - The benchmark's command line --------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and prints a report followed by one JSON result line:
//
//   perfbench --workload writes-tcp|reads-bus|failover-bus --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics of a
// traced run. Exit 0 iff every correctness gate held; 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

using namespace adore;
using namespace adore::perfbench;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s --workload writes-tcp|reads-bus|failover-bus "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               Prog);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  const char *End = S + std::strlen(S);
  auto [P, Ec] = std::from_chars(S, End, Out);
  return Ec == std::errc() && P == End && P != S;
}

/// Shortest text that reads back as the same double (valid JSON for
/// finite values).
std::string num(double V) {
  char Buf[64];
  auto [P, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, P) : std::string("0");
}

void printSection(const char *Title, const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("%-13s %-40s %14s %-6s %s\n", Title, M.Name.c_str(),
                num(M.Value).c_str(), M.Unit.c_str(),
                M.Basis.empty() ? "" : ("(" + M.Basis + ")").c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs Args;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(Argv[0]);
    const char *Val = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      Args.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--seed" && parseU64(Val, N)) {
      Args.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseU64(Val, N) && N >= 1 &&
               N <= 60) {
      Args.Seconds = static_cast<unsigned>(N);
      HaveSeconds = true;
    } else if (Flag == "--trace" && parseU64(Val, N) && N <= 1) {
      Args.Trace = N == 1;
      HaveTrace = true;
    } else if (Flag == "--workdir") {
      Args.WorkDir = Val;
    } else {
      return usage(Argv[0]);
    }
  }
  bool Known = false;
  for (const std::string &W : workloadNames())
    Known |= W == Args.Workload;
  if (!HaveWorkload || !Known || !HaveSeed || !HaveSeconds || !HaveTrace ||
      Args.WorkDir.empty())
    return usage(Argv[0]);

  std::printf("perfbench workload=%s seed=%llu seconds=%u trace=%d\n",
              Args.Workload.c_str(), (unsigned long long)Args.Seed,
              Args.Seconds, Args.Trace ? 1 : 0);
  std::fflush(stdout);
  RunReport Rep = runBenchmark(Args);

  printSection("end_to_end", Rep.EndToEnd);
  printSection("reported", Rep.Reported);
  printSection("per_layer", Rep.PerLayer);
  if (!Rep.SpanFile.empty())
    std::printf("spans written to %s\n", Rep.SpanFile.c_str());
  for (const std::string &G : Rep.GateFailures)
    std::printf("GATE FAILED: %s\n", G.c_str());
  bool Correct = Rep.GateFailures.empty();
  std::printf("gates: %s\n", Correct ? "all held" : "FAILED");

  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Rep.Attempted);
  Json += ", \"failed\": " + std::to_string(Rep.Failed);
  Json += ", \"metrics\": {";
  const std::vector<Metric> &Out = Args.Trace ? Rep.PerLayer : Rep.EndToEnd;
  for (size_t I = 0; I != Out.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"" + Out[I].Name + "\": {\"value\": " + num(Out[I].Value) +
            ", \"unit\": \"" + Out[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
