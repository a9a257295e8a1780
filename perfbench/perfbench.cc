// End-to-end benchmark of the Artemis pipeline (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--pool-base N]
//   perfbench --self-test
//
// --trace 0 sets the workload up eleven times, then repeats it untraced for S seconds (at
// least twice) and prints the end-to-end metrics. --trace 1 runs it once untraced and once
// traced and prints the per-layer metrics. Both run the output checks, print a
// human-readable report, and end with one JSON line: {correct, attempted, failed, metrics}.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/jaguar/support/json.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupRepeats = 11;
constexpr int kMinRepetitions = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_build/out";
  uint64_t pool_base = 0;  // 0 = the pinned pools
  bool self_test = false;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// The q-quantile (nearest rank) of `samples`, reported only when at least 10 samples lie
// beyond it — below that, a tail percentile is one or two runs and says nothing.
std::optional<double> Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n == 0) {
    return std::nullopt;
  }
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < 10) {
    return std::nullopt;
  }
  return samples[index];
}

// The output checks of one run. Every failure is one line of text.
struct CheckInput {
  std::vector<std::string> digests;  // every repetition (and the traced run, if replayed
                                     // through the same library call)
  int reference_reports = 0;         // reports filed on ReferenceJitConfig()
  int non_neutral = 0;               // mutants_non_neutral over every repetition
  std::string error;                 // an exception escaped a unit
};

std::vector<std::string> OutputCheckFailures(const CheckInput& in) {
  std::vector<std::string> failures;
  for (const std::string& digest : in.digests) {
    if (digest != in.digests.front()) {
      failures.push_back("outcome digest differs between repetitions: " + in.digests.front() +
                         " vs " + digest);
      break;
    }
  }
  if (in.reference_reports != 0) {
    failures.push_back("the bug-free reference VM filed " +
                       std::to_string(in.reference_reports) + " report(s)");
  }
  if (in.non_neutral != 0) {
    failures.push_back(std::to_string(in.non_neutral) + " non-neutral mutant(s)");
  }
  if (!in.error.empty()) {
    failures.push_back("a unit threw: " + in.error);
  }
  return failures;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  return Ratio(std::accumulate(v.begin(), v.end(), 0.0), static_cast<double>(v.size()));
}

// Sum of every series of `family` in a Prometheus text exposition.
double PromSum(const std::string& text, const std::string& family) {
  double sum = 0.0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, family.size(), family) != 0 || line.size() <= family.size() ||
        (line[family.size()] != ' ' && line[family.size()] != '{')) {
      continue;
    }
    sum += std::strtod(line.substr(line.rfind(' ') + 1).c_str(), nullptr);
  }
  return sum;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double FileBytes(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

// Bytes of corpus entries: every regular file under the corpus dir except the service's
// journal and metric exports.
double CorpusBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name != "service_journal.jsonl" && name != "metrics.prom" &&
        name != "BENCH_campaign.json") {
      bytes += FileBytes(entry.path());
    }
  }
  return bytes;
}

// Σ over worker threads of the time each was inside an item: per (vendor, thread), from its
// first root span's start to its last root span's end.
double BusySeconds(const std::vector<Span>& spans) {
  std::map<std::pair<std::string, int>, std::pair<int64_t, int64_t>> windows;
  for (const Span& span : spans) {
    if (span.parent != -1) {
      continue;
    }
    const std::string phase = span.item.substr(0, span.item.find('/'));
    auto [it, fresh] = windows.try_emplace({phase, span.thread}, span.start_ns, span.end_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, span.start_ns);
      it->second.second = std::max(it->second.second, span.end_ns);
    }
  }
  double busy = 0.0;
  for (const auto& [key, window] : windows) {
    busy += static_cast<double>(window.second - window.first) / 1e9;
  }
  return busy;
}

std::vector<Metric> EndToEndMetrics(const std::vector<UnitResult>& reps, double setup_s,
                                    double peak_rss_mb) {
  std::vector<double> items_per_s, cpu_per_item, new_traces, causes_per_cpu;
  for (const UnitResult& r : reps) {
    items_per_s.push_back(Ratio(r.items, r.wall_s));
    cpu_per_item.push_back(Ratio(r.cpu_s, r.items));
    new_traces.push_back(Ratio(r.NewTraces(), r.cpu_s));
    causes_per_cpu.push_back(Ratio(r.RootCauses(), r.cpu_s));
  }
  return {
      {"setup_s", setup_s, "s"},
      {"items_per_s", Median(items_per_s), "1/s"},
      {"cpu_s_per_item", Median(cpu_per_item), "s"},
      {"new_traces_per_cpu_s", Median(new_traces), "1/s"},
      {"root_causes", static_cast<double>(reps.front().RootCauses()), "count"},
      {"root_causes_per_cpu_s", Median(causes_per_cpu), "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

struct TracedRun {
  UnitResult untraced;
  UnitResult traced;
  std::vector<Span> spans;
  ReplayCounts counts;
  std::string prom;  // the service's exported metrics.prom
  bool stale = false;
};

bool Stale(const Workload workload, const TracedRun& t) {
  if (t.untraced.Digest() != t.traced.Digest()) {
    return true;
  }
  if (workload == Workload::kServiceSandbox) {
    return false;  // both runs are the same library call; the digest says it all
  }
  int mutants = 0, discarded = 0, new_trace = 0, stress = 0;
  for (const artemis::CampaignStats& s : t.untraced.stats) {
    mutants += s.mutants_generated;
    discarded += s.mutants_discarded;
    new_trace += s.mutants_new_trace;
    stress += s.stress_points;
  }
  const ReplayCounts& c = t.counts;
  return mutants != c.mutants ||
         discarded != c.discard_interp_timeout + c.discard_jit_timeout + c.discard_non_neutral ||
         new_trace != c.new_trace || stress != c.stress_points ||
         t.untraced.VmRuns() != t.traced.VmRuns();
}

std::vector<Metric> PerLayerMetrics(const Plan& plan, const TracedRun& t,
                                    jaguar::observe::MetricsRegistry& registry,
                                    std::vector<std::string>* notes) {
  const std::map<std::string, double> self = SelfSecondsByName(t.spans);
  auto self_s = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> runs;
  std::map<std::string, double> steps;
  std::vector<double> shard_s;
  for (const Span& span : t.spans) {
    runs[span.name] += 1;
    steps[span.name] += static_cast<double>(span.steps);
    if (span.name == "RunSeedShard") {
      shard_s.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e9);
    }
  }
  const ReplayCounts& c = t.counts;
  const double interp_s = self_s("RunProgram.interp");
  const double jit_s = self_s("RunProgram.jit");
  const double stress_s = self_s("RunProgram.stress");
  const double triage_s = self_s("TriageDiscrepancy");
  const double compile_s = registry.SumHistograms("jaguar_jit_compile_us").sum / 1e6;
  const double compiles = static_cast<double>(
      registry.GetCounter("jaguar_jit_compilations_total", "JIT compilations (method + OSR)")
          ->value());

  double layers_s = 0.0;
  std::string largest;
  for (const auto& [name, s] : self) {
    layers_s += s;
    if (largest.empty() || s > self.at(largest)) {
      largest = name;
    }
  }
  notes->push_back("largest self-time span: " + largest + " (" + std::to_string(self_s(largest)) +
                   " s of " + std::to_string(layers_s) + " s)");
  const double busy_s = plan.workload == Workload::kServiceSandbox ? t.traced.wall_s
                                                                    : BusySeconds(t.spans);

  std::vector<double> round_s;
  double corpus_bytes = 0.0, journal_bytes = 0.0;
  if (plan.workload == Workload::kServiceSandbox) {
    double previous = 0.0;
    for (const artemis::ServiceSnapshot& snap : t.traced.service.trajectory) {
      round_s.push_back(snap.elapsed - previous);
      previous = snap.elapsed;
    }
    corpus_bytes = CorpusBytes(t.traced.corpus_dir);
    journal_bytes = FileBytes(fs::path(t.traced.corpus_dir) / "service_journal.jsonl");
  }

  // Percentiles appear in the text report only where the sample supports them.
  auto note_percentile = [&](const std::string& name, const std::vector<double>& samples,
                             double q) {
    const std::optional<double> p = Percentile(samples, q);
    notes->push_back(name + " = " +
                     (p ? std::to_string(*p) + " s"
                        : "n/a (" + std::to_string(samples.size()) +
                              " samples; needs 10 beyond the percentile)"));
  };
  note_percentile("campaign.shard_s.p50", shard_s, 0.5);
  note_percentile("campaign.shard_s.p90", shard_s, 0.9);
  note_percentile("service.round_s.p50", round_s, 0.5);

  const double threads = plan.threads;
  const UnitResult& u = t.untraced;
  return {
      {"fuzzer.s", self_s("GenerateProgram"), "s"},
      {"mutate.s", self_s("JoNM"), "s"},
      {"mutate.mutants", static_cast<double>(c.mutants), "count"},
      {"mutate.discard.interp_timeout", static_cast<double>(c.discard_interp_timeout), "count"},
      {"mutate.discard.jit_timeout", static_cast<double>(c.discard_jit_timeout), "count"},
      {"mutate.discard.non_neutral", static_cast<double>(c.discard_non_neutral), "count"},
      {"mutate.wasted_step_ratio",
       Ratio(static_cast<double>(c.steps_discarded), static_cast<double>(c.steps_all)), "ratio"},
      {"mutate.new_trace_ratio", Ratio(c.new_trace, c.mutants), "ratio"},
      {"bytecode.s", self_s("CompileProgram"), "s"},
      {"bytecode.programs", runs["CompileProgram"], "count"},
      {"vm.interp.s", interp_s, "s"},
      {"vm.interp.runs", runs["RunProgram.interp"], "count"},
      {"vm.interp.steps", steps["RunProgram.interp"], "count"},
      {"vm.interp.msteps_per_s", Ratio(steps["RunProgram.interp"] / 1e6, interp_s), "Msteps/s"},
      {"jit.run.s", jit_s, "s"},
      {"jit.run.runs", runs["RunProgram.jit"], "count"},
      {"jit.run.steps", steps["RunProgram.jit"], "count"},
      {"jit.compile.s", compile_s, "s"},
      {"jit.compiles", compiles, "count"},
      {"jit.compile_share", Ratio(compile_s, jit_s + stress_s), "ratio"},
      {"jit.stress.s", stress_s, "s"},
      {"jit.stress.runs", runs["RunProgram.stress"], "count"},
      {"triage.s", triage_s, "s"},
      {"triage.calls", static_cast<double>(c.triage_calls), "count"},
      {"triage.vm_runs", static_cast<double>(c.triage_runs), "count"},
      {"triage.runs_per_call", Ratio(c.triage_runs, c.triage_calls), "count"},
      {"triage.attributed_ratio", Ratio(c.triage_attributed, c.triage_calls), "ratio"},
      {"validate.self_s", self_s("RunSeedShard"), "s"},
      {"campaign.shard_s.mean", Mean(shard_s), "s"},
      {"campaign.shard_s.max",
       shard_s.empty() ? 0.0 : *std::max_element(shard_s.begin(), shard_s.end()), "s"},
      {"campaign.vm_runs_per_item", Ratio(static_cast<double>(u.VmRuns()), u.items), "count"},
      {"campaign.parallel_efficiency", Ratio(u.cpu_s, threads * u.wall_s), "ratio"},
      {"service.s", self_s("RunService"), "s"},
      {"service.round_s.mean", Mean(round_s), "s"},
      {"corpus.admitted", static_cast<double>(t.traced.service.corpus_admitted), "count"},
      {"corpus.bytes", corpus_bytes, "B"},
      {"journal.bytes", journal_bytes, "B"},
      {"sandbox.spawns", PromSum(t.prom, "artemis_sandbox_spawns_total"), "count"},
      {"sandbox.retries", PromSum(t.prom, "artemis_sandbox_retries_total"), "count"},
      {"sandbox.kills", PromSum(t.prom, "artemis_sandbox_kills_total"), "count"},
      {"sandbox.quarantined", PromSum(t.prom, "artemis_sandbox_quarantined_total"), "count"},
      {"sandbox.child_cpu_share", Ratio(t.traced.child_cpu_s, t.traced.cpu_s), "ratio"},
      {"error_frac", Ratio(u.errors, u.items), "ratio"},
      {"trace.coverage", Ratio(layers_s, busy_s), "ratio"},
      {"trace.overhead", Ratio(t.traced.wall_s, u.wall_s), "ratio"},
      {"trace.stale", t.stale ? 1.0 : 0.0, "bool"},
  };
}

std::string ResultJson(bool correct, int attempted, int failed,
                       const std::vector<Metric>& metrics) {
  jaguar::Json values = jaguar::Json::Object();
  for (const Metric& m : metrics) {
    jaguar::Json entry = jaguar::Json::Object();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    values.Set(m.name, entry);
  }
  jaguar::Json out = jaguar::Json::Object();
  out.Set("correct", correct);
  out.Set("attempted", attempted);
  out.Set("failed", failed);
  out.Set("metrics", values);
  return out.Dump();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--pool-base") {
      args->pool_base = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--out") {
      args->out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      std::fprintf(stderr, "perfbench: %s: not a number: %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  return args->self_test || ((args->trace == 0 || args->trace == 1) && args->seconds > 0);
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) {
    twenty.push_back(i);
  }
  expect(Percentile(twenty, 0.5) == 10.0, "p50 of 1..20 is 10 (10 samples beyond)");
  expect(!Percentile(twenty, 0.9).has_value(), "p90 of 20 samples is not reported");
  expect(!Percentile({1, 2, 3}, 0.5).has_value(), "p50 of 3 samples is not reported");

  CheckInput clean{{"00aa", "00aa", "00aa"}, 0, 0, ""};
  expect(OutputCheckFailures(clean).empty(), "identical digests pass");
  CheckInput perturbed = clean;
  perturbed.digests[2] = "00ab";
  expect(OutputCheckFailures(perturbed).size() == 1, "a perturbed digest fails");
  CheckInput reported = clean;
  reported.reference_reports = 1;
  expect(OutputCheckFailures(reported).size() == 1, "a report on the bug-free VM fails");
  CheckInput non_neutral = clean;
  non_neutral.non_neutral = 2;
  expect(OutputCheckFailures(non_neutral).size() == 1, "a non-neutral mutant fails");

  expect(PromSum("# HELP x_total y\nx_total 3\nx_total_other 9\nx_total{a=\"b\"} 4\n",
                 "x_total") == 7.0,
         "prometheus family sum skips other families");
  return failures == 0 ? 0 : 1;
}

int Run(const Args& args, Workload workload) {
  const std::string dir = args.out + "/" + WorkloadName(workload);

  std::vector<double> setups;
  Plan plan;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    plan = Setup(workload, dir, args.pool_base);
    setups.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }

  CheckInput checks;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  int attempted = 0;
  int failed = 0;
  auto account = [&](const UnitResult& r) {
    attempted += r.items;
    failed += r.errors;
    checks.non_neutral += r.NonNeutral();
    if (!r.error.empty()) {
      checks.error = r.error;
    }
  };

  if (args.trace == 0) {
    std::vector<UnitResult> reps;
    const auto start = std::chrono::steady_clock::now();
    while (static_cast<int>(reps.size()) < kMinRepetitions ||
           std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
               args.seconds) {
      reps.push_back(RunUnit(plan, "rep" + std::to_string(reps.size())));
      account(reps.back());
      checks.digests.push_back(reps.back().Digest());
    }
    metrics = EndToEndMetrics(reps, Median(setups), PeakRssMb());
    for (size_t i = 0; i < reps.size(); ++i) {
      notes.push_back("rep " + std::to_string(i) + ": " + std::to_string(reps[i].items) +
                      " items in " + std::to_string(reps[i].wall_s) + " s wall, " +
                      std::to_string(reps[i].cpu_s) + " s cpu, digest " + reps[i].Digest());
    }
  } else {
    TracedRun t;
    t.untraced = RunUnit(plan, "untraced");
    account(t.untraced);
    checks.digests.push_back(t.untraced.Digest());
    jaguar::observe::MetricsRegistry registry;
    SpanRecorder recorder;
    t.traced = RunTraced(plan, &recorder, &t.counts, &registry);
    account(t.traced);
    t.spans = recorder.spans();
    if (workload == Workload::kServiceSandbox) {
      t.prom = ReadFile(t.traced.corpus_dir + "/metrics.prom");
      checks.digests.push_back(t.traced.Digest());
    }
    t.stale = Stale(workload, t);
    metrics = PerLayerMetrics(plan, t, registry, &notes);
    std::ofstream(dir + "/spans.jsonl") << recorder.ToJsonLines();
    notes.push_back("untraced digest " + t.untraced.Digest() + ", traced digest " +
                    t.traced.Digest() + (t.stale ? " (trace STALE)" : " (trace fresh)"));
    notes.push_back("spans: " + std::to_string(t.spans.size()) + " written to " + dir +
                    "/spans.jsonl");
  }

  // The pinned pool's reference verdict is the same every run, so only the traced run
  // repeats it; the held-out program changes with --seed and is checked on every run.
  const UnitResult reference = RunReference(plan, args.seed, args.trace == 1);
  checks.reference_reports = reference.Reports();
  checks.non_neutral += reference.NonNeutral();
  if (!reference.error.empty()) {
    checks.error = reference.error;
  }
  const std::vector<std::string> failures = OutputCheckFailures(checks);

  std::string setup_text;
  for (double s : setups) {
    setup_text += " " + std::to_string(s);
  }
  std::printf("workload %s  seed %llu  trace %d  setup_s%s\n", WorkloadName(workload),
              static_cast<unsigned long long>(args.seed), args.trace, setup_text.c_str());
  std::printf("outcome digest %s\n", checks.digests.front().c_str());
  for (const std::string& note : notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("reference VM: %d report(s) over %d item(s), digest %s\n",
              checks.reference_reports, reference.items, reference.Digest().c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", ResultJson(failures.empty(), attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--pool-base N] | --self-test\n");
    return 2;
  }
  if (args.self_test) {
    return perfbench::SelfTest();
  }
  perfbench::Workload workload;
  if (!perfbench::ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return perfbench::Run(args, workload);
}
