#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <filesystem>
#include <set>
#include <utility>

#include "src/artemis/campaign/reducer.h"
#include "src/artemis/campaign/worker_pool.h"
#include "src/artemis/fuzzer/generator.h"
#include "src/jaguar/bytecode/compiler.h"
#include "src/jaguar/observe/tracer.h"
#include "src/jaguar/support/json.h"
#include "src/jaguar/vm/engine.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Pinned program pools: consecutive seeds of the campaign default stream (20260707 + i). The
// inputs are pinned rather than drawn from --seed because one paper-parameter item costs
// 0.1 s to 15 s (README.md, "Why the pools are pinned").
constexpr uint64_t kHotSniffBase = 20260710;
constexpr int kHotSniffSeeds = 5;
constexpr uint64_t kTriageBase = 20260710;
constexpr int kTriageSeeds = 2;
constexpr uint64_t kServiceBase = 20260710;
constexpr int kServiceRounds = 2;
constexpr int kServiceFreshPerRound = 2;
// No corpus re-mutation: a re-mutated entry costs about 10 s, so the sandbox's 10 s watchdog
// quarantines it depending on machine load and the digest stops repeating (README.md).
constexpr int kServiceCorpusPerRound = 0;

struct Clock {
  std::chrono::steady_clock::time_point wall = std::chrono::steady_clock::now();
  double self_cpu = SelfCpu();
  double child_cpu = ChildCpu();

  static double Seconds(const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
  }
  static double SelfCpu() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return Seconds(u);
  }
  static double ChildCpu() {
    rusage u{};
    getrusage(RUSAGE_CHILDREN, &u);
    return Seconds(u);
  }

  void Stop(UnitResult* out) const {
    out->wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall).count();
    out->child_cpu_s = ChildCpu() - child_cpu;
    out->cpu_s = SelfCpu() - self_cpu + out->child_cpu_s;
  }
};

// The paper's §4.1 parameters: MAX_ITER 8 and per-vendor loop bounds.
artemis::CampaignParams PaperParams(const jaguar::VmConfig& vm, uint64_t base, int seeds) {
  artemis::CampaignParams params;
  params.base_seed = base;
  params.num_seeds = seeds;
  params.validator.max_iter = 8;
  const bool art = vm.name == "Artree";
  params.validator.jonm.synth.min_bound = art ? 20'000 : 5'000;
  params.validator.jonm.synth.max_bound = art ? 50'000 : 10'000;
  return params;
}

artemis::ServiceParams ServiceParamsFor(const artemis::CampaignParams& campaign,
                                        const std::string& corpus_dir) {
  artemis::ServiceParams service;
  service.campaign = campaign;
  service.corpus_dir = corpus_dir;
  service.rounds = kServiceRounds;
  service.fresh_seeds_per_round = kServiceFreshPerRound;
  service.corpus_mutations_per_round = kServiceCorpusPerRound;
  service.admission = true;
  return service;
}

std::string FreshDir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void RunCampaigns(const Plan& plan, const std::vector<jaguar::VmConfig>& vendors,
                  UnitResult* out) {
  for (size_t v = 0; v < vendors.size(); ++v) {
    out->items += plan.params[v].num_seeds;
    out->stats.push_back(artemis::RunCampaign(vendors[v], plan.params[v]));
  }
}

void RunServiceUnit(const jaguar::VmConfig& vm,
                    const artemis::ServiceParams& params, UnitResult* out) {
  out->corpus_dir = FreshDir(params.corpus_dir);
  out->service = artemis::RunService(vm, params);
  out->stats.push_back(out->service.totals);
  out->items += out->service.totals.seeds_run;
  out->errors += out->service.totals.seeds_quarantined;
}

// Runs `body`, timing it and turning an escaping exception into a failed unit.
template <typename F>
UnitResult Measure(F&& body) {
  UnitResult out;
  const Clock clock;
  try {
    body(&out);
  } catch (const std::exception& e) {
    out.error = e.what();
    out.errors = out.items > 0 ? out.items : 1;
  }
  clock.Stop(&out);
  return out;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kCampaignHotSniff, Workload::kCampaign3VendorTriage,
                     Workload::kServiceSandbox}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kCampaignHotSniff: return "campaign_hotsniff";
    case Workload::kCampaign3VendorTriage: return "campaign_3vendor_triage";
    case Workload::kServiceSandbox: return "service_sandbox";
  }
  return "?";
}

Plan Setup(Workload workload, const std::string& dir, uint64_t pool_base) {
  Plan plan;
  plan.workload = workload;
  plan.dir = FreshDir(dir);
  switch (workload) {
    case Workload::kCampaignHotSniff:
      plan.vendors = {jaguar::HotSniffConfig()};
      plan.params = {PaperParams(plan.vendors[0], kHotSniffBase, kHotSniffSeeds)};
      break;
    case Workload::kCampaign3VendorTriage:
      plan.threads = 2;
      plan.vendors = jaguar::AllVendors();
      for (const jaguar::VmConfig& vm : plan.vendors) {
        artemis::CampaignParams params = PaperParams(vm, kTriageBase, kTriageSeeds);
        params.triage = true;
        params.validator.stress_seeds = 2;
        plan.params.push_back(params);
      }
      break;
    case Workload::kServiceSandbox: {
      plan.vendors = {jaguar::HotSniffConfig()};
      artemis::CampaignParams params = PaperParams(plan.vendors[0], kServiceBase, 0);
      params.isolation = artemis::IsolationMode::kSandbox;
      params.validator.compile.mode = jaguar::CompileMode::kScheduled;
      plan.params = {params};
      break;
    }
  }
  for (artemis::CampaignParams& params : plan.params) {
    params.num_threads = plan.threads;
    params.base_seed = pool_base != 0 ? pool_base : params.base_seed;
  }
  if (workload == Workload::kServiceSandbox) {
    plan.service = ServiceParamsFor(plan.params[0], plan.dir + "/corpus");
  }

  // Warm-up and lazy initialisation: every pool seed program once through the bytecode
  // compiler, the interpreter and each vendor's JIT.
  const uint64_t base = plan.params[0].base_seed;
  const int seeds = workload == Workload::kServiceSandbox
                        ? kServiceRounds * kServiceFreshPerRound
                        : plan.params[0].num_seeds;
  for (int i = 0; i < seeds; ++i) {
    const jaguar::BcProgram bc = jaguar::CompileProgram(
        artemis::GenerateProgram(plan.params[0].fuzz, base + static_cast<uint64_t>(i)));
    jaguar::RunProgram(bc, jaguar::InterpreterOnlyConfig());
    for (const jaguar::VmConfig& vm : plan.vendors) {
      jaguar::RunProgram(bc, vm);
    }
  }
  return plan;
}

std::string UnitResult::Digest() const {
  if (stats.size() == 1) {
    return stats[0].OutcomeDigest();
  }
  std::string canon;
  for (const artemis::CampaignStats& s : stats) {
    canon += s.vm_name + "=" + s.OutcomeDigest() + ";";
  }
  return jaguar::Hex64(jaguar::Fnv1a64(canon));
}

int UnitResult::RootCauses() const {
  std::set<jaguar::BugId> causes;
  for (const artemis::CampaignStats& s : stats) {
    const std::set<jaguar::BugId> found = s.DistinctRootCauses();
    causes.insert(found.begin(), found.end());
  }
  return static_cast<int>(causes.size());
}

int UnitResult::NewTraces() const {
  int n = 0;
  for (const artemis::CampaignStats& s : stats) {
    n += s.mutants_new_trace;
  }
  return n;
}

int UnitResult::NonNeutral() const {
  int n = 0;
  for (const artemis::CampaignStats& s : stats) {
    n += s.mutants_non_neutral;
  }
  return n;
}

int UnitResult::Reports() const {
  int n = 0;
  for (const artemis::CampaignStats& s : stats) {
    n += s.Reported();
  }
  return n;
}

uint64_t UnitResult::VmRuns() const {
  uint64_t n = 0;
  for (const artemis::CampaignStats& s : stats) {
    n += s.vm_invocations;
  }
  return n;
}

UnitResult RunUnit(const Plan& plan, const std::string& tag) {
  return Measure([&](UnitResult* out) {
    if (plan.workload == Workload::kServiceSandbox) {
      artemis::ServiceParams params = plan.service;
      params.corpus_dir = plan.dir + "/corpus-" + tag;
      RunServiceUnit(plan.vendors[0], params, out);
    } else {
      RunCampaigns(plan, plan.vendors, out);
    }
  });
}

UnitResult RunReference(const Plan& plan, uint64_t seed, bool pool) {
  const jaguar::VmConfig reference = jaguar::ReferenceJitConfig();
  return Measure([&](UnitResult* out) {
    // Same exploration settings as the workload's first vendor, in process; triage has
    // nothing to do when nothing is filed.
    Plan ref = plan;
    ref.params = {plan.params[0]};
    ref.params[0].triage = false;
    ref.params[0].isolation = artemis::IsolationMode::kInProcess;
    if (pool && plan.workload == Workload::kServiceSandbox) {
      artemis::ServiceParams params = plan.service;
      params.campaign = ref.params[0];
      params.corpus_dir = plan.dir + "/corpus-reference";
      RunServiceUnit(reference, params, out);
    } else if (pool) {
      RunCampaigns(ref, {reference}, out);
    }
    ref.params[0].base_seed = seed;
    ref.params[0].num_seeds = 1;
    RunCampaigns(ref, {reference}, out);
  });
}

UnitResult RunTraced(const Plan& plan, SpanRecorder* recorder, ReplayCounts* counts,
                     jaguar::observe::MetricsRegistry* registry) {
  jaguar::observe::Observer observer;
  observer.metrics = registry;
  return Measure([&](UnitResult* out) {
    if (plan.workload == Workload::kServiceSandbox) {
      jaguar::VmConfig vm = plan.vendors[0];
      vm.observer = &observer;
      artemis::ServiceParams params = plan.service;
      params.corpus_dir = plan.dir + "/corpus-traced";
      ScopedSpan span(recorder, "RunService", "");
      RunServiceUnit(vm, params, out);
      return;
    }
    for (size_t v = 0; v < plan.vendors.size(); ++v) {
      const artemis::CampaignParams& params = plan.params[v];
      jaguar::VmConfig vm = plan.vendors[v];
      vm.step_budget = params.step_budget;
      vm.observer = &observer;
      std::vector<artemis::SeedShardResult> slots(static_cast<size_t>(params.num_seeds));
      std::vector<ReplayCounts> slot_counts(slots.size());
      artemis::ParallelFor(params.num_seeds, plan.threads, [&](int s) {
        const size_t i = static_cast<size_t>(s);
        slots[i] = ReplaySeedShard(vm, params, s, recorder, &slot_counts[i]);
      });
      artemis::CampaignStats stats;
      stats.vm_name = vm.name;
      artemis::CampaignReducer reducer{&stats};
      for (size_t i = 0; i < slots.size(); ++i) {
        reducer.Reduce(std::move(slots[i]));
        counts->Add(slot_counts[i]);
      }
      out->items += params.num_seeds;
      out->stats.push_back(std::move(stats));
    }
  });
}

}  // namespace perfbench
