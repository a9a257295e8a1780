// The benchmark's three workloads: what set-up prepares, and one repetition ("unit") of each,
// run untraced through the libraries, traced through the replay, or on the bug-free VM.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/artemis/campaign/campaign.h"
#include "src/artemis/service/service.h"
#include "src/jaguar/observe/metrics.h"

namespace perfbench {

enum class Workload { kCampaignHotSniff, kCampaign3VendorTriage, kServiceSandbox };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// Everything set-up prepares for a workload.
struct Plan {
  Workload workload = Workload::kCampaignHotSniff;
  std::vector<jaguar::VmConfig> vendors;
  std::vector<artemis::CampaignParams> params;  // one per vendor
  artemis::ServiceParams service;               // kServiceSandbox only
  int threads = 1;
  std::string dir;  // scratch directory of this run, inside the checkout
};

// Builds the configs, creates a fresh scratch directory `dir` and warms the VM up on the
// pool's seed programs (generate, compile, one interpreter and one JIT run per vendor).
// `pool_base` != 0 replaces the pinned program pool's first seed.
Plan Setup(Workload workload, const std::string& dir, uint64_t pool_base);

struct UnitResult {
  std::vector<artemis::CampaignStats> stats;  // one per vendor; the service: lifetime totals
  artemis::ServiceStats service;              // kServiceSandbox only
  double wall_s = 0.0;
  double cpu_s = 0.0;        // user + sys of this process and its reaped children
  double child_cpu_s = 0.0;  // ... of which the reaped children
  int items = 0;             // programs validated × vendors
  int errors = 0;            // items that threw or were quarantined
  std::string error;         // what threw, when something did
  std::string corpus_dir;    // kServiceSandbox only

  std::string Digest() const;  // OutcomeDigest over every vendor, in vendor order
  int RootCauses() const;      // distinct injected defects over every vendor
  int NewTraces() const;
  int NonNeutral() const;
  int Reports() const;
  uint64_t VmRuns() const;
};

// One untraced repetition through RunCampaign / RunService. `tag` names its corpus dir.
UnitResult RunUnit(const Plan& plan, const std::string& tag);

// The held-out program of generator seed `seed` on ReferenceJitConfig() (no injected
// defects, in process, no triage), with the workload's exploration settings; with `pool`,
// first the workload's own seeds the same way.
UnitResult RunReference(const Plan& plan, uint64_t seed, bool pool);

// One traced repetition. Campaign workloads replay every item span by span; the service
// runs RunService inside one span. `registry` is attached as the VM observer.
UnitResult RunTraced(const Plan& plan, SpanRecorder* recorder, ReplayCounts* counts,
                     jaguar::observe::MetricsRegistry* registry);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
